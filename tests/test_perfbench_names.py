"""The names the benchmark harness takes from stabgames still resolve.

The harness under perfbench/ changes only with the benchmark itself, so a
library function it uses could be deleted or renamed without any of these
tests failing until the harness next runs.  This test reads its sources with
ast, takes every ``from stabgames... import name`` and every ``alias.attr``
used on a name so imported (``dense.state_from_group`` after
``from stabgames import dense``), and resolves each one.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _imported_names(tree):
    """(module, name, bound alias) for each ``from stabgames... import``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module
                and node.module.split(".")[0] == "stabgames"):
            for alias in node.names:
                yield node.module, alias.name, alias.asname or alias.name


def _resolve(module, name):
    # "from stabgames import dense" names a submodule, not a package attribute
    mod = importlib.import_module(module)
    try:
        return getattr(mod, name)
    except AttributeError:
        return importlib.import_module(f"{module}.{name}")


def test_perfbench_names_resolve():
    checked, problems = set(), []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = {}
        for module, name, alias in _imported_names(tree):
            checked.add(f"{module}.{name}")
            try:
                bound[alias] = _resolve(module, name)
            except (AttributeError, ImportError) as exc:
                problems.append(f"{path.name}: from {module} import {name}: {exc}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in bound):
                checked.add(f"{node.value.id}.{node.attr}")
                if not hasattr(bound[node.value.id], node.attr):
                    problems.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    assert not problems, "\n".join(problems)
    # the harness's oracle job and probes are among what was checked
    assert {"dense.state_from_group", "dense.dense_expectation", "weyl.w_power",
            "stabgames.weyl.w_multiply", "stabgames.codes.double_semion"} <= checked
