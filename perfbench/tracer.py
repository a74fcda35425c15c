"""Per-layer instrumentation of stabgames, installed from outside the program.

Child side (one fresh interpreter per job):

    python perfbench/tracer.py spans|counts OUT.json JOB_ID -- JOB_ARGV...

``spans`` wraps the public entry points of every stabgames module except the
Pauli/Weyl kernels (of those only ``ordered_product``) and records one span
per call: name, start, end, parent span and job id, plus a size note for a
few entry points.  ``counts`` wraps only the public Pauli/Weyl module
functions and counts calls, because those run up to hundreds of thousands
of times per job.
Module functions are re-bound in every stabgames namespace that imported
them; methods are replaced on their class.  Records stay in memory and are
written to OUT.json when the job ends.  JOB_ARGV is ``-m stabgames.cli ...``
or a script path and its arguments, as for an untraced job.

Parent side: ``layer_metrics`` turns the spans and counts into the
per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import pkgutil
import runpy
import sys
import time
from typing import Callable, Dict, List

KERNEL_LAYERS = ("pauli", "weyl")
SPAN_KERNELS = {"pauli.ordered_product"}

# Sizes recorded on a span: generators of a tableau build, bytes of one dense
# apply (16 * d^n, computed) and classes scanned by the classical optimum.
NOTES: Dict[str, Callable] = {
    "tableau.StabilizerGroup.__init__": lambda a, k: _length(a[1] if len(a) > 1 else k.get("generators")),
    "dense.apply_operator": lambda a, k: 16 * a[0].d ** a[0].n,
    "games.classical_optimum_parity": lambda a, k: 2 << (a[0] if a else k["p"]),
}


def _length(gens):
    return len(gens) if hasattr(gens, "__len__") else 0


def _modules():
    import stabgames

    mods = [stabgames]
    for info in pkgutil.iter_modules(stabgames.__path__):
        mods.append(importlib.import_module(f"stabgames.{info.name}"))
    return mods


def _entry_points(mods):
    """(layer.qualname, owner, attribute, function, kind) for every public
    function and method defined in a stabgames module."""
    out = []
    for mod in mods:
        layer = mod.__name__.rpartition(".")[2]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((f"{layer}.{name}", mod, name, obj, None))
            elif inspect.isclass(obj):
                for attr, raw in vars(obj).items():
                    public = not attr.startswith("_") or (
                        attr == "__init__" and not dataclasses.is_dataclass(obj))
                    if not public:
                        continue
                    kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
                    fn = raw.__func__ if kind else raw
                    if inspect.isfunction(fn):
                        out.append((f"{layer}.{name}.{attr}", obj, attr, fn, kind))
    return out


def install(make_wrapper: Callable, select: Callable[[str], bool]) -> None:
    """Replace each selected entry point with ``make_wrapper(name, fn)``."""
    mods = _modules()
    replaced = {}
    for name, owner, attr, fn, kind in _entry_points(mods):
        if not select(name):
            continue
        wrapper = make_wrapper(name, fn)
        replaced[id(fn)] = wrapper
        setattr(owner, attr, kind(wrapper) if kind else wrapper)
    # from-imports hold their own reference: re-bind it in every namespace
    for mod in mods:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])


class SpanRecorder:
    """Nested spans of one job, kept in memory."""

    def __init__(self, job_id: int):
        self.job_id = job_id
        self.spans: List[list] = []  # [name, start, end, parent, job, note, raised]
        self._stack: List[int] = []

    def open(self, name: str, note=None) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.job_id, note, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrapper(self, name: str, fn: Callable) -> Callable:
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(name, note(args, kwargs) if note else None)
            try:
                return fn(*args, **kwargs)
            except Exception:
                rec[6] = True
                raise
            finally:
                self.close(rec)

        return traced


def counting_wrapper(counts: Dict[str, int]) -> Callable:
    def make(name: str, fn: Callable) -> Callable:
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    return make


def _run_job(argv: List[str]) -> int:
    if argv[:2] == ["-m", "stabgames.cli"]:
        import stabgames.cli

        return stabgames.cli.main(argv[2:])
    sys.argv = list(argv)
    try:
        runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exc:
        return exc.code or 0
    return 0


def main(argv: List[str]) -> int:
    mode, out, job_id = argv[0], argv[1], int(argv[2])
    job_argv = argv[argv.index("--") + 1:]
    record: Dict = {"mode": mode}
    if mode == "spans":
        rec = SpanRecorder(job_id)
        install(rec.wrapper, lambda name: name.split(".")[0] not in KERNEL_LAYERS
                or name in SPAN_KERNELS)
        root = rec.open("job")
        try:
            code = _run_job(job_argv)
        finally:
            rec.close(root)
            record["spans"] = rec.spans
    else:
        counts: Dict[str, int] = {}
        install(counting_wrapper(counts), lambda name: name.split(".")[0] in KERNEL_LAYERS
                and name.count(".") == 1)
        code = _run_job(job_argv)
        record["counts"] = counts
    with open(out, "w") as f:
        json.dump(record, f)
    return code


# -- parent side: spans to per-layer metrics -------------------------------------

CODE_BUILDERS = {f"codes.{f}" for f in (
    "homological_css", "toric2d", "toric3d_faces", "toric3d_edges", "xcube", "double_semion")}
GAME_EVALS = {f"games.{f}" for f in ("quantum_parity_eval", "magic_square_eval", "cellulation_game_eval")}
CLASSICAL = {"games.classical_optimum_parity", "games.classical_optimum_magic_square"}


class SpanTable:
    """Durations, self times and nesting of a list of span records."""

    def __init__(self, spans: List[list]):
        self.spans = spans
        self.dur = [s[2] - s[1] for s in spans]
        self.self_time = list(self.dur)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self.self_time[s[3]] -= self.dur[i]

    def mask(self, pred: Callable[[str], bool]) -> List[bool]:
        return [pred(s[0]) for s in self.spans]

    def within(self, mask: List[bool]) -> List[bool]:
        """Spans that match or have a matching ancestor (parents come first)."""
        out = []
        for i, s in enumerate(self.spans):
            out.append(mask[i] or (s[3] >= 0 and out[s[3]]))
        return out

    def inclusive(self, mask: List[bool]) -> float:
        """Wall time covered by matching spans, each interval counted once."""
        below = self.within(mask)
        return sum(self.dur[i] for i, s in enumerate(self.spans)
                   if mask[i] and not (s[3] >= 0 and below[s[3]]))

    def self_sum(self, mask: List[bool]) -> float:
        return sum(t for t, m in zip(self.self_time, mask) if m)

    def calls(self, mask: List[bool]) -> int:
        return sum(mask)

    def notes(self, mask: List[bool]) -> int:
        return sum(s[5] or 0 for s, m in zip(self.spans, mask) if m)

    def raised(self, mask: List[bool]) -> int:
        return sum(1 for s, m in zip(self.spans, mask) if m and s[6])

    def layer_self(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for s, t in zip(self.spans, self.self_time):
            layer = s[0].split(".")[0]
            out[layer] = out.get(layer, 0.0) + t
        return out


def _per(total: float, count: int, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


def layer_metrics(spans: List[list], counts: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics of one job from its spans and kernel call counts."""
    t = SpanTable(spans)
    layer = lambda prefix: t.mask(lambda n: n.startswith(prefix + "."))
    named = lambda *names: t.mask(lambda n: n in names)
    build = named(*CODE_BUILDERS)
    codes_in_build = [a and b for a, b in zip(layer("codes"), t.within(build))]
    ds_string = named("codes.ds_string")
    sg_init = named("tableau.StabilizerGroup.__init__")
    fix = named("tableau.StabilizerGroup.fix_sector")
    expect = named("tableau.StabilizerGroup.expectation")
    in_validate = t.within(named("strategies.validate"))
    strat_build = [a and not b for a, b in zip(layer("strategies"), in_validate)]
    evals = named(*GAME_EVALS)
    games_in_eval = [a and b for a, b in zip(layer("games"), t.within(evals))]
    classical = named(*CLASSICAL)
    classical_s = t.inclusive(classical)
    apply_op = named("dense.apply_operator")
    expect_s = t.inclusive(expect)
    apply_s = t.inclusive(apply_op)
    return {
        "cli.self_s": t.self_sum(layer("cli")),
        "complexes.build_s": t.inclusive(layer("complexes")),
        "codes.build_s": t.inclusive(build),
        "codes.build_self_s": t.self_sum(codes_in_build),
        "codes.ds_string_calls": t.calls(ds_string),
        "codes.ds_string_s": t.inclusive(ds_string),
        "codes.exchange_statistics_s": t.inclusive(named("codes.exchange_statistics")),
        "tableau.build_s": t.inclusive(sg_init),
        "tableau.build_calls": t.calls(sg_init),
        "tableau.build_gens": t.notes(sg_init),
        "tableau.build_rejects": t.raised(sg_init),
        "tableau.fix_sector_s": t.inclusive(fix),
        "tableau.fix_sector_calls": t.calls(fix),
        "tableau.expectation_s": expect_s,
        "tableau.expectation_calls": t.calls(expect),
        "tableau.expectation_us": _per(expect_s, t.calls(expect), 1e6),
        "pauli.ordered_product_s": t.inclusive(named("pauli.ordered_product")),
        "pauli.ordered_product_calls": counts.get("pauli.ordered_product", 0),
        "pauli.multiply_calls": counts.get("pauli.multiply", 0),
        "weyl.w_multiply_calls": counts.get("weyl.w_multiply", 0),
        "weyl.w_power_calls": counts.get("weyl.w_power", 0),
        "weyl.commutation_phase_calls": counts.get("weyl.commutation_phase", 0),
        "strategies.build_s": t.inclusive(strat_build),
        "strategies.build_self_s": t.self_sum(strat_build),
        "strategies.validate_s": t.inclusive(named("strategies.validate")),
        "games.eval_s": t.inclusive(evals),
        "games.eval_self_s": t.self_sum(games_in_eval),
        "games.classical_s": classical_s,
        "games.classical_classes_per_s": t.notes(classical) / classical_s if classical_s else 0.0,
        "dense.state_from_group_s": t.inclusive(named("dense.state_from_group")),
        "dense.apply_operator_calls": t.calls(apply_op),
        "dense.apply_operator_us": _per(apply_s, t.calls(apply_op), 1e6),
        "dense.bytes_computed": t.notes(apply_op),
        "dense.expectation_s": t.inclusive(named("dense.dense_expectation")),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
