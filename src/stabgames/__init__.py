"""Nonlocal quantum games on topological stabilizer resource states.

Exact Pauli/Weyl operator algebra, stabilizer tableaux with phases, chain
complexes over GF(2), the standard topological and fracton codes, the
composite-operator strategies that win parity-type games on them, and a
dense state-vector oracle for small systems.

The names below are imported from their modules on first use (PEP 562), so
importing the package, or a light module of it, does not load numpy.  Nor
does any work on stabilizer groups, qubit or Weyl (qudit): only the dense
oracle imports numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "PauliOperator": "pauli",
    "commutes": "pauli",
    "make_y_composite": "pauli",
    "multiply": "pauli",
    "ordered_product": "pauli",
    "WeylOperator": "weyl",
    "commutation_phase": "weyl",
    "dagger": "weyl",
    "w_multiply": "weyl",
    "w_power": "weyl",
    "Expectation": "tableau",
    "StabilizerGroup": "tableau",
}

__all__ = [
    "PauliOperator",
    "WeylOperator",
    "StabilizerGroup",
    "Expectation",
    "commutes",
    "commutation_phase",
    "multiply",
    "w_multiply",
    "w_power",
    "dagger",
    "ordered_product",
    "make_y_composite",
    "__version__",
]


def __getattr__(name):
    # any other name raises, so "from stabgames import dense" imports the submodule
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
