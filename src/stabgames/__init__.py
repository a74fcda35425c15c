"""Nonlocal quantum games on topological stabilizer resource states.

Exact Pauli/Weyl operator algebra, stabilizer tableaux with phases, chain
complexes over GF(2), the standard topological and fracton codes, the
composite-operator strategies that win parity-type games on them, and a
dense state-vector oracle for small systems.

The names below are imported from their modules on first use (PEP 562), so
importing the package, or a light module of it, does not load numpy.  Nor
does any work on stabilizer groups, qubit or Weyl (qudit), nor their exact
dense states: only float amplitudes need numpy.
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


class _Record:
    """Equality and repr over the attribute names in ``_fields``.

    A record equals only an instance of its own class with equal fields, is
    unhashable, and prints as ``Name(field=value, ...)``.  Each subclass
    lists its ``_fields`` and writes its own ``__init__``.
    """

    __slots__ = ()
    _fields = ()
    __hash__ = None

    def _values(self):
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class _Frozen(_Record):
    """A record that hashes its field tuple and refuses assignment; its
    ``__init__`` sets the fields with ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values()


def __getattr__(name):
    # any other name raises, so "from stabgames import dense" imports the submodule
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
