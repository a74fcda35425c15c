"""What every strategy family shares: constraints, composite operator sets,
their validation, the GHZ reference strategy and the text form.

The families are modules of their own, so a command compiles only the one it
runs: `parity2d` (2D toric), `parity3d` (3D toric and X-cube), `cellulation`
(plane-graph embeddings and coarse cellulations) and `semion` (the
double-semion magic square).  Operators are ordered site-factor sequences:
the constraint signs live in application order.  Every builder guarantees,
and `validate` re-derives from scratch, that X_i anticommutes with Z_j
exactly when i = j and that every recorded constraint product has a definite
expectation with the recorded phase on the resource group.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List, Optional, Tuple

from . import _Frozen, _Record
from .codes import CodeInstance
from .pauli import PauliOperator, SiteFactor, commutes, multiply, ordered_product
from .tableau import StabilizerGroup


class Constraint(_Frozen):
    """The product of the players' X (kind "X") or Z (kind "Z") operators
    over indices, expected definite with i-exponent phase_exp."""

    __slots__ = _fields = ("kind", "indices", "phase_exp", "label")

    def __init__(self, kind: str, indices: Tuple[int, ...], phase_exp: int, label: str = ""):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "phase_exp", phase_exp)
        object.__setattr__(self, "label", label)


class CompositeOperatorSet(_Record):
    _fields = ("code", "resource", "pairs", "constraints", "meta")
    # _table: per player, i^{ab} X^a Z^b indexed [a][b]; built once from
    # pairs, so left out of equality and repr
    __slots__ = (*_fields, "_table")

    def __init__(
        self,
        code: CodeInstance,
        resource: StabilizerGroup,
        pairs: List[Tuple[Tuple[SiteFactor, ...], Tuple[SiteFactor, ...]]],
        constraints: List[Constraint],
        meta: Optional[Dict] = None,
    ):
        self.code = code
        self.resource = resource
        self.pairs = pairs
        self.constraints = constraints
        self.meta = {} if meta is None else meta
        one = PauliOperator.identity(self.n)
        self._table = []
        for xf, zf in self.pairs:
            x, z = ordered_product(xf, self.n), ordered_product(zf, self.n)
            y = multiply(x, z).scale_i(1)  # Z segment applied first
            self._table.append(((one, z), (x, y)))

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def players(self) -> int:
        return len(self.pairs)

    def x_op(self, i: int) -> PauliOperator:
        return self._table[i][1][0]

    def z_op(self, i: int) -> PauliOperator:
        return self._table[i][0][1]

    def y_op(self, i: int) -> PauliOperator:
        """Hermitian composite i * X_i * Z_i (Z segment applied first)."""
        return self._table[i][1][1]

    def player_op(self, i: int, x_exp: int, z_exp: int) -> PauliOperator:
        """i^{xz} X_i^x Z_i^z for bits (x_exp, z_exp)."""
        return self._table[i][x_exp][z_exp]


class ValidationReport(_Record):
    """Outcome of validate; commutation_matrix[i][j] says whether X_i
    anticommutes with Z_j, and constraint_results holds (constraint, kind,
    phase) per constraint."""

    __slots__ = _fields = ("ok", "commutation_ok", "commutation_matrix", "hermitian_ok",
                           "constraint_results", "problems")

    def __init__(
        self,
        ok: bool,
        commutation_ok: bool,
        commutation_matrix: List[List[bool]],
        hermitian_ok: bool,
        constraint_results: List[Tuple[Constraint, str, Optional[int]]],
        problems: List[str],
    ):
        self.ok = ok
        self.commutation_ok = commutation_ok
        self.commutation_matrix = commutation_matrix
        self.hermitian_ok = hermitian_ok
        self.constraint_results = constraint_results
        self.problems = problems


def validate(ops: CompositeOperatorSet) -> ValidationReport:
    """Recheck the anticommutation pattern, Y hermiticity, and every
    constraint's expectation on the resource group."""
    p = ops.players
    problems: List[str] = []
    matrix = [[not commutes(ops.x_op(i), ops.z_op(j)) for j in range(p)] for i in range(p)]
    comm_ok = all(matrix[i][j] == (i == j) for i in range(p) for j in range(p))
    if not comm_ok:
        problems.append("anticommutation pattern is not delta_ij")
    herm_ok = True
    for i in range(p):
        if not matrix[i][i]:
            herm_ok = False
            continue
        if not ops.y_op(i).is_hermitian():
            herm_ok = False
            problems.append(f"Y_{i} is not Hermitian")
    results = []
    for c in ops.constraints:
        op = PauliOperator.identity(ops.n)
        for i in c.indices:
            op = multiply(op, ops.x_op(i) if c.kind == "X" else ops.z_op(i))
        e = ops.resource.expectation(op)
        got = e.phase_exp if e.kind == "definite" else None
        results.append((c, e.kind, got))
        if e.kind != "definite":
            problems.append(f"constraint {c.label or c} is {e.kind}")
        elif (got - c.phase_exp) % (2 * e.d) != 0:
            problems.append(f"constraint {c.label or c} has phase i^{got}, expected i^{c.phase_exp}")
    ok = comm_ok and herm_ok and not problems
    return ValidationReport(ok, comm_ok, matrix, herm_ok, results, problems)


# -- GHZ reference strategy -----------------------------------------------------


def ghz_ops(p: int) -> CompositeOperatorSet:
    """Single-site operators on a P-qubit GHZ resource."""
    if p < 3:
        raise ValueError("parity game needs at least 3 players")
    gens = [PauliOperator.from_support(p, "X", range(p))]
    gens += [PauliOperator.from_support(p, "Z", [i, i + 1]) for i in range(p - 1)]
    group = StabilizerGroup(gens)
    code = CodeInstance(
        kind="ghz", d=2, n=p, group=group,
        labeled_generators=tuple((("ghz", i), g) for i, g in enumerate(gens)),
    )
    pairs = [(((i, "X"),), ((i, "Z"),)) for i in range(p)]
    constraints = [Constraint("X", tuple(range(p)), 0, "all-X")]
    constraints += [
        Constraint("Z", (i, j), 0, f"Z{i}Z{j}") for i in range(p) for j in range(i + 1, p)
    ]
    return CompositeOperatorSet(code, group, pairs, constraints, meta={"P": p})


# -- helpers shared by the families ------------------------------------------------


def _edge_pair(code: CodeInstance, x_keys, z_keys) -> Tuple[Tuple[SiteFactor, ...], ...]:
    """(X factors, Z factors) of one composite pair from qubit cell keys."""
    return (
        tuple((code.qubit_index(k), "X") for k in x_keys),
        tuple((code.qubit_index(k), "Z") for k in z_keys),
    )


def _xor_reduce(items: List) -> List:
    """Drop site factors (or qubit keys) that appear an even number of times
    (Z^2 = 1), keeping first-appearance order for the survivors."""
    counts = Counter(items)
    out = []
    seen = set()
    for f in items:
        if counts[f] % 2 == 1 and f not in seen:
            out.append(f)
            seen.add(f)
    return out


# -- serialization ---------------------------------------------------------------------


def serialize_operator_set(ops: CompositeOperatorSet) -> str:
    """JSON header (pairs, constraints, expected phases) followed by one
    operator line per composite, in the standard text form."""
    header = {
        "players": ops.players,
        "n": ops.n,
        "d": ops.code.d,
        "code_kind": ops.code.kind,
        "constraints": [
            {"kind": c.kind, "indices": list(c.indices), "phase_exp": c.phase_exp,
             "label": c.label}
            for c in ops.constraints
        ],
        "meta": {k: v for k, v in ops.meta.items() if isinstance(k, str)},
    }
    lines = [json.dumps(header, sort_keys=True, default=str)]
    for i in range(ops.players):
        lines.append(f"X{i} " + ops.x_op(i).to_text())
        lines.append(f"Z{i} " + ops.z_op(i).to_text())
    return "\n".join(lines) + "\n"
