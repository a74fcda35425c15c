"""Game definitions, exact classical baselines, and quantum-strategy
evaluation: the P-player parity game, coarse-cellulation games, and the
even-dimension magic-square game.

Quantum evaluations are exact: stabilizer resources give win probabilities
as rationals, dense resources give floats from exact state vectors.  Win
credit for an input whose collective observable has expectation zero (or is
logical on a degenerate resource) is 1/2: the measured eigenvalue is then
uniformly random.
"""

from __future__ import annotations

import itertools
import random as _random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .complexes import _independent_rows
from .dense import DenseState, dense_expectation
from .pauli import PauliOperator, multiply
from .strategies import CellulationStrategy, CompositeOperatorSet
from .tableau import Expectation, StabilizerGroup
from .weyl import commutation_phase, dagger, w_multiply

Number = Union[Fraction, float]


@dataclass(frozen=True)
class ParityGame:
    """P cooperating players; input bits have even parity, outputs must sum
    (mod 2) to half the input sum."""

    p: int

    def __post_init__(self):
        if self.p < 3:
            raise ValueError("parity game needs at least 3 players")

    def valid_inputs(self) -> List[Tuple[int, ...]]:
        out = []
        for bits in itertools.product((0, 1), repeat=self.p):
            if sum(bits) % 2 == 0:
                out.append(bits)
        return out

    def target_sign(self, bits: Sequence[int]) -> int:
        """+1 when half the input sum is even, -1 when odd."""
        return 1 if (sum(bits) // 2) % 2 == 0 else -1


@dataclass(frozen=True)
class MagicSquareGame:
    """Two players fill a 3x3 grid with integers mod d (d even): row sums 0,
    column sums d/2, and the shared cell must agree."""

    d: int

    def __post_init__(self):
        if self.d % 2:
            raise ValueError("magic-square game needs even qudit dimension")


@dataclass
class StrategyEvaluation:
    per_input: Dict[Tuple, Number]
    p_q: Number
    mermin: Optional[Number] = None
    meta: Dict = field(default_factory=dict)


# -- classical parity baseline -----------------------------------------------------


def classical_optimum_parity(p: int) -> Tuple[Fraction, Dict]:
    """Exact optimum over deterministic strategies, via a Walsh-Hadamard transform.

    A strategy is a pair of bits per player, y_i(x) = a_i xor (c_i and x);
    the win count depends only on (xor of a_i, the c vector), so the classes
    cover all 4^P deterministic strategies.  With f(m) = (-1)^(|m|/2) on
    even-weight inputs m and 0 on odd ones, the unnormalised transform
    W(c) = sum_m (-1)^(c.m) f(m) gives wins(c, a) = (2^(P-1) + (-1)^a W(c)) / 2
    for every class at once.  The witness is the lowest c with maximal |W(c)|,
    with a = 0 when W(c) >= 0: the lowest class index 2c + a among the optima.
    """
    if p < 3:
        raise ValueError("parity game needs at least 3 players")
    if p > 20:
        raise ValueError("exact optimum capped at P = 20")
    weight = np.zeros(1, dtype=np.int64)
    for _ in range(p):  # popcount of every index m < 2^P
        weight = np.concatenate([weight, weight + 1])
    w = np.where(weight % 2 == 0, 1 - 2 * ((weight // 2) % 2), 0)
    for k in range(p):  # in-place butterflies over bit k
        v = w.reshape(-1, 2, 1 << k)
        lo = v[:, 0].copy()
        v[:, 0] += v[:, 1]
        v[:, 1] = lo - v[:, 1]
    c = int(np.argmax(np.abs(w)))
    a_total = 0 if w[c] >= 0 else 1
    half = 1 << (p - 1)
    wins = (half + abs(int(w[c]))) // 2
    strategy = {"a": [a_total] + [0] * (p - 1), "c": [(c >> i) & 1 for i in range(p)]}
    return Fraction(wins, half), strategy


def classical_strategy_score(p: int, a: Sequence[int], c: Sequence[int]) -> Fraction:
    """Win fraction of the explicit deterministic strategy y_i(x)=a_i^(c_i&x)."""
    game = ParityGame(p)
    wins = 0
    inputs = game.valid_inputs()
    for bits in inputs:
        total = sum(ai ^ (ci & xi) for ai, ci, xi in zip(a, c, bits)) % 2
        if total == (sum(bits) // 2) % 2:
            wins += 1
    return Fraction(wins, len(inputs))


# -- quantum parity evaluation --------------------------------------------------------


def _definite_sign(e: Expectation) -> int:
    """+1 or -1 when <O> is exactly that value, 0 otherwise."""
    if e.kind == "definite":
        k = e.phase_exp % (2 * e.d)
        if k == 0:
            return 1
        if k == e.d:
            return -1
    return 0


def _score(ops: CompositeOperatorSet, resource: Union[StabilizerGroup, DenseState],
           exps: Iterable[Tuple[int, int]], target: int) -> Tuple[Number, Number]:
    """Win probability and <O> for one input, where O is the product of the
    players' i^{ab} X^a Z^b in player order and target the sign that wins.

    On a stabilizer group <O> is the exact sign +1, -1 or 0 (uniformly random
    outcome) and the win a rational; on a dense state both are floats.
    """
    coll = PauliOperator.identity(ops.n)
    for i, (a, b) in enumerate(exps):
        if a or b:
            coll = multiply(coll, ops.player_op(i, a, b))
    if isinstance(resource, DenseState):
        s = dense_expectation(resource, coll).real
        return (1 + target * s) / 2, s
    s = _definite_sign(resource.expectation(coll))
    return Fraction(1 + target * s, 2), s


def quantum_parity_eval(
    ops: CompositeOperatorSet,
    resource: Optional[Union[StabilizerGroup, DenseState]] = None,
) -> StrategyEvaluation:
    """Evaluate the measurement strategy on every valid input.

    Player i measures X_i on input 0 and Y_i = i X_i Z_i on input 1; the
    collective operator's expectation fixes the win probability per input.
    For P = 3 the Mermin combination <XXX> - <XYY> - <YXY> - <YYX> is also
    reported, and p_q equals (1 + mermin/4) / 2 identically.
    """
    p = ops.players
    game = ParityGame(p)
    res = resource if resource is not None else ops.resource
    per_input: Dict[Tuple, Number] = {}
    total = mermin = Fraction(0)
    for bits in game.valid_inputs():
        win, s = _score(ops, res, [(1, b) for b in bits], game.target_sign(bits))
        per_input[bits] = win
        total += win
        if p == 3:  # + for XXX, - for the three XYY-type inputs
            mermin += s if sum(bits) == 0 else -s
    return StrategyEvaluation(per_input, total / len(per_input), mermin if p == 3 else None,
                              meta={"P": p})


# -- cellulation game -------------------------------------------------------------------


@dataclass
class CellulationGame:
    """Inputs are bits on independent coarse boundary/coboundary generators;
    each player measures i^{ab} X^a Z^b with incidence-derived exponents."""

    strategy: CellulationStrategy
    x_basis: Tuple[int, ...] = None  # independent coarse (p+1)-cells
    z_basis: Tuple[int, ...] = None  # independent coarse (p-1)-cells

    def __post_init__(self):
        coarse = self.strategy.coarse
        p = self.strategy.p
        chain = coarse.to_chain()
        if self.x_basis is None:
            self.x_basis = _independent_rows(chain.boundary[p + 1])
        if self.z_basis is None:
            cob = []
            for vi in range(len(coarse.cells[p - 1])):
                mask = 0
                for c in coarse.coboundary_indices(p - 1, vi):
                    mask |= 1 << c
                cob.append(mask)
            self.z_basis = _independent_rows(cob)


def cellulation_game_eval(
    game: CellulationGame,
    resource: Optional[Union[StabilizerGroup, DenseState]] = None,
    restrict_unit_z: bool = False,
    max_exhaustive: int = 1 << 16,
    samples: int = 2048,
    seed: int = 7,
) -> StrategyEvaluation:
    """Average win probability over the game's inputs.

    Inputs are enumerated exhaustively when 2^bits <= max_exhaustive and
    sampled uniformly (seeded) otherwise.  With restrict_unit_z the Z
    exponent of every player is pinned to 1 and only the X-side bits are
    enumerated, which reduces the game to the parity game on suitable
    cellulations.
    """
    strat = game.strategy
    ops = strat.ops
    res = resource if resource is not None else ops.resource
    nx = len(game.x_basis)
    x_pos = {cell: k for k, cell in enumerate(game.x_basis)}
    z_pos = {cell: nx + k for k, cell in enumerate(game.z_basis)}
    # per player, the input bits on its incident basis cells: a is their parity
    # on the (p+1)-cells, b on the (p-1)-cells (or 1 with restrict_unit_z)
    players = range(strat.players)
    a_bits = [[x_pos[f] for f in strat.face_incidence(c) if f in x_pos] for c in players]
    b_bits = [[z_pos[v] for v in strat.vertex_incidence(c) if v in z_pos] for c in players]
    nz = 0 if restrict_unit_z else len(game.z_basis)
    bits_total = nx + nz
    if (1 << bits_total) <= max_exhaustive:
        assignments: Iterable[Tuple[int, ...]] = itertools.product((0, 1), repeat=bits_total)
        exhaustive = True
    else:
        rng = _random.Random(seed)
        assignments = (
            tuple(rng.randrange(2) for _ in range(bits_total)) for _ in range(samples)
        )
        exhaustive = False
    per_input: Dict[Tuple, Number] = {}
    total = Fraction(0)
    count = 0
    for bits in assignments:
        exps = [
            (sum(bits[k] for k in ak) % 2, 1 if restrict_unit_z else sum(bits[k] for k in bk) % 2)
            for ak, bk in zip(a_bits, b_bits)
        ]
        cross = sum(a * b for a, b in exps)
        if cross % 2:
            raise ValueError("odd a.b parity: stabilizer commutation violated")
        win, _ = _score(ops, res, exps, 1 if cross % 4 == 0 else -1)
        per_input[bits] = win
        total += win
        count += 1
    return StrategyEvaluation(
        per_input,
        total / count,
        meta={
            "bits": bits_total,
            "exhaustive": exhaustive,
            "restrict_unit_z": restrict_unit_z,
            "seed": None if exhaustive else seed,
        },
    )


# -- magic-square game ---------------------------------------------------------------


def _valid_rows(d: int, target: int) -> List[Tuple[int, ...]]:
    rows = []
    for m0 in range(d):
        for m1 in range(d):
            rows.append((m0, m1, (target - m0 - m1) % d))
    return rows


def classical_optimum_magic_square(d: int) -> Tuple[Fraction, Dict]:
    """Exact deterministic optimum for the mod-d magic square game.

    Player A picks one valid row filling per row input, B one valid column
    filling per column input.  Against B's three column entries in row r,
    A's best response for that row depends on nothing else, so A's best row
    is tabulated once for each of the d^3 entry triples (first row on ties).
    B's (d^2)^3 strategies are then scanned in order, each scoring the sum of
    its three table entries; the first strict maximum is the witness.
    """
    if d % 2:
        raise ValueError("game undefined for odd d (column target d/2)")
    if d > 4:
        raise ValueError("exhaustive search capped at d = 4")
    rows = _valid_rows(d, 0)
    response = {}  # column-entry triple -> (matches, A's best row)
    for entries in itertools.product(range(d), repeat=3):
        scored = [(sum(x == y for x, y in zip(row, entries)), row) for row in rows]
        response[entries] = max(scored, key=lambda t: t[0])
    best_wins, best_cols = -1, None
    for b_cols in itertools.product(_valid_rows(d, d // 2), repeat=3):
        wins = sum(response[entries][0] for entries in zip(*b_cols))
        if wins > best_wins:
            best_wins, best_cols = wins, b_cols
    a_rows = [response[entries][1] for entries in zip(*best_cols)]
    return Fraction(best_wins, 9), {"a_rows": a_rows, "b_cols": list(best_cols)}


def lifted_qubit_square_strategy(d: int) -> Dict:
    """The optimal d=2 tables scaled by d/2: wins 8 of 9 for every even d."""
    base, w2 = classical_optimum_magic_square(2)
    s = d // 2
    return {
        "a_rows": [tuple(v * s for v in row) for row in w2["a_rows"]],
        "b_cols": [tuple(v * s for v in col) for col in w2["b_cols"]],
    }


def magic_square_score(d: int, a_rows, b_cols) -> Fraction:
    wins = 0
    for r in range(3):
        if sum(a_rows[r]) % d != 0:
            raise ValueError("row filling violates the row-sum rule")
    for c in range(3):
        if sum(b_cols[c]) % d != d // 2:
            raise ValueError("column filling violates the column-sum rule")
    for r in range(3):
        for c in range(3):
            if a_rows[r][c] == b_cols[c][r]:
                wins += 1
    return Fraction(wins, 9)


def _ms_unitaries(x_op, z_op):
    """U1 = Z^dag, U2 = X^2, U3 = X Z X for one effective ququart."""
    return {
        1: dagger(z_op),
        2: w_multiply(x_op, x_op),
        3: w_multiply(x_op, w_multiply(z_op, x_op)),
    }


def _ms_table_entries(us1, us2):
    """The nine grid operators, entry[row][col], acting on one player's two
    effective ququarts (index 1 and 2)."""
    u1, u2, u3 = us1[1], us1[2], us1[3]
    v1, v2, v3 = us2[1], us2[2], us2[3]
    return {
        (0, 0): dagger(u1),
        (0, 1): dagger(v1),
        (0, 2): w_multiply(u1, v1),
        (1, 0): dagger(v2),
        (1, 1): dagger(u2),
        (1, 2): w_multiply(u2, v2),
        (2, 0): w_multiply(u1, v2).scale_w(4),  # -U1 (x) U2
        (2, 1): w_multiply(u2, v1).scale_w(4),  # -U2 (x) U1
        (2, 2): w_multiply(u3, v3),
    }


@dataclass
class MagicSquareReport:
    row_identities: List[Tuple[bool, int]]
    col_identities: List[Tuple[bool, int]]
    cell_constraints: Dict[Tuple[int, int], Tuple[str, Optional[int]]]
    commuting_rows: bool
    commuting_cols: bool
    p_q: Fraction
    problems: List[str]


def magic_square_eval(msops, resource: Optional[StabilizerGroup] = None) -> MagicSquareReport:
    """Verify the generalized magic-square strategy on a double-semion resource.

    Checks, in order: all operators within each row/column commute (operator
    algebra, resource-free); every row product is exactly +1 and every column
    product exactly -1 as scalar identities; and each grid cell's A-side
    operator times the adjoint of the B-side operator has definite expectation
    +1 on the resource, which is what makes the players agree on the shared
    cell.  p_q is the fraction of the nine inputs won.
    """
    res = resource if resource is not None else msops.resource
    d = msops.code.d
    us_a1 = _ms_unitaries(msops.a_x[0], msops.a_z[0])
    us_a2 = _ms_unitaries(msops.a_x[1], msops.a_z[1])
    us_b1 = _ms_unitaries(msops.b_x[0], msops.b_z[0])
    us_b2 = _ms_unitaries(msops.b_x[1], msops.b_z[1])
    table_a = _ms_table_entries(us_a1, us_a2)
    table_b = _ms_table_entries(us_b1, us_b2)
    # rows are A's entries with product +1 (w^0), columns B's with product -1 (w^d)
    lines = [("row", r, [table_a[(r, i)] for i in range(3)], 0) for r in range(3)]
    lines += [("column", c, [table_b[(i, c)] for i in range(3)], d) for c in range(3)]
    commuting = {"row": True, "column": True}
    identities: Dict[str, List[Tuple[bool, int]]] = {"row": [], "column": []}
    commute_problems: List[str] = []
    product_problems: List[str] = []
    for name, k, ops, target in lines:
        for i, j in itertools.combinations(range(3), 2):
            if commutation_phase(ops[i], ops[j]) != 0:
                commuting[name] = False
                commute_problems.append(f"{name} {k}: entries {i},{j} do not commute")
        acc = w_multiply(w_multiply(ops[0], ops[1]), ops[2])
        ok = acc.is_scalar() and acc.phase == target
        identities[name].append((ok, acc.phase if acc.is_scalar() else -1))
        if not ok:
            sign = "-1" if target else "+1"
            product_problems.append(
                f"{name} {k} product is not {sign} (w^{acc.phase}, scalar={acc.is_scalar()})"
            )
    problems = commute_problems + product_problems
    row_identities, col_identities = identities["row"], identities["column"]
    cell_constraints: Dict[Tuple[int, int], Tuple[str, Optional[int]]] = {}
    wins = Fraction(0)
    for r in range(3):
        for c in range(3):
            op = w_multiply(table_a[(r, c)], dagger(table_b[(r, c)]))
            e = res.expectation(op)
            cell_constraints[(r, c)] = (e.kind, e.phase_exp if e.kind == "definite" else None)
            cell_ok = e.kind == "definite" and e.phase_exp % (2 * d) == 0
            if not cell_ok:
                problems.append(f"cell {(r, c)} constraint: {e.kind}, phase {cell_constraints[(r, c)][1]}")
            if row_identities[r][0] and col_identities[c][0] and cell_ok:
                wins += 1
            elif row_identities[r][0] and col_identities[c][0] and e.kind in ("zero", "logical"):
                wins += Fraction(1, d)  # agreement by chance on uniform outcomes
    return MagicSquareReport(
        row_identities,
        col_identities,
        cell_constraints,
        commuting["row"],
        commuting["column"],
        Fraction(wins, 9),
        problems,
    )
