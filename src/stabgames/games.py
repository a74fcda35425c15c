"""Game definitions and their exact classical baselines: the P-player
parity game, the coarse-cellulation game and the even-dimension
magic-square game.

The parity and cellulation games build their own input maps (``InputMap``).
The classical optima are exact rationals with a witness strategy: the parity
game's in closed form, the magic square's from a best-response table.  The
quantum strategies are scored elsewhere, so the classical games compile none
of that code: ``scoring`` evaluates the input maps on stabilizer groups and
dense states, and ``semion`` verifies the magic-square strategy beside the
operators it plays.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import reduce
from operator import xor
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from . import _Frozen, _Record

if TYPE_CHECKING:  # the complexes are imported where a cellulation game is built
    from .complexes import CellComplex

Number = Union[Fraction, float]

# One (a, b) pair of masks per player over the bits of u | 1 << m: bit m - 1 - k
# of u is input bit k, so u is the input's index in itertools.product order; bit
# m is the constant bit; a_i(u) is the parity of a & (u | 1 << m), b_i(u) likewise
InputMap = List[Tuple[int, int]]


class ParityGame(_Frozen):
    """P cooperating players; input bits have even parity, outputs must sum
    (mod 2) to half the input sum."""

    __slots__ = _fields = ("p",)

    def __init__(self, p: int):
        if p < 3:
            raise ValueError("parity game needs at least 3 players")
        object.__setattr__(self, "p", p)

    def valid_inputs(self) -> List[Tuple[int, ...]]:
        """The 2^(P-1) even-weight inputs in itertools.product order: each
        prefix of P-1 bits, in that order, with its parity bit appended.  The
        prefix at index i holds the binary digits of i, so its parity is
        that of i's popcount."""
        last = ((0,), (1,))
        return [bits + last[i.bit_count() & 1]
                for i, bits in enumerate(itertools.product((0, 1), repeat=self.p - 1))]

    def input_map(self) -> Tuple[InputMap, int]:
        """The game's input map and its m = P - 1 free bits.

        An even input is its first P - 1 bits with their parity appended, so
        (a_i, b_i) = (1, input bit i) is affine in those bits, and the target
        sign is i^{sum a_i b_i} = i^{|input|}; u in order is valid_inputs()' order.
        """
        m = self.p - 1
        return [(1 << m, 1 << (m - 1 - i)) for i in range(m)] + [(1 << m, (1 << m) - 1)], m

    def target_sign(self, bits: Sequence[int]) -> int:
        """+1 when half the input sum is even, -1 when odd."""
        return 1 if (sum(bits) // 2) % 2 == 0 else -1


class CellulationGame(_Record):
    """One player per p-cell of the coarse complex.  Inputs are bits on the
    independent coarse (p+1)-cells (x_basis) and (p-1)-cells (z_basis); a
    player's a and b are the parities of the bits on its incident cells."""

    _fields = ("coarse", "p")
    # x_basis, z_basis and _map: derived from the complex, so left out of
    # equality and repr
    __slots__ = (*_fields, "x_basis", "z_basis", "_map")

    def __init__(self, coarse: CellComplex, p: int):
        if not 1 <= p <= coarse.dim - 1:
            raise ValueError(f"cellulation degree p={p} outside 1..{coarse.dim - 1}")
        from .complexes import gf2_eliminate

        self.coarse, self.p = coarse, p
        self.x_basis = gf2_eliminate(coarse.boundary_rows(p + 1))[0]
        self.z_basis = gf2_eliminate(coarse.coboundary_rows(p - 1))[0]
        # the x_basis bits come first, so they are the high bits of u; XOR
        # cancels a cell incident twice
        nz = len(self.z_basis)
        x_bit = {cell: 1 << (nz + len(self.x_basis) - 1 - k) for k, cell in enumerate(self.x_basis)}
        z_bit = {cell: 1 << (nz - 1 - k) for k, cell in enumerate(self.z_basis)}
        self._map: InputMap = [
            (reduce(xor, [x_bit.get(f, 0) for f in coarse.coboundary_indices(p, c)], 0),
             reduce(xor, [z_bit.get(v, 0) for v in coarse.boundary_indices(p, c)], 0))
            for c in range(len(coarse.cells[p]))
        ]

    def input_map(self, restrict_unit_z: bool = False) -> Tuple[InputMap, int]:
        """(map, m): every player's masks over the m input bits, the
        x_basis bits first, then the z_basis bits.  With restrict_unit_z
        every b is 1 and only the x_basis bits are inputs."""
        nx, nz = len(self.x_basis), len(self.z_basis)
        if restrict_unit_z:
            return [(a >> nz, 1 << nx) for a, _ in self._map], nx
        return self._map, nx + nz


class MagicSquareGame(_Frozen):
    """Two players fill a 3x3 grid with integers mod d (d even): row sums 0,
    column sums d/2, and the shared cell must agree."""

    __slots__ = _fields = ("d",)

    def __init__(self, d: int):
        if d < 2:
            raise ValueError(f"magic-square game needs d >= 2, got d = {d}")
        if d % 2:
            raise ValueError("game undefined for odd d (column target d/2)")
        object.__setattr__(self, "d", d)


class StrategyEvaluation(_Record):
    __slots__ = _fields = ("per_input", "p_q", "mermin", "meta")

    def __init__(self, per_input: Dict[Tuple, Number], p_q: Number,
                 mermin: Optional[Number] = None, meta: Optional[Dict] = None):
        self.per_input = per_input
        self.p_q = p_q
        self.mermin = mermin
        self.meta = {} if meta is None else meta


# -- classical parity baseline -----------------------------------------------------

# the closed form costs P + 1 rotations of a P-bit Gaussian integer (about
# a millisecond at the cap), so the bound only keeps every run finite
CLASSICAL_PARITY_MAX_P = 4096


def classical_optimum_parity(p: int) -> Tuple[Fraction, Dict]:
    """Exact optimum over deterministic strategies, in closed form.

    A strategy is a pair of bits per player, y_i(x) = a_i xor (c_i and x);
    the win count depends only on (xor of a_i, the c vector), so the classes
    cover all 4^P deterministic strategies.  With f(m) = (-1)^(|m|/2) on
    even-weight inputs m and 0 on odd ones, the unnormalised Walsh-Hadamard
    transform W(c) = sum_m (-1)^(c.m) f(m) gives
    wins(c, a) = (2^(P-1) + (-1)^a W(c)) / 2 for every class at once.

    f(m) = Re(i^|m|), so the sum factorises over the players:
    W(c) = Re prod_j (1 + (-1)^(c_j) i) = Re[(1+i)^(P-k) (1-i)^k] with
    k = |c|, and 1 - i = (1+i)(-i) gives W(c) = Re[(1+i)^P (-i)^k].  W
    depends on k alone, so it is read off P + 1 rotations by -i of the
    Gaussian integer (1+i)^P, all exact.  The witness is the lowest c with
    maximal |W(c)|: the lowest c of weight k is 2^k - 1, so it is that c for
    the smallest maximising k, with a = 0 when W(c) >= 0 (the lowest class
    index 2c + a among the optima).
    """
    if p < 3:
        raise ValueError("parity game needs at least 3 players")
    if p > CLASSICAL_PARITY_MAX_P:
        raise ValueError(f"exact optimum capped at P = {CLASSICAL_PARITY_MAX_P}, got {p}")
    x, y = 1, 0  # x + iy = (1+i)^P
    for _ in range(p):
        x, y = x - y, x + y
    best_k, best_w = 0, x
    for k in range(1, p + 1):
        x, y = y, -x  # times -i: now x = W(c) for |c| = k
        if abs(x) > abs(best_w):
            best_k, best_w = k, x
    a_total = 0 if best_w >= 0 else 1
    half = 1 << (p - 1)
    wins = (half + abs(best_w)) // 2
    strategy = {"a": [a_total] + [0] * (p - 1), "c": [1] * best_k + [0] * (p - best_k)}
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
    MagicSquareGame(d)  # refuses d < 2 and odd d
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
    MagicSquareGame(d)
    base, w2 = classical_optimum_magic_square(2)
    s = d // 2
    return {
        "a_rows": [tuple(v * s for v in row) for row in w2["a_rows"]],
        "b_cols": [tuple(v * s for v in col) for col in w2["b_cols"]],
    }


def magic_square_score(d: int, a_rows, b_cols) -> Fraction:
    MagicSquareGame(d)
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
