"""Exact quantum scoring of the parity and coarse-cellulation games.

Both games are scored over all 2^m inputs u of an affine input map
(``InputMap``): each player's (a_i, b_i) is a fixed bit or the parity of
some input bits, read from one pair of masks per player.  The cellulation
game's inputs are its basis bits; the parity game's even inputs are their
first P - 1 bits with the parity of those appended.  The sign that wins
input u is i^{sum_i a_i b_i}.

Quantum evaluations are exact: stabilizer resources give win probabilities
as rationals, dense resources give floats from exact state vectors.  Win
credit for an input whose collective observable has expectation zero (or is
logical on a degenerate resource) is 1/2: the measured eigenvalue is then
uniformly random.  That the sign i^{sum_i a_i b_i} is real at every input
is read once from the input map (``_check_real_sign``).  Each point walks
the players once (``_collective``).  On a stabilizer group both games fit
one sign form (``_reached_form``): the group reductions at u = 0 and at
each unit input give, by one GF(2) solve, the affine set A = u0 + span K of
the inputs where O(u) is +-1 times a group element, and reductions at u0,
u0 + K_i and u0 + K_i + K_k give the GF(2) quadratic f on span K with sign
(-1)^f there.  The parity game reads every input's outcome from one table
indexed by u, 0 off A and filled by one walk over A (``_outcome_table``);
the cellulation game's value over all 2^m inputs is one exponential sum of
f, exact for any m (``_exact_value``).  A dense state is scored input by
input.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import reduce
from operator import xor
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

from . import _Record
from .complexes import _transpose, gf2_eliminate
from .games import Number, ParityGame, StrategyEvaluation
from .pauli import PauliOperator, _bits
from .tableau import StabilizerGroup
from .weyl import WeylOperator

if TYPE_CHECKING:  # the dense module is imported where it is used, so a stabilizer resource loads no numpy
    from .dense import DenseState
    from .cellulation import CellulationStrategy
    from .strategies import CompositeOperatorSet

# One (a, b) pair of masks per player over the bits of u | 1 << m: bit m - 1 - k
# of u is input bit k, so u is the input's index in itertools.product order; bit
# m is the constant bit; a_i(u) is the parity of a & (u | 1 << m), b_i(u) likewise
InputMap = List[Tuple[int, int]]


# -- quantum parity evaluation --------------------------------------------------------


def _collective(ops: CompositeOperatorSet, amap: InputMap, u: int, m: int,
                ) -> Tuple[PauliOperator, int]:
    """(O(u), x(u)) in one pass over the players: O(u) = prod_i i^{a_i b_i}
    X_i^{a_i} Z_i^{b_i} in player order (the last player's factor applied
    first), and x(u) = sum_i a_i b_i.  Each (a_i, b_i) is read from the
    player's masks in amap with two popcounts."""
    v = u | 1 << m
    px = pz = ph = x = 0
    for i, (am, bm) in enumerate(amap):
        a, b = (am & v).bit_count() & 1, (bm & v).bit_count() & 1
        if a or b:
            op = ops.player_op(i, a, b)
            ph += op.phase + 2 * (pz & op.x).bit_count()
            px ^= op.x
            pz ^= op.z
            x += a & b
    return PauliOperator(ops.n, px, pz, ph), x


def _check_real_sign(amap: InputMap, m: int) -> None:
    """ValueError unless x(u) = sum_i a_i b_i is even at every input u, so
    that the winning sign i^{x(u)} is real.

    With v = u | 1 << m and the masks read as GF(2) vectors, x = v^T M v
    mod 2 for M = sum_i a_i b_i^T, that is sum_j M_jj v_j + sum_{j<k}
    (M_jk + M_kj) v_j v_k.  At v_m = 1 this vanishes for every u exactly
    when M_mm = 0 and, for each j < m, M_jj + M_jm + M_mj = 0 and M_jk +
    M_kj = 0 for every other k < m: row j of M + M^T is M_jj at bit m.
    """
    rows = [0] * (m + 1)  # row j of M: the XOR of the b masks whose a mask holds bit j
    for a, b in amap:
        for j in _bits(a):
            rows[j] ^= b
    cols = _transpose(rows, m + 1)
    if rows[m] >> m & 1 or any(r ^ c != (r >> j & 1) << m
                               for j, (r, c) in enumerate(zip(rows[:m], cols))):
        raise ValueError("odd a.b parity: stabilizer commutation violated")


def _reached_form(ops: CompositeOperatorSet, group: StabilizerGroup, amap: InputMap, m: int,
                  ) -> Optional[Tuple[int, List[int], int, int, List[int]]]:
    """The inputs u with t(u)<O(u)> != 0, and its sign on them, as (u0,
    kernel, f0, alpha, adj), or None when there are none: they are A =
    u0 + span(kernel), and t<O> = (-1)^{f(t)} at u = u0 + sum_i t_i
    kernel[i], for the GF(2) quadratic f of ``_quadratic_sign_sum``'s
    (f0, alpha, adj).  ValueError if x(u) = sum_i a_i b_i is odd at some
    input (``_check_real_sign``).

    Write O(u) = i^{x(u)} M(u), M(u) = prod_i X_i^{a_i} Z_i^{b_i}, and let
    reduce(M(u)) = M(u) g(u) with residual vector r(u) and i-power rho(u).

    - r(u) is affine in u: the x|z vector of M(u) is an XOR of the players'
      vectors, and the group element g(u) that clears the pivot bits is
      unique, so its vector depends linearly on that of M(u).
    - rho(u) mod 4 is a polynomial of degree <= 2 in the bits of u with
      even quadratic coefficients (Dehaene & De Moor, quant-ph/0304125).
      Every phase term is an integer phase times one exponent, or twice a
      GF(2) product of two exponents: the factors' own phases, the
      2|z.x'| of each product, and the same for the rows of g(u), whose
      exponents on the rows are affine in u too.  Read as an integer, an
      exponent that is the XOR of the bits u_j with j in S is sum_S u_j -
      2 sum_{j<k in S} u_j u_k (mod 4), and twice a GF(2) product only
      depends on it mod 2.
    - If r(u) = 0, M(u) = i^rho g(u) with g(u) in the group, and with x(u)
      even, t<O> = i^{rho(u)}: +-1 for even rho(u), 0 for odd.  If r(u) !=
      0, O(u) anticommutes with some stabilizer (an anticommuting operator
      never reduces to 0) or it is logical: the outcome is uniformly random
      and t<O> = 0.  So A holds the inputs with r(u) = 0 and rho(u) even.
    - r(u) and rho(u) mod 2 are affine, so the 1 + m reductions at u = 0
      and at each 1 << j fix them, and A solves one GF(2) linear system
      (``gf2_eliminate``): the changes of r with those of rho mod 2
      appended, against r(0) with rho(0) mod 2 appended.  A is empty or
      u0 + span(K).
    - On u = u0 + K t, rho is again a Z4 polynomial of degree <= 2 in t,
      and all its values are even, so are its coefficients.  So f(t) =
      rho/2 mod 2 is a GF(2) quadratic, fixed by the reductions at u0,
      u0 + K_i and u0 + K_i + K_k, each reused when it is 0 or a unit
      input.  A point there that reduces off A contradicts the above:
      ValueError.

    When A is all of GF(2)^m, u0 = 0 and K holds the unit vectors, so the
    form takes 1 + m + m(m-1)/2 reductions; an A of dimension k < m takes
    at most 2 + m + k(k+1)/2, so never more than one extra.
    """
    _check_real_sign(amap, m)
    n = ops.n

    def point(u: int) -> Tuple[int, int]:
        op, x = _collective(ops, amap, u, m)
        r = group.reduce(op)
        if isinstance(r, WeylOperator):
            r = r.to_pauli()
        return r.x | r.z << n, r.phase - x

    # (r(u), rho(u)) at the 1 + m affine points; the points read on A are not
    # kept, since each pair point would hold one residual of 2n bits
    affine = {u: point(u) for u in [0] + [1 << j for j in range(m)]}
    r0, c = affine[0]
    steps = (affine[1 << j] for j in range(m))
    _, kernel, u0 = gf2_eliminate([(r ^ r0) << 1 | (rho - c) & 1 for r, rho in steps],
                                  r0 << 1 | c & 1)
    if u0 is None:
        return None

    def f(*ts: int) -> int:
        u = u0
        for i in ts:
            u ^= kernel[i]
        r, rho = affine[u] if u in affine else point(u)
        if r or rho & 1:
            raise ValueError("a point of the reached set reduces off it")
        return rho >> 1 & 1

    f0 = f()
    single = [f(i) for i in range(len(kernel))]
    alpha = sum((fi ^ f0) << i for i, fi in enumerate(single))
    adj = [0] * len(kernel)
    for i in range(len(kernel)):
        for k in range(i):
            if f(i, k) ^ single[i] ^ single[k] ^ f0:
                adj[i] |= 1 << k
                adj[k] |= 1 << i
    return u0, kernel, f0, alpha, adj


def _outcome_table(ops: CompositeOperatorSet, group: StabilizerGroup, amap: InputMap,
                   m: int) -> List[int]:
    """t(u)<O(u)>, which is 1, 0 or -1, for every input u in GF(2)^m,
    indexed by u (itertools.product order).

    Every entry is 0 but those of A = u0 + span(kernel) (``_reached_form``),
    which is walked once: the list of its points doubles once per kernel
    row i, each new point its partner t with t_i set, and f(t + e_i) =
    f(t) + alpha_i + |adj[i] & t| mod 2, one popcount, since t has no bit
    at or above i.  The entry at u = u0 + K t is (-1)^{f(t)}.
    """
    table = [0] * (1 << m)
    form = _reached_form(ops, group, amap, m)
    if form is not None:
        u0, kernel, f0, alpha, adj = form
        us, fs = [u0], [f0]
        for i, (k, ai) in enumerate(zip(kernel, adj)):
            a = alpha >> i & 1
            us += [u ^ k for u in us]
            fs += [f ^ a ^ (ai & t).bit_count() & 1 for t, f in enumerate(fs)]
        for u, f in zip(us, fs):
            table[u] = 1 - 2 * f
    return table


def _is_exact(resource: Union[StabilizerGroup, DenseState]) -> bool:
    """True for a stabilizer group, scored exactly, and False for a dense
    state, scored in floats; TypeError for any other resource.  The dense
    module, and with it numpy, is imported only when the resource is no
    stabilizer group."""
    if isinstance(resource, StabilizerGroup):
        return True
    from .dense import DenseState

    if isinstance(resource, DenseState):
        return False
    raise TypeError(
        f"resource must be a StabilizerGroup or a DenseState, got {type(resource).__name__}"
    )


def _score_inputs(
    ops: CompositeOperatorSet,
    resource: Union[StabilizerGroup, DenseState],
    amap: InputMap,
    m: int,
) -> Tuple[List[Number], Number, Number]:
    """The wins of all 2^m inputs u in GF(2)^m, in the order of u (that is
    itertools.product order), their mean p_q and sum_u t(u)<O(u)>, where
    O(u) is the product of the players' i^{ab} X^a Z^b with (a, b) read
    from amap at u.

    The sign that wins is t(u) = i^{x(u)}, x(u) = sum_i a_i b_i, which is real
    only for even x(u) (``_check_real_sign``, ValueError otherwise), and the
    win is (1 + t<O>)/2.
    On a stabilizer group every win is read from ``_outcome_table``: the
    wins are three shared Fractions, and p_q and the sum are Fractions of
    counts of its entries.  On a dense state <O> is a float, input by input.
    """
    if _is_exact(resource):
        table = _outcome_table(ops, resource, amap, m)
        win_of = (Fraction(1, 2), Fraction(1), Fraction(0))  # at t<O> = 0, 1, -1
        total = sum(table)
        return [win_of[ts] for ts in table], Fraction((1 << m) + total, 2 << m), Fraction(total)
    from .dense import dense_expectation

    _check_real_sign(amap, m)
    wins: List[Number] = []
    win_total = total = 0.0
    for u in range(1 << m):
        op, x = _collective(ops, amap, u, m)
        ts = (1 - (x & 2)) * dense_expectation(resource, op).real
        wins.append((1 + ts) / 2)
        win_total += wins[-1]
        total += ts
    return wins, win_total / len(wins), total


def _quadratic_sign_sum(f0: int, alpha: int, adj: List[int]) -> int:
    """S = sum over t in GF(2)^n of (-1)^{f(t)}, f(t) = f0 + sum_i alpha_i t_i
    + sum_{i<k} beta_ik t_i t_k, with alpha a bitset over i and adj[i] the
    bitset of the k with beta_ik = 1 (symmetric, zero diagonal).

    The variables are summed out one or two at a time:
    - a variable j with no edge appears only as alpha_j t_j, and its sum is
      2 for alpha_j = 0 and 0 for alpha_j = 1;
    - for an edge j-k, collect every term with t_j or t_k as
      t_j t_k + t_j A + t_k B, with A = alpha_j + sum_{v != k} beta_jv t_v
      and B likewise; then sum_{t_j, t_k} (-1)^{...} = 2 (-1)^{AB}, since the
      sum over t_j is 2 [t_k = A].  Expanding AB, with N_j and N_k the
      remaining neighbours of j and k, adds alpha_j alpha_k to f0,
      alpha_j N_k + alpha_k N_j + (N_j and N_k) to alpha (t_v^2 = t_v) and
      N_j N_k^T + N_k N_j^T to the edges (zero on the diagonal mod 2).
    So S is 0 or +-2^r, r the number of variables and pairs summed out.
    """
    adj = list(adj)
    alive = (1 << len(adj)) - 1
    power = 0
    for j in range(len(adj)):
        if not alive >> j & 1:
            continue
        alive ^= 1 << j
        nj = adj[j] & alive
        if not nj:
            if alpha >> j & 1:
                return 0
            power += 1
            continue
        k = (nj & -nj).bit_length() - 1  # the pair j-k
        alive ^= 1 << k
        nj ^= 1 << k
        nk = adj[k] & alive
        aj, ak = alpha >> j & 1, alpha >> k & 1
        f0 ^= aj & ak
        alpha ^= (nk if aj else 0) ^ (nj if ak else 0) ^ (nj & nk)
        for v in _bits(nj):
            adj[v] ^= nk
        for v in _bits(nk):
            adj[v] ^= nj
        power += 1
    return (1 - 2 * (f0 & 1)) << power


def _exact_value(
    ops: CompositeOperatorSet,
    group: StabilizerGroup,
    amap: InputMap,
    m: int,
) -> Fraction:
    """p_q over all 2^m inputs u, exact, from one exponential sum.

    The win at u is (1 + t(u)<O(u)>) / 2, and t<O> is (-1)^{f(t)} on the
    inputs u0 + K t of A and 0 off it (``_reached_form``), so p_q =
    (2^m + S) / 2^{m+1} with S = sum_t (-1)^{f(t)} (``_quadratic_sign_sum``),
    and S = 0 when A is empty.  ValueError if x(u) = sum_i a_i b_i is odd
    (``_check_real_sign``).
    """
    form = _reached_form(ops, group, amap, m)
    total = 0 if form is None else _quadratic_sign_sum(*form[2:])
    return Fraction((1 << m) + total, 1 << (m + 1))


def parity_input_map(p: int) -> Tuple[InputMap, int]:
    """The P-player parity game's input map and its m = P - 1 free bits.

    An even input is its first P - 1 bits with their parity appended, so
    (a_i, b_i) = (1, input bit i) is affine in those bits, and the target
    sign is i^{sum a_i b_i} = i^{|input|}; u in order is valid_inputs()' order.
    """
    m = p - 1
    return [(1 << m, 1 << (m - 1 - i)) for i in range(m)] + [(1 << m, (1 << m) - 1)], m


def quantum_parity_eval(
    ops: CompositeOperatorSet,
    resource: Optional[Union[StabilizerGroup, DenseState]] = None,
) -> StrategyEvaluation:
    """Evaluate the measurement strategy on every valid input.

    Player i measures X_i on input 0 and Y_i = i X_i Z_i on input 1, so
    (a_i, b_i) = (1, u_i); the collective operator's expectation fixes the
    win probability per input.  For P = 3 the Mermin combination
    <XXX> - <XYY> - <YXY> - <YYX> is also reported: it is sum_u t(u)<O(u)>,
    as t = +1 on XXX and -1 on the XYY-type inputs, so p_q equals
    (1 + mermin/4) / 2 identically.
    """
    p = ops.players
    game = ParityGame(p)
    res = resource if resource is not None else ops.resource
    wins, p_q, ts_total = _score_inputs(ops, res, *parity_input_map(p))
    mermin = ts_total if p == 3 else None
    return StrategyEvaluation(dict(zip(game.valid_inputs(), wins)), p_q, mermin, meta={"P": p})


# -- cellulation game -------------------------------------------------------------------


class CellulationGame(_Record):
    """Inputs are bits on independent coarse boundary/coboundary generators;
    each player measures i^{ab} X^a Z^b with incidence-derived exponents.
    x_basis (independent coarse (p+1)-cells) and z_basis (independent coarse
    (p-1)-cells) are computed from the strategy."""

    _fields = ("strategy", "x_basis", "z_basis")
    __slots__ = (*_fields, "_map")

    def __init__(self, strategy: CellulationStrategy):
        self.strategy = strat = strategy
        coarse, p = strat.coarse, strat.p
        self.x_basis = gf2_eliminate(coarse.boundary_rows(p + 1))[0]
        self.z_basis = gf2_eliminate(coarse.coboundary_rows(p - 1))[0]
        # the x_basis bits come first, so they are the high bits of u; a is the
        # parity of the bits on a player's incident (p+1)-cells, b on its
        # (p-1)-cells, and XOR cancels a cell incident twice
        nz = len(self.z_basis)
        x_bit = {cell: 1 << (nz + len(self.x_basis) - 1 - k) for k, cell in enumerate(self.x_basis)}
        z_bit = {cell: 1 << (nz - 1 - k) for k, cell in enumerate(self.z_basis)}
        self._map: InputMap = [
            (reduce(xor, [x_bit.get(f, 0) for f in strat.face_incidence(c)], 0),
             reduce(xor, [z_bit.get(v, 0) for v in strat.vertex_incidence(c)], 0))
            for c in range(strat.players)
        ]

    def input_map(self, restrict_unit_z: bool = False) -> Tuple[InputMap, int]:
        """(map, m): every player's masks over the m input bits, the
        x_basis bits first, then the z_basis bits.  With restrict_unit_z
        every b is 1 and only the x_basis bits are inputs."""
        nx, nz = len(self.x_basis), len(self.z_basis)
        if restrict_unit_z:
            return [(a >> nz, 1 << nx) for a, _ in self._map], nx
        return self._map, nx + nz


def cellulation_game_eval(
    game: CellulationGame,
    resource: Optional[Union[StabilizerGroup, DenseState]] = None,
    restrict_unit_z: bool = False,
) -> StrategyEvaluation:
    """Win probability over every input of the game.

    On a stabilizer group p_q is the exact Fraction from one exponential sum
    (``_exact_value``), for any number of input bits, and per_input is
    empty; a dense state is scored input by input.  With restrict_unit_z the
    Z exponent of every player is pinned to 1 and only the X-side bits are
    inputs, which reduces the game to the parity game on suitable
    cellulations.
    """
    ops = game.strategy.ops
    res = resource if resource is not None else ops.resource
    amap, bits = game.input_map(restrict_unit_z)
    if _is_exact(res):
        per_input, p_q = {}, _exact_value(ops, res, amap, bits)
    else:
        wins, p_q, _ = _score_inputs(ops, res, amap, bits)
        per_input = dict(zip(itertools.product((0, 1), repeat=bits), wins))
    return StrategyEvaluation(per_input, p_q, meta={"bits": bits, "restrict_unit_z": restrict_unit_z})
