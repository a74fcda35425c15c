"""Exact quantum scoring of the parity and coarse-cellulation games.

Both games are scored over all 2^m inputs t of an affine exponent map: each
player's (a_i, b_i) is a fixed bit or the parity of some bits of t.  The
cellulation game's inputs are its basis bits; the parity game's even inputs
are their first P - 1 bits with the parity of those appended.  The sign that
wins input t is i^{sum_i a_i b_i}.

Quantum evaluations are exact: stabilizer resources give win probabilities
as rationals, dense resources give floats from exact state vectors.  Win
credit for an input whose collective observable has expectation zero (or is
logical on a degenerate resource) is 1/2: the measured eigenvalue is then
uniformly random.  On a stabilizer group, each evaluation reads one Z4
quadratic form in the input bits (``_sign_form``), fixed by 1 + m + m(m-1)/2
group reductions.  The parity game reads every input's outcome from one
table of that form in itertools.product order, filled in one pass over the
2^m inputs with one XOR and one popcount per entry (``_outcome_table``); the
cellulation game's value over all 2^m inputs is one exponential sum of the
form, exact for any m (``_exact_value``).  A dense state is scored input by
input.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple, Union

from . import _Record
from .games import Number, ParityGame, StrategyEvaluation

if TYPE_CHECKING:  # imported where they are used, so a stabilizer resource loads no dense module
    from .dense import DenseState
    from .pauli import PauliOperator
    from .cellulation import CellulationStrategy
    from .strategies import CompositeOperatorSet
    from .tableau import StabilizerGroup


# -- quantum parity evaluation --------------------------------------------------------


def _cross(exps: Sequence[Tuple[int, int]]) -> int:
    """x = sum_i a_i b_i of the players' exponents (a_i, b_i), which must be
    even, so that the winning sign i^x is real (ValueError otherwise)."""
    x = sum(a * b for a, b in exps)
    if x & 1:
        raise ValueError("odd a.b parity: stabilizer commutation violated")
    return x


def _collective(ops: CompositeOperatorSet, exps: Sequence[Tuple[int, int]]) -> PauliOperator:
    """O = prod_i i^{a_i b_i} X_i^{a_i} Z_i^{b_i} in player order (the last
    player's factor applied first), for (a_i, b_i) in exps."""
    from .pauli import PauliOperator

    x = z = ph = 0
    for i, (a, b) in enumerate(exps):
        if a or b:
            op = ops.player_op(i, a, b)
            ph += op.phase + 2 * (z & op.x).bit_count()
            x ^= op.x
            z ^= op.z
    return PauliOperator(ops.n, x, z, ph)


def _sign_form(ops: CompositeOperatorSet, group: StabilizerGroup,
               exps_of: Callable[[Tuple[int, ...]], List[Tuple[int, int]]], m: int,
               ) -> Tuple[int, List[int], int, List[int], List[int]]:
    """The residual r(u) and i-power rho(u) of every input u in GF(2)^m, from
    1 + m + m(m-1)/2 reductions, as (r(0), step, c, lin, q2):
    r(u) = r(0) xor step[j] for each u_j = 1 and rho(u) = c + sum_j lin[j]
    u_j + 2 sum_{k<j} (bit k of q2[j]) u_j u_k mod 4 (``_form_rho``).
    ValueError (``_cross``) if sum_i a_i b_i is odd at any input.

    exps_of is affine: each player's (a_i, b_i) is a fixed bit, or the
    parity of some bits of u.  So the exponents at e_j + e_k are the XOR of
    those at 0, e_j and e_k.
    Write O(u) = i^{sum_i a_i b_i} M(u), M(u) = prod_i X_i^{a_i} Z_i^{b_i},
    and let reduce(M(u)) = M(u) g(u) with residual vector r(u) and i-power
    rho(u).

    - r(u) is affine in u: the x|z vector of M(u) is an XOR of the players'
      vectors, and the group element g(u) that clears the pivot bits is
      unique, so its vector depends linearly on that of M(u).
    - rho(u) mod 4 is a polynomial of degree <= 2 in the bits of u (Dehaene
      & De Moor, quant-ph/0304125).  Every phase term is an integer phase
      times one exponent, or twice a GF(2) product of two exponents: the
      factors' own phases, the 2|z.x'| of each product, and the same for
      the rows of g(u), whose exponents on the rows are affine in u too.
      Read as an integer, an exponent that is the XOR of the bits u_j with
      j in S is sum_S u_j - 2 sum_{j<k in S} u_j u_k (mod 4), and twice a
      GF(2) product only depends on it mod 2, so no term has degree > 2,
      and every quadratic coefficient is even.
    - Such a polynomial is fixed by its values at 0, at each e_j and at each
      e_j + e_k: rho(u) = c + sum_j l_j u_j + sum_{j<k} q_jk u_j u_k with
      c = rho(0), l_j = rho(e_j) - c, q_jk = rho(e_j + e_k) - rho(e_j) -
      rho(e_k) + c, and r(u) = r(0) + sum_j u_j (r(e_j) + r(0)).
    - If r(u) = 0, M(u) = i^rho g(u) with g(u) in the group, so <O(u)> =
      i^k, k = rho(u) + sum_i a_i b_i: +1 or -1 for k = 0 or 2 mod 4 and 0
      for odd k.
    - If r(u) != 0, O(u) is not a phase times a group element: it
      anticommutes with some stabilizer (an anticommuting operator never
      reduces to 0) or it is logical.  Either way the outcome is uniformly
      random and <O(u)> = 0.
    - sum_i a_i b_i mod 2 is a GF(2) quadratic in u too, so it is even at
      every input when it is even at the points read here.
    """
    from .weyl import WeylOperator

    n = ops.n

    def point(exps: List[Tuple[int, int]]) -> Tuple[int, int]:
        cross = _cross(exps)
        r = group.reduce(_collective(ops, exps))
        if isinstance(r, WeylOperator):
            r = r.to_pauli()
        return r.x | r.z << n, r.phase - cross

    base = exps_of((0,) * m)
    units = [exps_of(tuple(int(k == j) for k in range(m))) for j in range(m)]
    r0, c = point(base)
    single = [point(exps) for exps in units]
    step = [r ^ r0 for r, _ in single]  # change of the residual when u_j flips
    lin = [rho - c for _, rho in single]
    q2 = [0] * m  # q_jk / 2 mod 2 for k < j, as a bitset over k
    for j in range(m):
        for k in range(j):
            pair = [(a0 ^ aj ^ ak, b0 ^ bj ^ bk)
                    for (a0, b0), (aj, bj), (ak, bk) in zip(base, units[j], units[k])]
            q = (point(pair)[1] - single[j][1] - single[k][1] + c) % 4
            assert q % 2 == 0, "odd quadratic coefficient in the sign form"
            q2[j] |= (q >> 1) << k
    return r0, step, c, lin, q2


def _form_rho(c: int, lin: List[int], q2: List[int], u: int) -> int:
    """rho(u) mod 4 of ``_sign_form``'s (c, lin, q2), for u given as a bitmask."""
    from .pauli import _bits

    k = c
    for j in _bits(u):
        k += lin[j] + 2 * (q2[j] & u).bit_count()
    return k & 3


def _reached(r0: int, step: List[int], c: int, lin: List[int]) -> Tuple[List[int], Optional[int]]:
    """(kernel, u0) of ``gf2_eliminate`` on the rows (step_j, lin_j mod 2)
    against (r0, c mod 2): the inputs u with r(u) = 0 and rho(u) even are
    u0 + span(kernel), and none when u0 is None."""
    from .complexes import gf2_eliminate

    _, kernel, u0 = gf2_eliminate([s << 1 | lj & 1 for s, lj in zip(step, lin)], r0 << 1 | c & 1)
    return kernel, u0


def _outcome_table(ops: CompositeOperatorSet, group: StabilizerGroup,
                   exps_of: Callable[[Tuple[int, ...]], List[Tuple[int, int]]],
                   m: int) -> List[int]:
    """t(u)<O(u)>, which is 1, 0 or -1, for every input u in GF(2)^m, indexed
    by u's bits read as a binary number with bits[0] the most significant
    (itertools.product order).

    One pass over the 2^m indices, from ``_sign_form``'s (r0, step, c, lin,
    q2); the table doubles once per input bit, and each new entry is its
    partner's with that bit flipped:
    - r(u) = 0 with rho(u) even is one affine GF(2) condition, the rows
      (step_j, lin_j mod 2) against (r0, c mod 2).  Over the independent
      rows (``_reached``) every row and the target have coordinates
      of at most m + 1 bits, and so has D(u), their XOR over u's rows and
      the target: D(u) = 0 exactly when the condition holds.
    - D is one int per entry, so flipping a bit is one XOR, and rho adds
      lin_j + 2 |q_j & v| for the partner's index v, one popcount; q_j holds
      the index bits of the j-k pairs with q_jk != 0.
    - When D(u) = 0, <O(u)> = i^{rho + x} with x = sum_i a_i b_i even, so
      t<O> = i^{rho + 2x} = i^rho = +-1; otherwise <O(u)> = 0.
    """
    r0, step, c, lin, q2 = _sign_form(ops, group, exps_of, m)
    kernel, d0 = _reached(r0, step, c, lin)
    coord = [1 << j for j in range(m)]  # a kept row is its own coordinate
    for comb in kernel:  # a dependent row j: the kept rows of its combination
        j = comb.bit_length() - 1
        coord[j] = comb ^ 1 << j
    if d0 is None:  # no input reaches the target
        d0 = 1 << m
    table, rho = [d0], [c & 3]
    for bit in range(m):  # index bit `bit` is input bit j
        j = m - 1 - bit
        flip, lj = coord[j], lin[j]
        # the partners k > j of j sit on the lower index bits m - 1 - k
        q = sum((q2[m - 1 - low_bit] >> j & 1) << low_bit for low_bit in range(bit))
        table += [d ^ flip for d in table]
        rho += [(r + lj + 2 * (q & v).bit_count()) & 3 for v, r in enumerate(rho)]
    return [0 if d else 1 - (r & 2) for d, r in zip(table, rho)]


def _is_exact(resource: Union[StabilizerGroup, DenseState]) -> bool:
    """True for a stabilizer group, scored exactly, and False for a dense
    state, scored in floats; TypeError for any other resource.  The dense
    module, and with it numpy, is imported only when the resource is no
    stabilizer group."""
    from .tableau import StabilizerGroup

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
    exps_of: Callable[[Tuple[int, ...]], List[Tuple[int, int]]],
    m: int,
) -> Tuple[List[Number], Number, Number]:
    """The wins of all 2^m inputs u in GF(2)^m, in itertools.product order,
    their mean p_q and sum_u t(u)<O(u)>, where O(u) is the product of the
    players' i^{ab} X^a Z^b with (a, b) = exps_of(u).

    The sign that wins is t(u) = i^{x(u)}, x(u) = sum_i a_i b_i, which is real
    only for even x(u) (ValueError otherwise), and the win is (1 + t<O>)/2.
    On a stabilizer group every win is read from ``_outcome_table``: the
    wins are three shared Fractions, and p_q and the sum are Fractions of
    counts of its entries.  On a dense state <O> is a float, input by input.
    """
    if _is_exact(resource):
        table = _outcome_table(ops, resource, exps_of, m)
        win_of = (Fraction(1, 2), Fraction(1), Fraction(0))  # at t<O> = 0, 1, -1
        total = table.count(1) - table.count(-1)
        return [win_of[ts] for ts in table], Fraction((1 << m) + total, 2 << m), Fraction(total)
    from .dense import dense_expectation

    wins: List[Number] = []
    win_total = total = 0.0
    for bits in itertools.product((0, 1), repeat=m):
        exps = exps_of(bits)
        cross = _cross(exps)
        ts = (1 - (cross & 2)) * dense_expectation(resource, _collective(ops, exps)).real
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
    from .pauli import _bits

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
    exps_of: Callable[[Tuple[int, ...]], List[Tuple[int, int]]],
    m: int,
) -> Fraction:
    """p_q over all 2^m inputs u, exact, from one exponential sum.

    The sign that wins is t(u) = i^{x(u)}, x(u) = sum_i a_i b_i, and x(u)
    must be even (ValueError otherwise; ``_sign_form`` checks it).
    - If r(u) = 0, <O(u)> = i^{rho(u) + x(u)} and i^{2x} = 1, so t<O> =
      i^{rho(u)}: the win is (1 + [r(u) = 0] Re i^{rho(u)}) / 2, and
      p_q = (2^m + S) / 2^{m+1}, S = sum_{u in A} (-1)^{rho(u)/2}, where A
      holds the inputs with r(u) = 0 and rho(u) even.
    - Every q_jk is even, so rho mod 2 = c + sum_j l_j u_j is affine, and A
      solves one GF(2) linear system: the step vectors with l_j mod 2
      appended, XORed to r(0) with c mod 2 appended.  A is empty or
      u0 + span(K).
    - On u = u0 + K t, rho is again a Z4 polynomial of degree <= 2 in t (an
      XOR read as an integer is quadratic), and all its values are even, so
      are its coefficients (read at 0, e_i and e_i + e_k).  So
      f(t) = rho/2 mod 2 is a GF(2) quadratic polynomial, fixed by its values
      at those points, and S = sum_t (-1)^{f(t)} (``_quadratic_sign_sum``).
    """
    r0, step, c, lin, q2 = _sign_form(ops, group, exps_of, m)
    kernel, u0 = _reached(r0, step, c, lin)
    total = 0
    if u0 is not None:

        def f(*ts: int) -> int:
            u = u0
            for i in ts:
                u ^= kernel[i]
            return _form_rho(c, lin, q2, u) >> 1

        f0 = f()
        single = [f(i) for i in range(len(kernel))]
        alpha = sum((fi ^ f0) << i for i, fi in enumerate(single))
        adj = [0] * len(kernel)
        for i in range(len(kernel)):
            for k in range(i):
                if f(i, k) ^ single[i] ^ single[k] ^ f0:
                    adj[i] |= 1 << k
                    adj[k] |= 1 << i
        total = _quadratic_sign_sum(f0, alpha, adj)
    return Fraction((1 << m) + total, 1 << (m + 1))


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
    # an even input is its first P - 1 bits t with their parity appended, so
    # (a_i, b_i) = (1, u_i) is affine in t, and the target sign is
    # i^{sum a_i b_i} = i^{|u|}; t in product order is valid_inputs()' order
    wins, p_q, ts_total = _score_inputs(
        ops, res, lambda t: [(1, b) for b in t] + [(1, sum(t) & 1)], p - 1)
    mermin = ts_total if p == 3 else None
    return StrategyEvaluation(dict(zip(game.valid_inputs(), wins)), p_q, mermin, meta={"P": p})


# -- cellulation game -------------------------------------------------------------------


class CellulationGame(_Record):
    """Inputs are bits on independent coarse boundary/coboundary generators;
    each player measures i^{ab} X^a Z^b with incidence-derived exponents.
    x_basis (independent coarse (p+1)-cells) and z_basis (independent coarse
    (p-1)-cells) are computed from the strategy."""

    _fields = ("strategy", "x_basis", "z_basis")
    __slots__ = (*_fields, "_a_bits", "_b_bits")

    def __init__(self, strategy: CellulationStrategy):
        from .complexes import _transpose, gf2_eliminate

        self.strategy = strat = strategy
        chain, p = strat.coarse.to_chain(), strat.p
        self.x_basis = gf2_eliminate(chain.boundary[p + 1])[0]
        # row v of the transposed boundary: the p-cells whose boundary holds v
        self.z_basis = gf2_eliminate(_transpose(chain.boundary[p], chain.dims[p - 1]))[0]
        # per player, the input bits on its incident basis cells: a is their
        # parity on the (p+1)-cells, b on the (p-1)-cells
        nx = len(self.x_basis)
        x_pos = {cell: k for k, cell in enumerate(self.x_basis)}
        z_pos = {cell: nx + k for k, cell in enumerate(self.z_basis)}
        players = range(strat.players)
        self._a_bits = [[x_pos[f] for f in strat.face_incidence(c) if f in x_pos] for c in players]
        self._b_bits = [[z_pos[v] for v in strat.vertex_incidence(c) if v in z_pos] for c in players]

    def exponents(self, bits: Sequence[int], restrict_unit_z: bool = False) -> List[Tuple[int, int]]:
        """Each player's (a, b) for the input bits: the x_basis bits come
        first, then the z_basis bits; with restrict_unit_z every b is 1 and
        only the x_basis bits are given."""
        return [
            (sum(bits[k] for k in ak) % 2, 1 if restrict_unit_z else sum(bits[k] for k in bk) % 2)
            for ak, bk in zip(self._a_bits, self._b_bits)
        ]


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
    bits = len(game.x_basis) + (0 if restrict_unit_z else len(game.z_basis))

    def exps_of(u: Tuple[int, ...]) -> List[Tuple[int, int]]:
        return game.exponents(u, restrict_unit_z)

    if _is_exact(res):
        per_input, p_q = {}, _exact_value(ops, res, exps_of, bits)
    else:
        wins, p_q, _ = _score_inputs(ops, res, exps_of, bits)
        per_input = dict(zip(itertools.product((0, 1), repeat=bits), wins))
    return StrategyEvaluation(per_input, p_q, meta={"bits": bits, "restrict_unit_z": restrict_unit_z})
