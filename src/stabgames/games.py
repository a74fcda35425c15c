"""Game definitions, exact classical baselines, and quantum-strategy
evaluation: the P-player parity game, coarse-cellulation games, and the
even-dimension magic-square game.

Quantum evaluations are exact: stabilizer resources give win probabilities
as rationals, dense resources give floats from exact state vectors.  Win
credit for an input whose collective observable has expectation zero (or is
logical on a degenerate resource) is 1/2: the measured eigenvalue is then
uniformly random.  On a stabilizer group, each evaluation reads one Z4
quadratic form in the input bits (``_sign_form``), fixed by 1 + m + m(m-1)/2
group reductions for m input bits.  The parity game scores every input from
it; the cellulation game's value over all 2^m inputs is one exponential sum
of that form, exact for any m (``_exact_value``).  A dense state is scored
input by input.  In both games the sign that wins input u is i^{sum_i a_i b_i},
for the players' exponents (a_i, b_i).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from . import _Frozen, _Record

if TYPE_CHECKING:  # imported where a game needs them, so the classical games load none
    from .dense import DenseState
    from .pauli import PauliOperator
    from .cellulation import CellulationStrategy
    from .strategies import CompositeOperatorSet
    from .tableau import StabilizerGroup

Number = Union[Fraction, float]


class ParityGame(_Frozen):
    """P cooperating players; input bits have even parity, outputs must sum
    (mod 2) to half the input sum."""

    __slots__ = _fields = ("p",)

    def __init__(self, p: int):
        if p < 3:
            raise ValueError("parity game needs at least 3 players")
        object.__setattr__(self, "p", p)

    def valid_inputs(self) -> List[Tuple[int, ...]]:
        out = []
        for bits in itertools.product((0, 1), repeat=self.p):
            if sum(bits) % 2 == 0:
                out.append(bits)
        return out

    def target_sign(self, bits: Sequence[int]) -> int:
        """+1 when half the input sum is even, -1 when odd."""
        return 1 if (sum(bits) // 2) % 2 == 0 else -1


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
    if p > 20:
        raise ValueError("exact optimum capped at P = 20")
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


# -- quantum parity evaluation --------------------------------------------------------


_WINS = {1: Fraction(1), 0: Fraction(1, 2), -1: Fraction(0)}  # win for t*s


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
               exps_of: Callable[[Tuple[int, ...]], List[Tuple[int, int]]],
               m: int) -> Tuple[int, List[int], Callable[[int], int], bool]:
    """The residual r(u) and i-power rho(u) of every input u in GF(2)^m, from
    1 + m + m(m-1)/2 reductions, as (r(0), step, rho, odd_cross):
    r(u) = r(0) xor step[j] for each u_j = 1, rho(u) mod 4 for u given as a
    bitmask, and whether sum_i a_i b_i is odd at any input.

    exps_of must be affine over GF(2): each player's (a_i, b_i) is a fixed
    bit, or the parity of some bits of u.  So it is called only at 0 and at
    each e_j, and the exponents at e_j + e_k are the XOR of those three.
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
    from .pauli import _bits
    from .weyl import WeylOperator

    n = ops.n
    odd_cross = False

    def point(exps: List[Tuple[int, int]]) -> Tuple[int, int]:
        nonlocal odd_cross
        cross = sum(a * b for a, b in exps)
        odd_cross |= bool(cross & 1)
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
            # exps_of is affine, so exps(e_j + e_k) = exps(e_j) xor exps(e_k) xor exps(0)
            pair = [(a0 ^ aj ^ ak, b0 ^ bj ^ bk)
                    for (a0, b0), (aj, bj), (ak, bk) in zip(base, units[j], units[k])]
            q = (point(pair)[1] - single[j][1] - single[k][1] + c) % 4
            assert q % 2 == 0, "odd quadratic coefficient in the sign form"
            q2[j] |= (q >> 1) << k

    def rho(u: int) -> int:
        k = c
        for j in _bits(u):
            k += lin[j] + 2 * (q2[j] & u).bit_count()
        return k & 3

    return r0, step, rho, odd_cross


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
    inputs: Iterable[Tuple[int, ...]],
) -> Tuple[Dict[Tuple, Number], Number, List[Number]]:
    """Per-input wins, their mean p_q and each input's <O(u)>, for the inputs
    u in GF(2)^m, where O(u) is the product of the players' i^{ab} X^a Z^b
    with (a, b) = exps_of(u).

    The sign that wins is t(u) = i^{x(u)}, x(u) = sum_i a_i b_i, which is real
    only for even x(u) (ValueError otherwise), and the win is (1 + t<O>)/2.
    On a stabilizer group <O> is the exact sign from ``_sign_form``, the wins
    are Fractions and p_q is one Fraction of their integer total; on a dense
    state <O> is a float, input by input.
    """
    from .pauli import _bits

    exact = _is_exact(resource)
    if exact:
        r0, step, rho, _ = _sign_form(ops, resource, exps_of, m)

        def sign(bits, exps, cross):
            u = sum(b << j for j, b in enumerate(bits))
            r, k = r0, rho(u) + cross
            for j in _bits(u):
                r ^= step[j]
            return 0 if r or k & 1 else 1 - (k & 2)
    else:
        from .dense import dense_expectation

        def sign(bits, exps, cross):
            return dense_expectation(resource, _collective(ops, exps)).real
    per_input: Dict[Tuple, Number] = {}
    signs: List[Number] = []
    halves, total = 0, 0.0
    for bits in inputs:
        exps = exps_of(bits)
        cross = sum(a * b for a, b in exps)
        if cross & 1:
            raise ValueError("odd a.b parity: stabilizer commutation violated")
        s = sign(bits, exps, cross)
        ts = (1 - (cross & 2)) * s
        if exact:
            per_input[bits] = _WINS[ts]
            halves += 1 + ts
        else:
            per_input[bits] = win = (1 + ts) / 2
            total += win
        signs.append(s)
    p_q = Fraction(halves, 2 * len(signs)) if exact else total / len(signs)
    return per_input, p_q, signs


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
    from .complexes import gf2_eliminate

    r0, step, rho, odd_cross = _sign_form(ops, group, exps_of, m)
    if odd_cross:
        raise ValueError("odd a.b parity: stabilizer commutation violated")
    c = rho(0)
    rows = [s << 1 | (rho(1 << j) ^ c) & 1 for j, s in enumerate(step)]
    _, kernel, u0 = gf2_eliminate(rows, r0 << 1 | c & 1)
    total = 0
    if u0 is not None:

        def f(*ts: int) -> int:
            u = u0
            for i in ts:
                u ^= kernel[i]
            return rho(u) >> 1

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
    <XXX> - <XYY> - <YXY> - <YYX> is also reported, and p_q equals
    (1 + mermin/4) / 2 identically.
    """
    p = ops.players
    game = ParityGame(p)
    res = resource if resource is not None else ops.resource
    inputs = game.valid_inputs()
    # (a_i, b_i) = (1, u_i), so i^{sum a_i b_i} = i^{|u|} is the target sign
    per_input, p_q, signs = _score_inputs(
        ops, res, lambda bits: [(1, b) for b in bits], p, inputs)
    mermin = None
    if p == 3:  # + for XXX, - for the three XYY-type inputs
        mermin = Fraction(0)
        for bits, s in zip(inputs, signs):
            mermin += s if sum(bits) == 0 else -s
    return StrategyEvaluation(per_input, p_q, mermin, meta={"P": p})


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
        inputs = itertools.product((0, 1), repeat=bits)
        per_input, p_q, _ = _score_inputs(ops, res, exps_of, bits, inputs)
    return StrategyEvaluation(per_input, p_q, meta={"bits": bits, "restrict_unit_z": restrict_unit_z})


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


def _ms_unitaries(x_op, z_op):
    """U1 = Z^dag, U2 = X^2, U3 = X Z X for one effective ququart."""
    from .weyl import dagger, w_multiply

    return {
        1: dagger(z_op),
        2: w_multiply(x_op, x_op),
        3: w_multiply(x_op, w_multiply(z_op, x_op)),
    }


def _ms_table_entries(us1, us2):
    """The nine grid operators, entry[row][col], acting on one player's two
    effective ququarts (index 1 and 2)."""
    from .weyl import dagger, w_multiply

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


class MagicSquareReport(_Record):
    __slots__ = _fields = ("row_identities", "col_identities", "cell_constraints",
                           "commuting_rows", "commuting_cols", "p_q", "problems")

    def __init__(
        self,
        row_identities: List[Tuple[bool, int]],
        col_identities: List[Tuple[bool, int]],
        cell_constraints: Dict[Tuple[int, int], Tuple[str, Optional[int]]],
        commuting_rows: bool,
        commuting_cols: bool,
        p_q: Fraction,
        problems: List[str],
    ):
        self.row_identities = row_identities
        self.col_identities = col_identities
        self.cell_constraints = cell_constraints
        self.commuting_rows = commuting_rows
        self.commuting_cols = commuting_cols
        self.p_q = p_q
        self.problems = problems


def magic_square_eval(msops, resource: Optional[StabilizerGroup] = None) -> MagicSquareReport:
    """Verify the generalized magic-square strategy on a double-semion resource.

    Checks, in order: all operators within each row/column commute (operator
    algebra, resource-free); every row product is exactly +1 and every column
    product exactly -1 as scalar identities; and each grid cell's A-side
    operator times the adjoint of the B-side operator has definite expectation
    +1 on the resource, which is what makes the players agree on the shared
    cell.  p_q is the fraction of the nine inputs won.
    """
    from .weyl import commutation_phase, dagger, w_multiply

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
