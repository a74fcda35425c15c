"""Exact dense oracle for small registers, bounded at d^n <= 2**22 basis states.

Ground truth for the tableau.  A stabilizer state has one magnitude on its
support and a phase in Z_2d on each basis state there (Dehaene & De Moor,
quant-ph/0304125; Hostens, Dehaene & De Moor, quant-ph/0408190).  Basis
index q has site 0 as its most significant digit, and w = exp(i*pi/d).
``dense_expectation`` and ``exact_expectation`` count, over every basis
state of the support, the overlaps c_e of psi with O psi at each phase
difference e in Z_2d.  <O> = sum_e c_e w^e / N, N the size of the support,
and ``exact_expectation`` decides it from c in integers, reduced modulo the
cyclotomic polynomial Phi_2d.

For d > 2, ``state_from_group`` keeps the whole register as 2d bitsets in
Python ints, its phase planes: bit q of plane k is set when amplitude q is
w^k / sqrt(N).  An operator w^f X^x Z^z moves |q> in plane k to |q + x> in
plane k + f + 2 z.q: the planes are split by the classes z.q mod d and
shifted digit by digit, with masks cached per register (``_mask``), and
the counts come from the moved planes (``_plane_counts``).

For qubits the support is the coset q0 + span of the canonical X rows, so
a state is held in that coset's coordinates: u in GF(2)^r, one coordinate
per X row, stands for q0 + sum_l u_l x_l, and two bitsets of 2^r bits hold
the phase bits of every u (``_coordinate_state``).  A query reads its u
off its x at the X rows' pivot sites; an x outside the span gives all-zero
counts, and otherwise the phase bits are translated by u in coordinate
space and subtracted with one borrow, so four popcounts give c
(``_coordinate_counts``).  No register-wide bitset is built; the planes are
built on the seed's orbit only when read.  None of this loads numpy.

numpy is imported only where floats are needed: ``DenseState.amps`` (built
from the planes when first read), ``deform``, ``apply_operator``, and the
expectations on states without planes, such as deformed ones.  On those
float states one kernel applies every operator (``_operator_blocks``): it
splits w^f X^x Z^z into a factor on each half of the sites and produces
O|psi> in blocks, so no full-size gather index is built.
"""

from __future__ import annotations

import cmath
import math
import operator
from numbers import Integral
from typing import Iterable, Sequence, Union

from . import _Record
from .pauli import PauliOperator, SiteFactor, ordered_product
from .tableau import Expectation, StabilizerGroup, _as_weyl
from .weyl import WeylOperator, w_power

MAX_AMPLITUDES = 1 << 22

AnyOperator = Union[PauliOperator, WeylOperator]


class DenseState(_Record):
    """State vector of n qudits of dimension d: amps is complex, of length
    d**n and unit norm.

    A state from ``state_from_group`` is exact: it holds its support size in
    ``support`` and builds amps from its phase planes when amps is first
    read.  For d > 2 it holds the planes; a qubit state holds its coset
    coordinates (``_coordinate_state``) and builds its planes on first read
    (``_orbit_state``).  Any other state has support and planes None."""

    __slots__ = ("d", "n", "support", "_planes", "_coords", "_amps")
    _fields = ("d", "n", "amps")

    def __init__(self, d: int, n: int, amps):
        self.d = d
        self.n = n
        self.support = self._planes = self._coords = None
        self._amps = amps

    def __eq__(self, other):
        # exact states compare their planes, with no numpy; any other pair
        # compares amplitudes, which elementwise == cannot decide alone
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.support is not None and other.support is not None:
            return (self.d, self.n, self.planes, self.support) == (other.d, other.n, other.planes, other.support)
        import numpy as np

        return self.d == other.d and self.n == other.n and np.array_equal(self.amps, other.amps)

    @property
    def planes(self):
        if self._planes is None and self._coords is not None:
            q0, x_rows = self._coords[:2]
            self._planes = _orbit_state(2, self.n, q0, x_rows)._planes
        return self._planes

    @property
    def amps(self):
        if self._amps is None:
            self._amps = _amplitudes(self.d, self.n, self.planes)
        return self._amps

    def norm(self) -> float:
        import numpy as np

        return float(np.linalg.norm(self.amps))


def _amplitudes(d: int, n: int, planes: Sequence[int]):
    """The unit vector with amplitude w^k on the bits of plane k."""
    import numpy as np

    size = d**n
    amps = np.zeros(size, dtype=complex)
    roots = np.exp(1j * np.pi * np.arange(2 * d) / d)
    for k, plane in enumerate(planes):
        if plane:
            raw = np.frombuffer(plane.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
            amps[np.unpackbits(raw, count=size, bitorder="little").view(bool)] = roots[k]
    amps /= np.linalg.norm(amps)
    return amps


def _check_size(d: int, n: int) -> None:
    if d < 2 or n < 0:
        raise ValueError(f"no state of size {d}^{n}: the dense bound needs d >= 2 and n >= 0")
    # with d >= 2 every n above the bound's bit length exceeds it, so d**n is
    # computed only for small n
    if n > MAX_AMPLITUDES.bit_length() or d**n > MAX_AMPLITUDES:
        raise ValueError(f"state of size {d}^{n} exceeds the dense bound")


# ---------------------------------------------------------------------------
# Exact states: phase planes over the register, qubit coset coordinates
# ---------------------------------------------------------------------------

_MASKS: dict = {}


def _mask(d: int, n: int, j: int, lo: int, hi: int) -> int:
    """Bitset of the basis indices whose digit j is in range(lo, hi).

    Digit j has stride s = d^(n-1-j), so the pattern is a run of (hi - lo) s
    ones every d s bits, doubled until it covers the register; cached.  With
    d = 2 and n = r it also masks qubit coset coordinate r - 1 - j."""
    key = (d, n, j, lo, hi)
    mask = _MASKS.get(key)
    if mask is None:
        s, size = d ** (n - 1 - j), d**n
        mask, period = ((1 << (hi - lo) * s) - 1) << lo * s, d * s
        while period < size:
            mask |= mask << period
            period *= 2
        mask = _MASKS[key] = mask & ((1 << size) - 1)
    return mask


def _odd_class(n: int, z: Sequence[int]) -> int:
    """Bitset of the qubit basis indices q with z.q odd: the sum of the
    sites' digit-1 masks."""
    odd = 0
    for j, b in enumerate(z):
        if b:
            odd ^= _mask(2, n, j, 1, 2)
    return odd


def _classes(d: int, n: int, z: Sequence[int]) -> list:
    """The bitsets C_c of the basis indices q with z.q = c mod d, for c < d."""
    if d == 2:
        odd = _odd_class(n, z)
        return [odd ^ ((1 << (1 << n)) - 1), odd]
    classes = [(1 << d**n) - 1] + [0] * (d - 1)
    for j, b in enumerate(z):
        if b:
            split = [0] * d
            for v in range(d):
                digit = _mask(d, n, j, v, v + 1)
                for c, part in enumerate(classes):
                    if part:
                        split[(c + b * v) % d] |= part & digit
            classes = split
    return classes


def _act(d: int, n: int, planes: Sequence[int], w: WeylOperator, classes: Sequence[int]) -> list:
    """The planes of w^f X^x Z^z psi, given the classes of z: |q> in plane k
    goes to |q + x>, digit-wise mod d, in plane k + f + 2 z.q."""
    m = 2 * d
    out = [0] * m
    for k, plane in enumerate(planes):
        if plane:
            for c, part in enumerate(classes):
                if part:
                    out[(k + w.phase + 2 * c) % m] |= plane & part
    for j, a in enumerate(w.x):
        if a:
            s = d ** (n - 1 - j)
            low = _mask(d, n, j, 0, d - a)  # digits that do not wrap
            for k, plane in enumerate(out):
                if plane:
                    kept = plane & low
                    out[k] = kept << a * s | (plane ^ kept) >> (d - a) * s
    return out


def _counts(state: DenseState, op: AnyOperator) -> list:
    """c_e = #{q : psi_q != 0 and (O psi)_q / psi_q = w^e} for e in Z_2d,
    over the whole support, so <psi|O|psi> = sum_e c_e w^e / N."""
    pauli = isinstance(op, PauliOperator)
    if (op.n, 2 if pauli else op.d) != (state.n, state.d):
        raise ValueError("operator register mismatch")
    if state._coords is not None:
        p = op if pauli else op.to_pauli()
        return _coordinate_counts(state._coords, p.x, p.z, p.phase)
    return _plane_counts(state.d, state.n, state.planes, _as_weyl(op))


def _plane_counts(d: int, n: int, planes: Sequence[int], w: WeylOperator) -> list:
    """``_counts`` for every d, from the planes of O psi (``_act``); the
    reference for ``_coordinate_counts``."""
    moved = _act(d, n, planes, w, _classes(d, n, w.z))
    counts = []
    for e in range(2 * d):
        both = 0
        for k, plane in enumerate(planes):
            if plane:
                # the planes are disjoint, so one popcount per e
                both |= plane & moved[(k + e) % (2 * d)]
        counts.append(both.bit_count())
    return counts


def _coordinate_class(z: int, xs: Sequence[int]) -> int:
    """Bitset of the coordinates u < 2^len(xs) with sum_m u_m z.x_m odd, by
    doubling: coordinate m's block is the blocks below it, complemented when
    z.x_m is odd."""
    odd = 0
    for m, x in enumerate(xs):
        size = 1 << m
        odd |= (odd ^ ((1 << size) - 1) if (z & x).bit_count() & 1 else odd) << size
    return odd


def _coordinate_counts(coords: tuple, x: int, z: int, f: int) -> list:
    """``_counts`` for a qubit state in coset coordinates (``_coordinate_state``)
    and O = i^f X^x Z^z, x and z packed with bit j at site j.

    O takes the phase k(q) of psi_q to k(q) + f + 2 z.q at q ^ x.  The rows'
    x_l are independent, each the only one with a 1 at its pivot site, so x
    is in their span only as sum_l u_l x_l with u_l = x at row l's pivot
    site; any other x moves the support off itself, and every count is 0.
    Otherwise q(v) ^ x = q(v ^ u), so at coordinate v the phase difference
    is k(v ^ u) - k(v) + 2 z.q(v) + f + 2 z.x mod 4, where z.q(v) = z.q0 +
    sum_l v_l z.x_l.  The phase bits B0, B1 are translated by u, one
    mask-and-shift per set bit of u, and subtracted from themselves with one
    borrow; the class sum_l v_l z.x_l is built by doubling over the
    coordinates, and the constant z.q0 + z.x joins f in relabelling the four
    popcounts."""
    _, _, q0s, sites, xs, b0, b1 = coords
    u = span = 0
    for l, j in enumerate(sites):
        if x >> j & 1:
            u |= 1 << l
            span ^= xs[l]
    if span != x:
        return [0, 0, 0, 0]
    r = len(xs)
    t0, t1 = b0, b1
    for m in range(r):
        if u >> m & 1:
            s, high = 1 << m, _mask(2, r, r - 1 - m, 1, 2)
            h0, h1 = t0 & high, t1 & high
            t0 = h0 >> s | (t0 ^ h0) << s
            t1 = h1 >> s | (t1 ^ h1) << s
    d0 = t0 ^ b0
    d1 = t1 ^ b1 ^ (b0 & ~t0) ^ _coordinate_class(z, xs)
    c3 = (d0 & d1).bit_count()
    c1, c2 = d0.bit_count() - c3, d1.bit_count() - c3
    shift = f + 2 * ((x & z).bit_count() + (z & q0s).bit_count())
    counts = [0] * 4
    for e, c in enumerate(((1 << r) - c1 - c2 - c3, c1, c2, c3)):
        counts[(e + shift) % 4] = c
    return counts


_CYCLOTOMIC: dict = {}


def _divmod_poly(a: Sequence[int], b: Sequence[int]):
    """Quotient and remainder of integer polynomials, lowest coefficient
    first; b is monic."""
    rem, deg = list(a), len(b) - 1
    quot = [0] * max(0, len(rem) - deg)
    for i in reversed(range(len(quot))):
        quot[i] = c = rem[i + deg]
        if c:
            for t, bt in enumerate(b):
                rem[i + t] -= c * bt
    return quot, rem[:deg]


def _cyclotomic(m: int) -> list:
    """Coefficients of the m-th cyclotomic polynomial, lowest first:
    x^m - 1 divided by every Phi_k with k a proper divisor of m."""
    phi = _CYCLOTOMIC.get(m)
    if phi is None:
        phi = [-1] + [0] * (m - 1) + [1]
        for k in range(1, m):
            if m % k == 0:
                phi = _divmod_poly(phi, _cyclotomic(k))[0]
        _CYCLOTOMIC[m] = phi
    return phi


def _reduced(counts: Sequence[int], d: int) -> list:
    """sum_e c_e w^e as r_j, the coefficients of w^j for j < deg Phi_2d: the
    count polynomial modulo Phi_2d, the minimal polynomial of w.  So
    sum_e c_e w^e = 0 exactly when r = 0; for d = 2 and 4, r_j = c_j - c_(j+d)."""
    return _divmod_poly(counts, _cyclotomic(2 * d))[1]


def exact_expectation(state: DenseState, op: AnyOperator) -> Expectation:
    """<psi|O|psi> on a state from ``state_from_group``, decided in integers.

    Definite with phase k when every basis state of the support overlaps at
    the one phase difference k (c_k = N: since sum_e c_e <= N, the only way
    for |sum_e c_e w^e| to reach N), Zero when the counts' sum over the
    powers of w vanishes (``_reduced``); anything else is no expectation of
    a Weyl operator on a stabilizer state, and raises ValueError."""
    if state.support is None:
        raise ValueError("exact expectations need the phase planes of a state_from_group state")
    counts = _counts(state, op)
    hits = [e for e, c in enumerate(counts) if c]
    if len(hits) == 1 and counts[hits[0]] == state.support:
        return Expectation("definite", state.d, hits[0])
    if not any(_reduced(counts, state.d)):
        return Expectation("zero", state.d)
    raise ValueError(
        f"overlap counts {counts} on a support of {state.support}: neither 0 nor a root of unity"
    )


# ---------------------------------------------------------------------------
# Float states: one block kernel
# ---------------------------------------------------------------------------


def _half_tables(d: int, xs: Sequence[int], zs: Sequence[int]):
    """Source offsets and Z exponents over one block of sites.

    Entry q (the block's sites as digits, first site most significant) holds
    the block index of q - x, digit-wise mod d, and e = z.(q - x) mod d.  One
    outer sum over the digits, last site first, builds both.
    """
    import numpy as np

    digits = np.arange(d)
    src = np.zeros(1, dtype=np.intp)
    e = np.zeros(1, dtype=np.intp)
    stride = 1
    for a, b in zip(reversed(xs), reversed(zs)):
        shifted = (digits - a) % d
        src = (shifted[:, None] * stride + src).ravel()
        e = ((shifted * b)[:, None] + e).ravel() % d
        stride *= d
    return src, e


# Amplitudes per gathered block of O|psi>.  A fixed constant: blocks of 2**17
# measured slower, because every fresh block pays its page faults.
_BLOCK = 1 << 14


def _operator_blocks(state: DenseState, op: AnyOperator):
    """O|psi> for O = w^f X^x Z^z, yielded block by block as (start, block).

    Site 0 is the most significant digit of the amplitude index, matching
    the kron ordering used by the matrix oracles in the test suite.  Output
    amplitude q is w^(f + 2e) times input amplitude q - x, digit-wise mod d,
    with e = z.(q - x) mod d.

    The operator is A (x) B, with A on the first m = n // 2 sites and B on
    the rest.  So the source index of q is src_hi * d^(n-m) + src_lo, and
    since w^(2d) = 1, w^(2e) = w^(2 e_hi) w^(2 e_lo) needs no reduction mod
    d.  ``_half_tables`` builds each half, at most d^ceil(n/2) entries.  On
    the (d^m, d^(n-m)) grid, each block of rows, ``_BLOCK`` amplitudes or one
    row, is gathered through the outer sum of its rows' and all columns'
    source offsets, and one in-place multiply applies the row roots
    w^(f + 2 e_hi) and another the column roots w^(2 e_lo).  A block holds
    amplitudes start .. start + block.size - 1 of O|psi>, in one buffer that
    the next block reuses.
    """
    import numpy as np

    w = _as_weyl(op)
    if w.n != state.n or w.d != state.d:
        raise ValueError("operator register mismatch")
    d, n = state.d, state.n
    m = n // 2
    src_hi, e_hi = _half_tables(d, w.x[:m], w.z[:m])
    src_lo, e_lo = _half_tables(d, w.x[m:], w.z[m:])
    rows, cols = src_hi.size, src_lo.size
    src_hi *= cols
    row_roots = np.exp(1j * np.pi * (w.phase + 2 * e_hi) / d)
    col_roots = np.exp(1j * np.pi * (2 * e_lo) / d)
    step = min(rows, max(1, _BLOCK // cols))
    buf = np.empty((step, cols), dtype=complex)
    amps = state.amps
    for r0 in range(0, rows, step):
        r1 = min(r0 + step, rows)
        block = buf[: r1 - r0]
        # every offset is in range, so "clip" only spares take a buffered copy
        amps.take(np.add.outer(src_hi[r0:r1], src_lo), out=block, mode="clip")
        block *= row_roots[r0:r1, None]
        block *= col_roots
        yield r0 * cols, block


def apply_operator(state: DenseState, op: AnyOperator) -> DenseState:
    """Apply w^f X^x Z^z to the state, block by block (``_operator_blocks``)."""
    import numpy as np

    out = np.empty(state.amps.size, dtype=complex)
    for start, block in _operator_blocks(state, op):
        out[start : start + block.size] = block.ravel()
    return DenseState(state.d, state.n, out)


def dense_expectation(state: DenseState, op: Union[AnyOperator, Sequence[SiteFactor]]) -> complex:
    """<psi|O|psi>, summed over the whole register; accepts an operator or an
    ordered site-factor list, taken as their ``ordered_product``.

    An exact state, from ``state_from_group``, gives sum_j r_j w^j / N from
    the reduced overlap counts (``_reduced``), so a vanishing expectation is exactly 0.
    On a float state each block of O|psi> is summed against the same
    amplitudes of psi as it is gathered, so no full-size vector is built."""
    if not isinstance(op, (PauliOperator, WeylOperator)):
        op = ordered_product(op, state.n)
    if state.support is not None:
        total = 0j
        for j, r in enumerate(_reduced(_counts(state, op), state.d)):
            if r:
                total += r * cmath.exp(1j * cmath.pi * j / state.d)
        return total / state.support
    import numpy as np

    amps = state.amps
    total = 0j
    for start, block in _operator_blocks(state, op):
        total += np.vdot(amps[start : start + block.size], block)
    return complex(total)


# ---------------------------------------------------------------------------
# States of stabilizer groups
# ---------------------------------------------------------------------------


def state_from_group(group: StabilizerGroup, seeds: Iterable[int] = None) -> DenseState:
    """The group's state, projected from a computational basis state |q0>.

    The group together with any sector fixers must single out a unique state
    (ground_space_dim == 1); otherwise whichever state the seed happens to
    project to would be an arbitrary choice and we refuse to guess.  By
    default q0 is a basis state of the state's support (``_support_seed``);
    given ``seeds`` are tried in order, each an integer (not a bool) in
    range(d^n), and q0 is the first in the support.

    The canonical rows with pivot column >= n carry no X; call their product
    of per-row sums P_Z, and that of the other (X) rows P_X.  Each per-row sum
    sum_{k < ord} r^k is ord times the projector onto r's +1 eigenspace, and
    the group is abelian, so the product of every row's sum, in any order, is
    a positive multiple of the projector P onto the state, and P|q0> =
    P_X P_Z |q0> up to a positive factor.  A row w^f Z^z fixes |q0> iff
    f + 2 z.q0 = 0 mod 2d, and then its sum multiplies |q0> by its order;
    otherwise it annihilates |q0>.  So P_Z|q0> is a positive multiple of |q0>
    when every X-free row fixes q0, which is exactly when q0 is in the
    support, and 0 otherwise: a seed is accepted or rejected by that integer
    check alone.

    P_X|q0> is then the orbit of q0 under the X rows, in row order, with q0
    at phase 0: on qubits (d = 2, whatever the generators' type) in the
    orbit's own coordinates (``_coordinate_state``), for any other d as
    phase planes (``_orbit_state``).
    """
    d, n = group.d, group.n
    _check_size(d, n)
    if group.ground_space_dim() != 1:
        raise ValueError(
            "group does not fix a unique state; add sector fixers "
            f"(ground-space dim {group.ground_space_dim()})"
        )
    rows = [_as_weyl(r) for r in group.rows]
    n_x = sum(1 for col, _ in group.pivots if col < n)
    if seeds is None:
        seeds = [_support_seed(group, rows)]
    size = d**n
    for seed in seeds:
        try:
            q0 = -1 if isinstance(seed, bool) else operator.index(seed)
        except TypeError:
            q0 = -1
        if not 0 <= q0 < size:
            raise ValueError(f"seed {seed!r} is not a basis state index in range({size})")
        digits, q = [0] * n, q0
        for j in reversed(range(n)):
            q, digits[j] = divmod(q, d)
        # every X-free row w^f Z^z fixes |q0>: f + 2 z.q0 = 0 mod 2d
        if not any((r.phase + 2 * sum(map(operator.mul, r.z, digits))) % (2 * d)
                   for r in rows[n_x:]):
            if d == 2:
                return _coordinate_state(n, q0, digits, rows[:n_x], [c for c, _ in group.pivots[:n_x]])
            return _orbit_state(d, n, q0, rows[:n_x])
    raise ValueError("projector annihilated every seed state tried")


def _coordinate_state(n: int, q0: int, digits: Sequence[int], x_rows: Sequence[WeylOperator],
                      sites: Sequence[int]) -> DenseState:
    """The qubit state prod_l (1 + r_l) |q0> of the X rows r_l = i^f X^x Z^z,
    in coordinates u in GF(2)^r: u stands for q(u) = q0 + sum_l u_l x_l.

    Row l's pivot site must be the one site where x_l has a 1 and no other
    row has (the canonical rows are fully reduced); otherwise ValueError.
    The phase k(u) in Z_4 is held as two bitsets B0, B1 over u, with k(0) =
    0.  Row l doubles them: for u < 2^l, k(u + 2^l) = k(u) + f + 2 z.q(u),
    so block [2^l, 2^(l+1)) is block [0, 2^l) plus g = f + 2 z.q0 and twice
    the class sum_{m<l} u_m z.x_m, built by doubling too.  Adding g's low bit
    flips B0 and carries B0 into B1.  The r x_l are independent, so every u
    is a distinct basis state, reached once: the support has 2^r states.

    The state holds (q0, x_rows, q0 and the rows' x packed with bit j at
    site j, the pivot sites, B0, B1); its planes are built from q0 and the
    rows when first read."""
    q0s = sum(b << j for j, b in enumerate(digits))
    packed = [(sum(b << j for j, b in enumerate(r.x)), sum(b << j for j, b in enumerate(r.z)), r.phase)
              for r in x_rows]
    xs = [x for x, _, _ in packed]
    pivmask = sum(1 << j for j in sites)
    for j, x in zip(sites, xs):
        if x & pivmask != 1 << j:
            raise ValueError("the X rows are not fully reduced at their pivot sites")
    b0 = b1 = 0
    for l, (x, z, f) in enumerate(packed):
        g = f + 2 * (z & q0s).bit_count()
        size = 1 << l
        hi0, hi1 = b0, b1 ^ _coordinate_class(z, xs[:l])
        if g & 1:
            hi0 ^= (1 << size) - 1
            hi1 ^= b0
        if g & 2:
            hi1 ^= (1 << size) - 1
        b0 |= hi0 << size
        b1 |= hi1 << size
    state = DenseState(2, n, None)
    state._coords = (q0, tuple(x_rows), q0s, tuple(sites), tuple(xs), b0, b1)
    state.support = 1 << len(xs)
    return state


def _orbit_state(d: int, n: int, q0: int, x_rows: Sequence[WeylOperator]) -> DenseState:
    """The planes of prod_i sum_{k < ord_i} r_i^k |q0>, each index once.

    Each row r = w^f X^x Z^z of order ord adds r^k of the planes so far for
    k < ord (``_act``).  Two products of row powers that reach the same
    index differ by an X-free element of the group, which fixes every state
    of the support, so they reach it with the same phase, and every index of
    the orbit is reached equally often: the planes hold the normalised
    projection, with q0 in plane 0 (every factor is positive).  An index
    reached with two phases raises ValueError."""
    planes = [0] * (2 * d)
    planes[0] = 1 << q0
    for row in x_rows:
        classes = _classes(d, n, row.z)
        power = planes
        for _ in range(_row_order(row, d) - 1):
            power = _act(d, n, power, row, classes)
            support = 0
            for plane in planes:
                support |= plane
            for k, plane in enumerate(power):
                if plane & (support ^ planes[k]):
                    raise ValueError("the orbit reaches a basis state with two phases")
            planes = [a | b for a, b in zip(planes, power)]
    state = DenseState(d, n, None)
    state._planes = tuple(planes)
    state.support = sum(plane.bit_count() for plane in planes)
    return state


def _support_seed(group: StabilizerGroup, rows: Sequence[WeylOperator]) -> int:
    """Index of one computational basis state in the support of the group's
    state.

    The canonical rows with pivot column >= n carry no X and generate every
    X-free element of the group, so the support is exactly the set of |q>
    they fix (Dehaene & De Moor, quant-ph/0304125; Hostens, Dehaene & De Moor,
    quant-ph/0408190, for qudits): w^f Z^z fixes |q> iff z.q = -f/2 mod d.
    The rows are in echelon form, so the equations are solved by
    back-substitution from the last pivot, with every free digit 0.
    """
    d, n = group.d, group.n
    q = [0] * n
    for (col, pval), row in reversed(list(zip(group.pivots, rows))):
        if col < n:
            break
        j = col - n
        rest = sum(a * b for a, b in zip(row.z[j + 1 :], q[j + 1 :]))
        q[j] = (-(row.phase // 2) - rest) % d // pval
    return sum(digit * d ** (n - 1 - j) for j, digit in enumerate(q))


def _row_order(op: AnyOperator, d: int) -> int:
    """Smallest k >= 1 with op^k = I.  P^m0 is a scalar w^phi exactly when m0
    is a multiple of d / gcd(d, exponents), and w^phi has order 2d / gcd(2d, phi)."""
    w = _as_weyl(op)
    m0 = d // math.gcd(d, *w.x, *w.z)
    phi = w_power(w, m0).phase
    return m0 * (2 * d // math.gcd(2 * d, phi))


# ---------------------------------------------------------------------------
# Deformations (floats)
# ---------------------------------------------------------------------------


def _z_weights(count: Sequence[int]):
    """sum_j count[j] * (-1)^(q_j) for every q over a block of sites, the
    first site most significant."""
    import numpy as np

    weights = np.zeros(1)
    for c in count:
        weights = np.add.outer(weights, [c, -c]).ravel()
    return weights


def deform(
    state: DenseState, family: str, theta: float, sites: Sequence[int] = None
) -> DenseState:
    """Apply exp(theta * sum_site P_site) and renormalize (P = Z or X, d=2);
    a site may repeat, and each must be an integer (not a bool) in range(n).

    Each family is applied up to a positive factor that keeps every
    amplitude at most the largest input amplitude, so no theta overflows:
    the Z field multiplies by exp(theta * (weight - top)), with top the
    largest theta * weight on the support, and the X field takes cosh and
    sinh times exp(-|theta|).  A norm that is not finite is refused."""
    import numpy as np

    if state.d != 2:
        raise ValueError("deformations implemented for qubit registers only")
    if not math.isfinite(theta):
        raise ValueError(f"deformation angle must be finite, got {theta!r}")
    n = state.n
    sites = range(n) if sites is None else list(sites)
    for j in sites:
        if isinstance(j, bool) or not isinstance(j, Integral):
            raise ValueError(f"site {j!r} is not an integer")
        if not 0 <= j < n:
            raise ValueError(f"site {j} outside register of size {n}")
    cur = state.amps  # neither family writes to the given state
    if family.lower() in ("z", "z-field"):
        # the weight of |q> is sum_site (-1)^(q_site); it splits over the two
        # halves of the register like the operators in apply_operator
        count = [0] * n
        for j in sites:
            count[j] += 1
        m = n // 2
        expo = theta * np.add.outer(_z_weights(count[:m]), _z_weights(count[m:])).ravel()
        expo -= np.max(expo, where=cur != 0, initial=-np.inf)
        cur = cur * np.exp(np.minimum(expo, 0, out=expo))  # <= 0 off the support too
    elif family.lower() in ("x", "x-field"):
        # exp(theta X_j) = ch + sh X_j pairs each amplitude with the one that
        # differs in site j: the middle axis of the (2^j, 2, 2^(n-1-j)) view;
        # times exp(-|theta|), ch = 1 - t/2 and |sh| = t/2, t = 1 - exp(-2|theta|)
        t = -math.expm1(-2 * abs(theta))
        ch, sh = 1 - t / 2, math.copysign(t / 2, theta)
        cur = cur.copy()
        for j in sites:
            pair = cur.reshape(1 << j, 2, -1)
            a0, a1 = pair[:, 0], pair[:, 1]
            new0 = ch * a0 + sh * a1
            a1 *= ch
            a1 += sh * a0
            a0[...] = new0
    else:
        raise ValueError(f"unknown deformation family {family!r}")
    nrm = np.linalg.norm(cur)
    if not math.isfinite(nrm):
        raise ValueError(f"deformation gave a state of norm {nrm}")
    if nrm < 1e-14:
        raise ValueError("deformation annihilated the state")
    return DenseState(2, n, cur / nrm)
