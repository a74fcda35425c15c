"""Exact dense state-vector engine for small registers.

Ground truth for the tableau: builds stabilizer states, applies
non-stabilizer deformations, and evaluates arbitrary operator expectations.
Bounded at d^n <= 2**22 amplitudes.

One kernel applies every operator, for every d: ``_operator_blocks`` splits
w^f X^x Z^z into a factor on the first half of the sites and one on the
rest, builds each half's source offsets and Z exponents (at most
d^ceil(n/2) entries), and produces O|psi> in blocks of rows of the
(d^m, d^(n-m)) grid, each gathered through the outer sum of the two halves'
offsets and multiplied in place by its row and column roots.
``apply_operator`` copies the blocks into its output, and
``dense_expectation`` sums each block against psi as it goes, so neither
builds a full-size gather index.  ``state_from_group`` accepts a seed
basis state only if every X-free canonical row fixes it (an integer check,
so a seed outside the support costs no dense work) and builds the state on
the seed's orbit under the X rows, without a pass over the whole register.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .pauli import PauliOperator, SiteFactor
from .tableau import StabilizerGroup, _as_weyl
from .weyl import WeylOperator, w_power

MAX_AMPLITUDES = 1 << 22

AnyOperator = Union[PauliOperator, WeylOperator]


@dataclass
class DenseState:
    d: int
    n: int
    amps: np.ndarray  # complex, length d**n, unit norm

    def copy(self) -> "DenseState":
        return DenseState(self.d, self.n, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def _check_size(d: int, n: int) -> None:
    if d < 2 or n < 0:
        raise ValueError(f"no state of size {d}^{n}: the dense bound needs d >= 2 and n >= 0")
    # with d >= 2 every n above the bound's bit length exceeds it, so d**n is
    # computed only for small n
    if n > MAX_AMPLITUDES.bit_length() or d**n > MAX_AMPLITUDES:
        raise ValueError(f"state of size {d}^{n} exceeds the dense bound")


def _half_tables(d: int, xs: Sequence[int], zs: Sequence[int]):
    """Source offsets and Z exponents over one block of sites.

    Entry q (the block's sites as digits, first site most significant) holds
    the block index of q - x, digit-wise mod d, and e = z.(q - x) mod d.  One
    outer sum over the digits, last site first, builds both.
    """
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
    for r0 in range(0, rows, step):
        r1 = min(r0 + step, rows)
        block = buf[: r1 - r0]
        # every offset is in range, so "clip" only spares take a buffered copy
        state.amps.take(np.add.outer(src_hi[r0:r1], src_lo), out=block, mode="clip")
        block *= row_roots[r0:r1, None]
        block *= col_roots
        yield r0 * cols, block


def apply_operator(state: DenseState, op: AnyOperator) -> DenseState:
    """Apply w^f X^x Z^z to the state, block by block (``_operator_blocks``)."""
    out = np.empty(state.amps.size, dtype=complex)
    for start, block in _operator_blocks(state, op):
        out[start : start + block.size] = block.ravel()
    return DenseState(state.d, state.n, out)


def dense_expectation(state: DenseState, op: Union[AnyOperator, Sequence[SiteFactor]]) -> complex:
    """Exact <psi|O|psi>; accepts an operator or an ordered site-factor list.

    For one operator, each block of O|psi> is summed against the same
    amplitudes of psi as it is gathered, so no full-size vector is built."""
    if isinstance(op, (PauliOperator, WeylOperator)):
        amps = state.amps
        total = 0j
        for start, block in _operator_blocks(state, op):
            total += np.vdot(amps[start : start + block.size], block)
        return complex(total)
    cur = state
    for site, letter in op:
        cur = apply_operator(cur, PauliOperator.single(state.n, site, letter))
    return complex(np.vdot(state.amps, cur.amps))


def state_from_group(group: StabilizerGroup, seeds: Iterable[int] = None) -> DenseState:
    """The group's state, projected from a computational basis state |q0>.

    The group together with any sector fixers must single out a unique state
    (ground_space_dim == 1); otherwise whichever state the seed happens to
    project to would be an arbitrary choice and we refuse to guess.  By
    default q0 is a basis state of the state's support (``_support_seed``);
    given ``seeds`` are tried in order, each in range(d^n), and q0 is the
    first in the support.

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

    P_X|q0> is then built on the orbit of q0, never touching another
    amplitude.  An X row r = w^f X^x Z^z maps |p> to w^(f + 2 z.p) |p + x>.
    Expanding prod_i sum_{k < ord_i} r_i^k |q0> row by row, in row order,
    keeps a list of basis indices with Z_2d phase exponents: each row turns
    the list into its ord_i shifted copies, so it ends with prod_i ord_i
    entries, the product of the per-row sums of the former full-register
    projection.  That is at most d^n: each ord_i divides d, since the group
    holds no scalar but I, and at most n rows carry X.  At d = 4 a row's power can be X-free (X^2 Z, squared, is
    Z^2 up to phase), so an index can recur; the entries are added into the
    amplitudes and the result normalised once.  The global phase is that of
    the projection: every factor is positive.
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
    m = n // 2
    cols = d ** (n - m)
    # z.q mod d of every X-free row, over the two halves of q
    zero_hi, zero_lo = (0,) * m, (0,) * (n - m)
    z_rows = rows[n_x:]
    fixes_hi = np.array([_half_tables(d, zero_hi, r.z[:m])[1] for r in z_rows]).reshape(-1, d**m)
    fixes_lo = np.array([_half_tables(d, zero_lo, r.z[m:])[1] for r in z_rows]).reshape(-1, cols)
    phases = np.array([r.phase for r in z_rows], dtype=np.intp)
    for seed in seeds:
        if not 0 <= seed < d**n:
            raise ValueError(f"seed {seed} is not a basis state index in range({d**n})")
        hi, lo = divmod(seed, cols)
        if ((phases + 2 * (fixes_hi[:, hi] + fixes_lo[:, lo])) % (2 * d)).any():
            continue
        amps = _orbit_amplitudes(d, n, seed, rows[:n_x])
        nrm = np.linalg.norm(amps)
        if nrm < 1e-9:
            continue
        amps /= nrm
        return DenseState(d, n, amps)
    raise ValueError("projector annihilated every seed state tried")


def _orbit_amplitudes(d: int, n: int, q0: int, x_rows: Sequence[WeylOperator]) -> np.ndarray:
    """prod_i sum_{k < ord_i} r_i^k |q0> over the given rows, unnormalised.

    Entries are kept as the two halves of the basis index, so that each
    shift is one lookup per half in the tables ``_half_tables`` builds for
    x = -x_i: entry p holds p + x_i and z_i.(p + x_i), and
    w^(f + 2 z.p) = w^(f - 2 z.x + 2 z.(p + x)).  Phase exponents stay
    below 8d before each reduction mod 2d, so they are kept in the smallest
    integer type that holds that; the halves are joined into one index
    before the amplitudes are allocated, and the entries are added into them
    ``_BLOCK`` at a time: the orbit lists are the largest arrays besides the
    amplitudes.
    """
    orders = [_row_order(r, d) for r in x_rows]
    total = math.prod(orders)
    m = n // 2
    cols = d ** (n - m)
    hi = np.empty(total, dtype=np.intp)
    lo = np.empty(total, dtype=np.intp)
    phase = np.empty(total, dtype=np.min_scalar_type(-8 * d))
    hi[0], lo[0] = divmod(q0, cols)
    phase[0] = 0
    count = 1
    for row, order in zip(x_rows, orders):
        neg = [-a % d for a in row.x]
        to_hi, e_hi = _half_tables(d, neg[:m], row.z[:m])
        to_lo, e_lo = _half_tables(d, neg[m:], row.z[m:])
        e_hi, e_lo = (2 * e_hi).astype(phase.dtype), (2 * e_lo).astype(phase.dtype)
        shift = (row.phase - 2 * sum(a * b for a, b in zip(row.x, row.z))) % (2 * d)
        for k in range(1, order):
            src, dst = slice((k - 1) * count, k * count), slice(k * count, (k + 1) * count)
            np.add(phase[src], shift, out=phase[dst])
            phase[dst] += e_hi.take(hi[src])
            phase[dst] += e_lo.take(lo[src])
            phase[dst] %= 2 * d
            # the tables' entries are in range, so "clip" only spares a copy
            to_hi.take(hi[src], out=hi[dst], mode="clip")
            to_lo.take(lo[src], out=lo[dst], mode="clip")
        count *= order
    hi *= cols
    hi += lo  # now the whole basis index
    del lo  # before the amplitudes are allocated
    roots = np.exp(1j * np.pi * np.arange(2 * d) / d)
    amps = np.zeros(d**n, dtype=complex)
    for start in range(0, total, _BLOCK):
        part = slice(start, start + _BLOCK)
        np.add.at(amps, hi[part], roots.take(phase[part]))
    return amps


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


def _z_weights(count: Sequence[int]) -> np.ndarray:
    """sum_j count[j] * (-1)^(q_j) for every q over a block of sites, the
    first site most significant."""
    weights = np.zeros(1)
    for c in count:
        weights = np.add.outer(weights, [c, -c]).ravel()
    return weights


def deform(
    state: DenseState, family: str, theta: float, sites: Sequence[int] = None
) -> DenseState:
    """Apply exp(theta * sum_site P_site) and renormalize (P = Z or X, d=2)."""
    if state.d != 2:
        raise ValueError("deformations implemented for qubit registers only")
    if sites is None:
        sites = range(state.n)
    cur = state.amps  # neither family writes to the given state
    n = state.n
    if family.lower() in ("z", "z-field"):
        # the weight of |q> is sum_site (-1)^(q_site); it splits over the two
        # halves of the register like the operators in apply_operator
        count = [0] * n
        for j in sites:
            count[j] += 1
        m = n // 2
        weights = np.add.outer(_z_weights(count[:m]), _z_weights(count[m:])).ravel()
        cur = cur * np.exp(theta * weights)
    elif family.lower() in ("x", "x-field"):
        # exp(theta X_j) = ch + sh X_j pairs each amplitude with the one that
        # differs in site j: the middle axis of the (2^j, 2, 2^(n-1-j)) view
        ch, sh = np.cosh(theta), np.sinh(theta)
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
    if nrm < 1e-14:
        raise ValueError("deformation annihilated the state")
    return DenseState(2, n, cur / nrm)


_DUMP_DTYPES = {b"DSTV1\x00": np.complex64, b"DSTV2\x00": np.complex128}


def save_state(state: DenseState, path) -> None:
    """Binary dump: magic, d, n, then the amplitudes as complex128 (lossless).

    load_state also reads the older DSTV1 dumps, which hold complex64.
    """
    with open(path, "wb") as f:
        f.write(b"DSTV2\x00")
        f.write(np.array([state.d, state.n], dtype=np.int32).tobytes())
        f.write(state.amps.astype(np.complex128).tobytes())


def load_state(path) -> DenseState:
    with open(path, "rb") as f:
        dtype = _DUMP_DTYPES.get(f.read(6))
        if dtype is None:
            raise ValueError("not a dense-state dump")
        d, n = map(int, np.frombuffer(f.read(8), dtype=np.int32))
        _check_size(d, n)  # before d**n amplitudes are counted
        amps = np.frombuffer(f.read(), dtype=dtype).astype(complex)
    if len(amps) != d**n:
        raise ValueError("truncated dense-state dump")
    return DenseState(d, n, amps)
