"""Exact dense state-vector engine for small registers.

Ground truth for the tableau: builds stabilizer states by projection,
applies non-stabilizer deformations, and evaluates arbitrary operator
expectations.  Bounded at d^n <= 2**22 amplitudes.

One kernel applies every operator, for every d: ``apply_operator`` splits
w^f X^x Z^z into a factor on the first half of the sites and one on the
rest, builds each half's source offsets and Z exponents (at most
d^ceil(n/2) entries), gathers the state once through their outer sum and
applies the phases as one row and one column multiply, in place; the gather
index is its only full-size temporary.  ``state_from_group`` projects a
basis state of the state's support, found exactly from the X-free canonical
rows by back-substitution over Z_d, so the projection never vanishes.
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
    if d**n > MAX_AMPLITUDES:
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


def apply_operator(state: DenseState, op: AnyOperator) -> DenseState:
    """Apply w^f X^x Z^z to the state in one gather and two phase sweeps.

    Site 0 is the most significant digit of the amplitude index, matching
    the kron ordering used by the matrix oracles in the test suite.  Output
    amplitude q is w^(f + 2e) times input amplitude q - x, digit-wise mod d,
    with e = z.(q - x) mod d.

    The operator is A (x) B, with A on the first m = n // 2 sites and B on
    the rest.  So the source index of q is src_hi * d^(n-m) + src_lo, and
    since w^(2d) = 1, w^(2e) = w^(2 e_hi) w^(2 e_lo) needs no reduction mod
    d.  ``_half_tables`` builds each half, at most d^ceil(n/2) entries; the
    state is gathered once through the outer sum of the source offsets, and
    on the (d^m, d^(n-m)) view of the result one in-place multiply applies
    the row roots w^(f + 2 e_hi) and another the column roots w^(2 e_lo).
    """
    w = _as_weyl(op)
    if w.n != state.n or w.d != state.d:
        raise ValueError("operator register mismatch")
    d, n = state.d, state.n
    m = n // 2
    src_hi, e_hi = _half_tables(d, w.x[:m], w.z[:m])
    src_lo, e_lo = _half_tables(d, w.x[m:], w.z[m:])
    out = state.amps.take(np.add.outer(src_hi * d ** (n - m), src_lo).ravel())
    grid = out.reshape(src_hi.size, src_lo.size)
    grid *= np.exp(1j * np.pi * (w.phase + 2 * e_hi) / d)[:, None]
    grid *= np.exp(1j * np.pi * (2 * e_lo) / d)
    return DenseState(d, n, out)


def dense_expectation(state: DenseState, op: Union[AnyOperator, Sequence[SiteFactor]]) -> complex:
    """Exact <psi|O|psi>; accepts an operator or an ordered site-factor list."""
    if isinstance(op, (PauliOperator, WeylOperator)):
        applied = apply_operator(state, op)
    else:
        cur = state
        for site, letter in op:
            cur = apply_operator(cur, PauliOperator.single(state.n, site, letter))
        applied = cur
    return complex(np.vdot(state.amps, applied.amps))


def state_from_group(group: StabilizerGroup, seeds: Iterable[int] = None) -> DenseState:
    """Project a computational basis state onto the joint +1 eigenspace.

    The group together with any sector fixers must single out a unique state
    (ground_space_dim == 1); otherwise whichever state the seed happens to
    project to would be an arbitrary choice and we refuse to guess.  By
    default the seed is a basis state of the state's support
    (``_support_seed``), so the projection cannot vanish; given ``seeds`` are
    tried in order until one has a nonzero projection.
    """
    d, n = group.d, group.n
    _check_size(d, n)
    if group.ground_space_dim() != 1:
        raise ValueError(
            "group does not fix a unique state; add sector fixers "
            f"(ground-space dim {group.ground_space_dim()})"
        )
    rows = [_as_weyl(r) for r in group.rows]
    orders = [_row_order(r, d) for r in rows]
    if seeds is None:
        seeds = [_support_seed(group, rows)]
    for seed in seeds:
        amps = np.zeros(d**n, dtype=complex)
        amps[seed] = 1.0
        state = DenseState(d, n, amps)
        for row, order in zip(rows, orders):
            # acc = g|psi> + ... + g^(order-1)|psi> + |psi>, each power computed once
            power = apply_operator(state, row)
            acc = power.amps
            for _ in range(order - 2):
                power = apply_operator(power, row)
                acc += power.amps
            acc += state.amps
            nrm = np.linalg.norm(acc)
            if nrm < 1e-9:
                break
            acc /= nrm
            state = DenseState(d, n, acc)
        else:
            return state
    raise ValueError("projector annihilated every seed state tried")


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
        d, n = np.frombuffer(f.read(8), dtype=np.int32)
        amps = np.frombuffer(f.read(), dtype=dtype).astype(complex)
    if len(amps) != int(d) ** int(n):
        raise ValueError("truncated dense-state dump")
    return DenseState(int(d), int(n), amps)
