"""Exact dense state-vector engine for small registers.

Ground truth for the tableau: builds stabilizer states by projection,
applies non-stabilizer deformations, and evaluates arbitrary operator
expectations.  Bounded at d^n <= 2**22 amplitudes.
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


def apply_operator(state: DenseState, op: AnyOperator) -> DenseState:
    """Apply a (generalized) Pauli via per-site strided kernels.

    Site 0 is the most significant digit of the amplitude index, matching
    the kron ordering used by the matrix oracles in the test suite.
    """
    w = _as_weyl(op)
    if w.n != state.n or w.d != state.d:
        raise ValueError("operator register mismatch")
    d, n = state.d, state.n
    amps = state.amps.reshape((d,) * n if n else (1,))
    for j in range(n):
        a, b = w.x[j], w.z[j]
        if b:
            omega = np.exp(2j * np.pi * b / d)
            phases = omega ** np.arange(d)
            shape = [1] * n
            shape[j] = d
            amps = amps * phases.reshape(shape)
        if a:
            # X^a |q> = |q+a>: new index q' draws from q = q' - a
            amps = np.roll(amps, a, axis=j)
    flat = amps.reshape(-1) * np.exp(1j * np.pi * w.phase / d)
    return DenseState(d, n, flat)


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
    project to would be an arbitrary choice and we refuse to guess.
    """
    d, n = group.d, group.n
    _check_size(d, n)
    if group.ground_space_dim() != 1:
        raise ValueError(
            "group does not fix a unique state; add sector fixers "
            f"(ground-space dim {group.ground_space_dim()})"
        )
    size = d**n
    if seeds is None:
        seeds = range(min(size, 64))
    for seed in seeds:
        amps = np.zeros(size, dtype=complex)
        amps[seed] = 1.0
        state = DenseState(d, n, amps)
        dead = False
        for row in group.rows:
            acc = state.amps.copy()
            power = state
            order = _row_order(row, d)
            for _ in range(order - 1):
                power = apply_operator(power, row)
                acc += power.amps
            nrm = np.linalg.norm(acc)
            if nrm < 1e-9:
                dead = True
                break
            state = DenseState(d, n, acc / nrm)
        if not dead:
            return state
    raise ValueError("projector annihilated every seed state tried")


def _row_order(op: AnyOperator, d: int) -> int:
    """Smallest k >= 1 with op^k = I.  P^m0 is a scalar w^phi exactly when m0
    is a multiple of d / gcd(d, exponents), and w^phi has order 2d / gcd(2d, phi)."""
    w = _as_weyl(op)
    m0 = d // math.gcd(d, *w.x, *w.z)
    phi = w_power(w, m0).phase
    return m0 * (2 * d // math.gcd(2 * d, phi))


def deform(
    state: DenseState, family: str, theta: float, sites: Sequence[int] = None
) -> DenseState:
    """Apply exp(theta * sum_site P_site) and renormalize (P = Z or X, d=2)."""
    if state.d != 2:
        raise ValueError("deformations implemented for qubit registers only")
    if sites is None:
        sites = range(state.n)
    cur = state.amps.copy()
    n = state.n
    if family.lower() in ("z", "z-field"):
        weights = np.zeros(1 << n)
        for j in sites:
            bit = (np.arange(1 << n) >> (n - 1 - j)) & 1
            weights += 1.0 - 2.0 * bit
        cur = cur * np.exp(theta * weights)
    elif family.lower() in ("x", "x-field"):
        ch, sh = np.cosh(theta), np.sinh(theta)
        work = DenseState(2, n, cur)
        for j in sites:
            flipped = apply_operator(work, PauliOperator.single(n, j, "X"))
            work = DenseState(2, n, ch * work.amps + sh * flipped.amps)
        cur = work.amps
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
