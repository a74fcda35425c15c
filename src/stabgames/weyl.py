"""Generalized Pauli (shift/phase) algebra for dimension-d qudits.

Canonical form is

    w^phase * prod_j X_j^{x_j} Z_j^{z_j},   w = exp(i*pi/d),

with exponents in Z_d and the global phase tracked in Z_{2d}.  The phase
group is Z_{2d} rather than Z_d because daggers and reorderings of
X^a Z^b factors close only over half-angle phases when d is even.  The
commutation rule is Z X = omega X Z with omega = w^2 = exp(2*pi*i/d);
at d=2 this embeds the qubit algebra exactly (w = i).

Operators built from per-site X^a Z^b factors (the double-semion
generators and strings) come from `ordered_w_product`, which accumulates
the exponents and the reordering phase in one pass; `w_power` is the
closed-form power and `dagger` its m = -1 case.

Everything is exact integer arithmetic; no floating point.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from . import _Frozen
from .pauli import PauliOperator

# One qudit factor for ordered products: (site, x exponent, z exponent).
QuditFactor = Tuple[int, int, int]

_set = object.__setattr__


class WeylOperator(_Frozen):
    """w^phase * prod X^x Z^z with exponents mod d and phase mod 2d."""

    __slots__ = _fields = ("d", "n", "x", "z", "phase")

    def __init__(self, d: int, n: int, x: Sequence[int], z: Sequence[int], phase: int):
        if d < 2:
            raise ValueError("qudit dimension must be >= 2")
        if len(x) != n or len(z) != n:
            raise ValueError("exponent vectors must have length n")
        _set(self, "d", d)
        _set(self, "n", n)
        _set(self, "x", tuple([v % d for v in x]))
        _set(self, "z", tuple([v % d for v in z]))
        _set(self, "phase", phase % (2 * d))

    @staticmethod
    def identity(d: int, n: int) -> "WeylOperator":
        return WeylOperator(d, n, (0,) * n, (0,) * n, 0)

    @staticmethod
    def single(d: int, n: int, site: int, x_exp: int, z_exp: int, phase: int = 0) -> "WeylOperator":
        if not 0 <= site < n:
            raise ValueError(f"site {site} outside register of size {n}")
        xs = [0] * n
        zs = [0] * n
        xs[site] = x_exp
        zs[site] = z_exp
        return WeylOperator(d, n, tuple(xs), tuple(zs), phase)

    @staticmethod
    def from_pauli(p: PauliOperator) -> "WeylOperator":
        xs = tuple((p.x >> j) & 1 for j in range(p.n))
        zs = tuple((p.z >> j) & 1 for j in range(p.n))
        return WeylOperator(2, p.n, xs, zs, p.phase)

    def to_pauli(self) -> PauliOperator:
        if self.d != 2:
            raise ValueError("only d=2 operators convert to PauliOperator")
        x = sum(b << j for j, b in enumerate(self.x))
        z = sum(b << j for j, b in enumerate(self.z))
        return PauliOperator(self.n, x, z, self.phase)

    def is_identity(self) -> bool:
        return self.phase == 0 and not any(self.x) and not any(self.z)

    def is_scalar(self) -> bool:
        return not any(self.x) and not any(self.z)

    def support(self) -> List[int]:
        return [j for j in range(self.n) if self.x[j] or self.z[j]]

    def __mul__(self, other: "WeylOperator") -> "WeylOperator":
        return w_multiply(self, other)

    def scale_w(self, k: int) -> "WeylOperator":
        """Multiply by w^k = exp(i*pi*k/d)."""
        return WeylOperator(self.d, self.n, self.x, self.z, self.phase + k)

    def to_text(self) -> str:
        parts = [f"w^{self.phase}"]
        for j in range(self.n):
            if self.x[j]:
                parts.append(f"X{j}^{self.x[j]}")
            if self.z[j]:
                parts.append(f"Z{j}^{self.z[j]}")
        return " ".join(parts)


def w_multiply(p: WeylOperator, q: WeylOperator) -> WeylOperator:
    """Canonical form of the matrix product p*q (q applied first)."""
    if p.d != q.d or p.n != q.n:
        raise ValueError("dimension/register mismatch")
    # Move Z^{z_p} through X^{x_q}: omega^{z_p . x_q} = w^{2 z_p . x_q}.
    cross = sum(zp * xq for zp, xq in zip(p.z, q.x))
    return WeylOperator(
        p.d,
        p.n,
        tuple(a + b for a, b in zip(p.x, q.x)),
        tuple(a + b for a, b in zip(p.z, q.z)),
        p.phase + q.phase + 2 * cross,
    )


def commutation_phase(p: WeylOperator, q: WeylOperator) -> int:
    """k in Z_d such that p q = omega^k q p, omega = exp(2*pi*i/d)."""
    if p.d != q.d or p.n != q.n:
        raise ValueError("dimension/register mismatch")
    k = sum(qx * pz - px * qz for px, pz, qx, qz in zip(p.x, p.z, q.x, q.z))
    return k % p.d


def dagger(p: WeylOperator) -> WeylOperator:
    """Exact adjoint, the power m = -1."""
    return w_power(p, -1)


def w_power(p: WeylOperator, m: int) -> WeylOperator:
    """m-th power in closed form, for any integer m (negative too):

        (w^f X^x Z^z)^m = w^{m f + m(m-1) z.x} X^{m x} Z^{m z},

    since moving each Z^z through the X^x of a later factor costs omega^{z.x}
    and there are m(m-1)/2 such moves; at m = -1 it is the adjoint."""
    cross = sum(a * b for a, b in zip(p.x, p.z))
    return WeylOperator(
        p.d,
        p.n,
        tuple(m * a for a in p.x),
        tuple(m * b for b in p.z),
        m * p.phase + m * (m - 1) * cross,
    )


def ordered_w_product(seq: Sequence[QuditFactor], d: int, n: int) -> WeylOperator:
    """Product of per-site X^a Z^b factors, first element applied first.

    One pass: left-multiplying the running product by X_j^a Z_j^b moves Z_j^b
    through the X_j^{x_j} accumulated so far, which costs w^{2 b x_j}."""
    xs = [0] * n
    zs = [0] * n
    phase = 0
    for site, a, b in seq:
        if not 0 <= site < n:
            raise ValueError(f"site {site} outside register of size {n}")
        phase += 2 * b * xs[site]
        xs[site] += a
        zs[site] += b
    return WeylOperator(d, n, tuple(xs), tuple(zs), phase)
