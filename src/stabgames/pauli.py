"""Exact n-qubit Pauli algebra with global phase.

An operator is stored in canonical form

    i^phase * prod_j X_j^{x_j} Z_j^{z_j}

with X written to the left of Z on every site.  Supports are bit-packed
into Python ints (bit j = site j), so registers of thousands of qubits
cost a few machine words.  The phase exponent is kept mod 4, always --
reordering signs are the whole point of this library, so there is no
phaseless fast path.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

from . import _Frozen

# A single-site factor: (site index, letter), letter in "XYZ".
SiteFactor = Tuple[int, str]

_LETTER_XZ = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
# Y = i X Z, so a bare "Y" letter carries an extra i.
_LETTER_PHASE = {"X": 0, "Y": 1, "Z": 0}

_set = object.__setattr__


def _bits(v: int) -> Iterator[int]:
    """Indices of the set bits of v, lowest first."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


class PauliOperator(_Frozen):
    """Canonical-form Pauli string: i^phase * prod X^x Z^z, phase mod 4."""

    __slots__ = _fields = ("n", "x", "z", "phase")

    def __init__(self, n: int, x: int, z: int, phase: int):
        if n < 0:
            raise ValueError("negative register size")
        mask = (1 << n) - 1
        if x & ~mask or z & ~mask:
            raise ValueError("support outside register")
        _set(self, "n", n)
        _set(self, "x", x)
        _set(self, "z", z)
        _set(self, "phase", phase % 4)

    # spelled out, not inherited: the generic _values() makes == and hash 3-5x slower
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.x, self.z, self.phase) == (other.n, other.x, other.z, other.phase)
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.x, self.z, self.phase))

    @staticmethod
    def identity(n: int) -> "PauliOperator":
        return PauliOperator(n, 0, 0, 0)

    @staticmethod
    def single(n: int, site: int, letter: str) -> "PauliOperator":
        """One-site X, Y or Z."""
        if not 0 <= site < n:
            raise ValueError(f"site {site} outside register of size {n}")
        try:
            xb, zb = _LETTER_XZ[letter]
        except KeyError:
            raise ValueError(f"bad letter {letter!r}: the letter must be X, Y or Z") from None
        return PauliOperator(n, xb << site, zb << site, _LETTER_PHASE[letter])

    @staticmethod
    def from_support(n: int, letter: str, sites: Iterable[int]) -> "PauliOperator":
        """Product of the same letter over a set of sites (phase per Y included)."""
        x = z = 0
        count = 0
        try:
            xb, zb = _LETTER_XZ[letter]
        except KeyError:
            raise ValueError(f"bad letter {letter!r}: the letter must be X, Y or Z") from None
        for s in sites:
            if not 0 <= s < n:
                raise ValueError(f"site {s} outside register of size {n}")
            x |= xb << s
            z |= zb << s
            count += 1
        return PauliOperator(n, x, z, _LETTER_PHASE[letter] * count)

    def support(self) -> List[int]:
        v = self.x | self.z
        return [j for j in range(self.n) if (v >> j) & 1]

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0 and self.phase == 0

    def is_hermitian(self) -> bool:
        # P^dag = i^{-phase} (-1)^{|x&z|} P / i^0 ... equality needs
        # phase == |x&z| (mod 2).
        return (self.phase - (self.x & self.z).bit_count()) % 2 == 0

    def dagger(self) -> "PauliOperator":
        return PauliOperator(
            self.n, self.x, self.z, (-self.phase + 2 * (self.x & self.z).bit_count()) % 4
        )

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        return multiply(self, other)

    def scale_i(self, k: int) -> "PauliOperator":
        """Multiply by i^k."""
        return PauliOperator(self.n, self.x, self.z, (self.phase + k) % 4)

    def to_text(self) -> str:
        """Render as e.g. "i^2 X0 Y3 Z7"; bare identity is "i^0"."""
        both = self.x & self.z
        k = (self.phase - both.bit_count()) % 4
        parts = [f"i^{k}"]
        v = self.x | self.z
        j = 0
        while v:
            if v & 1:
                if (both >> j) & 1:
                    parts.append(f"Y{j}")
                elif (self.x >> j) & 1:
                    parts.append(f"X{j}")
                else:
                    parts.append(f"Z{j}")
            v >>= 1
            j += 1
        return " ".join(parts)

    @staticmethod
    def from_text(text: str, n: int) -> "PauliOperator":
        """Parse the form ``to_text`` writes: an optional i^k, then at most one
        X, Y or Z per site.  Anything else raises ValueError."""
        phase = 0
        x = z = 0
        y_count = 0
        for tok in text.split():
            if tok.startswith("i^"):
                phase = int(tok[2:]) % 4
                continue
            letter, site = tok[0].upper(), int(tok[1:])
            if letter not in _LETTER_XZ:
                raise ValueError(f"bad token {tok!r}: the letter must be X, Y or Z")
            if not 0 <= site < n:
                raise ValueError(f"site {site} outside register of size {n}")
            if ((x | z) >> site) & 1:
                raise ValueError(f"site {site} given twice in {text!r}")
            xb, zb = _LETTER_XZ[letter]
            x |= xb << site
            z |= zb << site
            if letter == "Y":
                y_count += 1
        return PauliOperator(n, x, z, (phase + y_count) % 4)


def multiply(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Canonical form of the matrix product p*q (q applied first).

    Reordering Z^{z_p} past X^{x_q} gives (-1) per overlapping site.
    """
    if p.n != q.n:
        raise ValueError(f"register mismatch: {p.n} vs {q.n}")
    phase = (p.phase + q.phase + 2 * (p.z & q.x).bit_count()) % 4
    return PauliOperator(p.n, p.x ^ q.x, p.z ^ q.z, phase)


def commutes(p: PauliOperator, q: PauliOperator) -> bool:
    """True iff the symplectic form |x_p & z_q| + |z_p & x_q| is even."""
    if p.n != q.n:
        raise ValueError(f"register mismatch: {p.n} vs {q.n}")
    return ((p.x & q.z).bit_count() + (p.z & q.x).bit_count()) % 2 == 0


def ordered_product(seq: Sequence[SiteFactor], n: int) -> PauliOperator:
    """Product of single-site factors applied in sequence order.

    The first element of `seq` acts first, i.e. the result is the matrix
    product f_k ... f_2 f_1.  Two orderings of the same multiset differ
    exactly by the accumulated anticommutation signs (twist signs).
    """
    acc = PauliOperator.identity(n)
    for site, letter in seq:
        acc = multiply(PauliOperator.single(n, site, letter), acc)
    return acc


def make_y_composite(x_part: PauliOperator, z_part: PauliOperator) -> PauliOperator:
    """Hermitian composite i * x_part * z_part for parts overlapping on one site."""
    if x_part.n != z_part.n:
        raise ValueError("register mismatch")
    if x_part.z != 0 or x_part.phase != 0:
        raise ValueError("x_part must be a phase-free X-type operator")
    if z_part.x != 0 or z_part.phase != 0:
        raise ValueError("z_part must be a phase-free Z-type operator")
    overlap = (x_part.x & z_part.z).bit_count()
    if overlap != 1:
        raise ValueError(f"supports must intersect on exactly one site, got {overlap}")
    return multiply(x_part, z_part).scale_i(1)


def twist_product(
    first: PauliOperator, second: PauliOperator, first_sites: Iterable[int]
) -> PauliOperator:
    """Interleaved product: the `first_sites` part of `first`, then all of
    `second`, then the rest of `first`.

    With operators that overlap on two sites and `first_sites` containing one
    of them, this realises the sign-flipped product that witnesses mutual
    statistics.
    """
    if first.n != second.n:
        raise ValueError("register mismatch")
    mask = 0
    for s in first_sites:
        mask |= 1 << s
    if mask & ~(first.x | first.z):
        raise ValueError("first_sites must lie inside the support of `first`")
    head = PauliOperator(first.n, first.x & mask, first.z & mask, 0)
    tail = PauliOperator(first.n, first.x & ~mask, first.z & ~mask, first.phase)
    return multiply(tail, multiply(second, head))
