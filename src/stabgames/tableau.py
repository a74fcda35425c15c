"""Stabilizer groups over qubits and qudits: canonical form, membership with
phase, expectation values, ground-space dimension, sector fixing.

Rows are genuine group elements, so every "row operation" is an operator
product and phases are exact by construction.

Qubit groups (generators given as PauliOperator) live in a packed GF(2)
tableau.  Each row is one int v = x | z << n, so column c < n is x_c and
column n + j is z_j, plus an exact i-power phase.  Generators are inserted
by pivot-on-lowest-bit elimination, in the style of Aaronson-Gottesman
(quant-ph/0406196) and Stim (Gidney, arXiv:2103.02202), and the group keeps
those echelon rows: each has its pivot on its lowest set bit.  Reduction
clears the lowest pivot bit of the operator until none is left; every
nonzero element of the span carries a pivot bit and the group element that
clears them is unique, so the residual and its phase are those of any other
basis of the group.  The fully reduced canonical rows are back-substituted
only when ``rows`` is first read, and cached.  Commutation is read from
column bitsets over the generators: bit k of xc[j] (zc[j]) says generator k
has X (Z) on site j, so an operator commutes with the group iff the XOR of
xc[j] over its z-support and zc[j] over its x-support is 0.  The product
phase of two rows is counted with int.bit_count.

Weyl groups (generators given as WeylOperator, any d, including d=2) are
kept in Howell normal form over Z_d, which is what membership testing needs
when d has zero divisors (d=4 here); they serve every d > 2 and are the
reference the packed qubit path is tested against.  A row is a list of 2n
Python-int exponents (column c < n is x_c, column n + j is z_j) with a Z_2d
phase.  Commutation is checked once, with the symplectic Gram matrix
X Z^T - Z X^T mod d summed site by site.  Powers come in closed form,
(w^f X^x Z^z)^m = w^(m f + m(m-1) z.x) X^(m x) Z^(m z) for any integer m
(de Beaudrap, arXiv:1102.3354), so clearing a pivot column from a row is one
product with a power of the pivot row, which touches only the pivot row's
nonzero entries: the double-semion rows stay sparse.  The pivot of a column
is the first pending row with the smallest gcd(e, d); it clears its column
from the pending rows and, as far as it can, from the earlier pivot rows,
and a zero-divisor pivot p with entry g appends p^(d/g) to the pending rows
(Storjohann & Mulders, "Fast algorithms for linear algebra modulo N",
1998).  The rows, phases and pivots are those of the per-operator
elimination kept in the test suite as the reference.

Expectation values of an operator O in the stabilized space come in three
kinds: Definite (a root of unity, when O is a phase times a group element),
Zero (O fails to commute with some stabilizer), and Logical (O commutes with
everything but is not in the group modulo phase).  Logical is deliberately
explicit; degenerate resource states make the distinction load-bearing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import compress
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .complexes import _bits
from .pauli import PauliOperator
from .weyl import WeylOperator

AnyOperator = Union[PauliOperator, WeylOperator]


@dataclass(frozen=True)
class Expectation:
    """Result of an <O> query against a stabilizer group."""

    kind: str  # "definite" | "zero" | "logical"
    d: int
    phase_exp: int = 0  # exponent of exp(i*pi/d), only meaningful for definite

    @property
    def value(self) -> complex:
        if self.kind == "definite":
            return cmath.exp(1j * cmath.pi * self.phase_exp / self.d)
        return 0j

    def is_definite(self, phase_exp: Optional[int] = None) -> bool:
        if self.kind != "definite":
            return False
        return phase_exp is None or (self.phase_exp - phase_exp) % (2 * self.d) == 0


def _as_weyl(op: AnyOperator) -> WeylOperator:
    return WeylOperator.from_pauli(op) if isinstance(op, PauliOperator) else op


def _is_prime_power(d: int) -> bool:
    if d < 2:
        return False
    p = next((p for p in range(2, math.isqrt(d) + 1) if d % p == 0), d)
    while d % p == 0:
        d //= p
    return d == 1


# A Weyl row and what products with its powers read: exponents, phase, (column,
# entry) of each nonzero entry, (z_j column, x_j) of each nonzero x_j, and z.x
_Row = Tuple[List[int], int, List[Tuple[int, int]], List[Tuple[int, int]], int]
# per site j: (x_j, z_j) -> indices of the rows with those exponents at j
_Sites = List[Dict[Tuple[int, int], List[int]]]


def _row(e: List[int], f: int, n: int) -> _Row:
    sv = list(zip(compress(range(2 * n), e), filter(None, e)))
    xv = [(c + n, v) for c, v in sv if c < n]
    return e, f, sv, xv, sum(v * e[c] for c, v in xv)


def _times_power(e: List[int], f: int, row: _Row, m: int, d: int) -> int:
    """The phase of (w^f X^x Z^z) row^m, whose exponents overwrite e; m may be
    negative.  Only the row's nonzero columns are touched."""
    _, rf, sv, xv, zx = row
    cross = 0
    for c, v in xv:
        cross += e[c] * v
    for c, v in sv:
        e[c] = (e[c] + m * v) % d
    return (f + m * rf + m * (m - 1) * zx + 2 * m * cross) % (2 * d)


def _sites(es: List[List[int]], n: int) -> _Sites:
    sites: _Sites = [{} for _ in range(n)]
    for k, e in enumerate(es):
        for j in {c % n for c in compress(range(2 * n), e)}:
            sites[j].setdefault((e[j], e[j + n]), []).append(k)
    return sites


def _all_commute(sites: _Sites, d: int, g: int) -> bool:
    """Whether all g rows commute pairwise: X Z^T - Z X^T = 0 mod d, summed over
    the sites, where rows with equal exponents commute and are not paired."""
    gram: Dict[int, int] = {}  # i * g + k -> entry (i, k), i < k, of the Gram matrix
    for site in sites:
        kinds = list(site.items())
        for a, ((x, z), rows) in enumerate(kinds):
            for (x2, z2), rows2 in kinds[a + 1 :]:
                c = (x * z2 - z * x2) % d
                if not c:
                    continue
                for i in rows:
                    for k in rows2:
                        if i < k:
                            gram[i * g + k] = gram.get(i * g + k, 0) + c
                        else:
                            gram[k * g + i] = gram.get(k * g + i, 0) - c
    return not any(v % d for v in gram.values())


def _howell(
    es: List[List[int]], fs: List[int], d: int, n: int
) -> Tuple[List[_Row], List[Tuple[int, int]]]:
    """The canonical rows and (column, pivot value) list, in pivot order, of
    the rows with exponents es and phases fs, which are worked on in place.
    Raises ValueError if the rows generate a nontrivial scalar."""
    pending = list(range(len(es)))
    done: List[int] = []
    pivots: List[Tuple[int, int]] = []
    for col in range(2 * n):
        # the first pending row with the "most invertible" entry at col
        p, pval, hits = -1, d, []
        for r in pending:
            v = es[r][col]
            if v:
                hits.append(r)
                g = math.gcd(v, d)
                if g < pval:
                    p, pval = r, g
        if p < 0:
            continue
        pending.remove(p)
        hits.remove(p)
        piv = _row(es[p], fs[p], n)
        scale = pow(es[p][col] // pval, -1, d // pval)
        if scale != 1:  # p^scale = p * p^(scale - 1)
            fs[p] = _times_power(es[p], fs[p], piv, scale - 1, d)
            piv = _row(es[p], fs[p], n)
        # keep the span closed under p^(d/pval), a scalar when pval = 1
        extra = [0] * (2 * n)
        phase = _times_power(extra, 0, piv, d // pval, d)
        if any(extra):
            pending.append(len(es))
            es.append(extra)
            fs.append(phase)
        elif phase:
            raise ValueError("inconsistent group: nontrivial scalar generated")
        # every other row becomes r * p^(-q), q = entry // pval: this clears
        # col in the pending rows and in the pivot rows as far as it can
        for r in hits + [r for r in done if es[r][col] >= pval]:
            fs[r] = _times_power(es[r], fs[r], piv, -(es[r][col] // pval), d)
        done.append(p)
        pivots.append((col, pval))
    for r in pending:
        if any(es[r]):
            raise ValueError("canonicalization failed to clear a row")
        if fs[r]:
            raise ValueError("inconsistent group: nontrivial scalar generated")
    return [_row(es[r], fs[r], n) for r in done], pivots


class StabilizerGroup:
    """Abelian group of (generalized) Pauli operators not containing a
    nontrivial scalar; canonicalized on construction."""

    def __init__(
        self,
        generators: Sequence[AnyOperator],
        d: Optional[int] = None,
        n: Optional[int] = None,
    ):
        gens = list(generators)
        if gens:
            first = gens[0]
            self.d = 2 if isinstance(first, PauliOperator) else first.d
            self.n = first.n
        else:
            if d is None or n is None:
                raise ValueError("empty group needs explicit d and n")
            self.d, self.n = d, n
        if d is not None and d != self.d:
            raise ValueError("dimension mismatch with generators")
        if n is not None and n != self.n:
            raise ValueError("register mismatch with generators")
        if not _is_prime_power(self.d):
            # the Howell elimination needs every entry of a column to be a
            # multiple of the smallest gcd(entry, d), which holds only then
            raise ValueError(f"d = {self.d} is not a prime power; stabilizer groups need d = p^k")
        qubit = self.d == 2 and all(isinstance(g, PauliOperator) for g in gens)
        if not qubit:
            gens = [_as_weyl(g) for g in gens]
        for g in gens:
            if g.n != self.n:
                raise ValueError("generator register size mismatch")
            if isinstance(g, WeylOperator) and g.d != self.d:
                raise ValueError("generator dimension mismatch")
        self.generators = tuple(gens)
        # qubit groups: pivot column -> (packed echelon row, i-power phase)
        self._packed: Optional[Dict[int, Tuple[int, int]]] = None
        self._rows: Optional[List[AnyOperator]] = None  # canonical rows, on first read
        self.pivots: List[Tuple[int, int]] = []  # (column, pivot value)
        if qubit:
            self._build_packed(gens)
        else:
            es = [list(op.x + op.z) for op in gens]
            self._sites = _sites(es, self.n)
            if not _all_commute(self._sites, self.d, len(es)):
                raise ValueError("generators do not commute")
            self._canon, self.pivots = _howell(es, [op.phase for op in gens], self.d, self.n)

    # -- packed GF(2) tableau (qubit groups) -----------------------------

    def _build_packed(self, gens: Sequence[PauliOperator]) -> None:
        n = self.n
        xc = [0] * n
        zc = [0] * n
        for k, g in enumerate(gens):
            bit = 1 << k
            for j in _bits(g.x):
                xc[j] |= bit
            for j in _bits(g.z):
                zc[j] |= bit
        self._xc, self._zc = xc, zc
        for g in gens:
            if self._anticommuting(g.x, g.z):
                raise ValueError("generators do not commute")
        # Forward pass: each generator is reduced by the rows so far and
        # kept, pivot on its lowest bit, unless it reduces to a scalar.  All
        # products are of commuting elements, so their phases do not depend on
        # the order in which rows are combined.
        self._packed, self._pivmask = {}, 0
        for g in gens:
            v, ph = self._reduce_packed(g.x | g.z << n, g.phase)
            if not v:
                if ph:
                    raise ValueError("inconsistent group: nontrivial scalar generated")
                continue
            # a Pauli squares to +I iff it is Hermitian: i^ph with ph = |x & z| mod 2
            if (ph - ((v >> n) & v).bit_count()) & 1:
                raise ValueError("inconsistent group: nontrivial scalar generated")
            c = (v & -v).bit_length() - 1
            self._packed[c] = (v, ph)
            self._pivmask |= 1 << c
        self.pivots = [(c, 1) for c in sorted(self._packed)]

    def _canonical_packed(self) -> List[PauliOperator]:
        """The fully reduced rows in pivot order, by back-substitution from
        the highest pivot: the rows with higher pivots are already reduced,
        so each product clears exactly one pivot bit."""
        n, packed, pivmask = self.n, self._packed, self._pivmask
        done: Dict[int, Tuple[int, int]] = {}
        for c, _ in reversed(self.pivots):
            v, ph = packed[c]
            for q in _bits(v & pivmask & ~(1 << c)):
                r, rph = done[q]
                ph += rph + 2 * ((v >> n) & r).bit_count()
                v ^= r
            done[c] = (v, ph & 3)
        mask = (1 << n) - 1
        rows = (done[c] for c, _ in self.pivots)
        return [PauliOperator(n, v & mask, v >> n, ph) for v, ph in rows]

    def _anticommuting(self, x: int, z: int) -> int:
        """Bitset of the generators that anticommute with X^x Z^z."""
        xc, zc = self._xc, self._zc
        acc = 0
        for j in _bits(z):
            acc ^= xc[j]
        for j in _bits(x):
            acc ^= zc[j]
        return acc

    def _reduce_packed(self, v: int, ph: int) -> Tuple[int, int]:
        """(v, ph) times the row of its lowest pivot bit, until v carries no
        pivot bit."""
        n, packed, pivmask = self.n, self._packed, self._pivmask
        m = v & pivmask
        while m:
            r, rph = packed[(m & -m).bit_length() - 1]
            ph += rph + 2 * ((v >> n) & r).bit_count()
            v ^= r
            m = v & pivmask
        return v, ph & 3

    def _reduce_weyl(self, e: List[int], f: int) -> int:
        """The phase of (e, f) times row^(-q) for each pivot whose column entry
        is q times the pivot value, in pivot order; e is reduced in place."""
        for (col, pval), row in zip(self.pivots, self._canon):
            q, rem = divmod(e[col], pval)
            if q and not rem:
                f = _times_power(e, f, row, -q, self.d)
        return f

    # -- queries ---------------------------------------------------------

    @property
    def rows(self) -> List[AnyOperator]:
        """Canonical rows in pivot order, as operators of the generators' type.

        They are built on the first read and cached; each read returns a new
        list, so a caller cannot change the group through it."""
        if self._rows is None:
            if self._packed is None:
                d, n = self.d, self.n
                self._rows = [
                    WeylOperator(d, n, tuple(e[:n]), tuple(e[n:]), f) for e, f, *_ in self._canon
                ]
            else:
                self._rows = self._canonical_packed()
        return list(self._rows)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def group_order(self) -> int:
        order = 1
        for _, v in self.pivots:
            order *= self.d // v
        return order

    def ground_space_dim(self) -> int:
        total = self.d**self.n
        order = self.group_order()
        if total % order:
            raise ValueError("group order does not divide Hilbert dimension")
        return total // order

    def ground_space_log_dim(self) -> int:
        dim = self.ground_space_dim()
        if dim & (dim - 1):
            raise ValueError("stabilized-space dimension is not a power of two")
        return dim.bit_length() - 1

    def _coerce(self, op: AnyOperator) -> AnyOperator:
        """op in the group's row type, checked against its register and d."""
        if op.n != self.n:
            raise ValueError("register mismatch")
        if (op.d if isinstance(op, WeylOperator) else 2) != self.d:
            raise ValueError("dimension mismatch")
        if self._packed is not None:
            return op.to_pauli() if isinstance(op, WeylOperator) else op
        return _as_weyl(op)

    def reduce(self, op: AnyOperator) -> AnyOperator:
        """Multiply op by group elements to clear every pivot column."""
        cur = self._coerce(op)
        n = self.n
        if self._packed is not None:
            v, ph = self._reduce_packed(cur.x | cur.z << n, cur.phase)
            return PauliOperator(n, v & ((1 << n) - 1), v >> n, ph)
        e = list(cur.x + cur.z)
        f = self._reduce_weyl(e, cur.phase)
        return WeylOperator(self.d, n, tuple(e[:n]), tuple(e[n:]), f)

    def expectation(self, op: AnyOperator) -> Expectation:
        cur = self._coerce(op)
        if self._packed is not None:
            if self._anticommuting(cur.x, cur.z):
                return Expectation("zero", 2)
            v, ph = self._reduce_packed(cur.x | cur.z << self.n, cur.phase)
            # PauliOperator phases are i-exponents = exp(i*pi/2) exponents
            return Expectation("definite", 2, ph) if not v else Expectation("logical", 2)
        d = self.d
        gram: Dict[int, int] = {}
        for j, (x, z) in enumerate(zip(cur.x, cur.z)):
            if x or z:
                for (xk, zk), rows in self._sites[j].items():
                    c = xk * z - zk * x
                    for k in rows:
                        gram[k] = gram.get(k, 0) + c
        if any(v % d for v in gram.values()):
            return Expectation("zero", d)
        e = list(cur.x + cur.z)
        f = self._reduce_weyl(e, cur.phase)
        return Expectation("logical", d) if any(e) else Expectation("definite", d, f)

    def fix_sector(self, logicals: Iterable[AnyOperator]) -> "StabilizerGroup":
        """Enlarge the group by commuting operators, pinning their eigenvalues.

        Each operator is adjoined exactly as given (with its phase), so to fix
        a sector to an eigenvalue other than +1 the caller scales it first.
        """
        fixers = []
        for lg in logicals:
            lg = self._coerce(lg)
            e = self.expectation(lg)
            if e.kind == "zero":
                raise ValueError("proposed sector fixer anticommutes with the group")
            if e.kind == "definite" and e.phase_exp % (2 * self.d) != 0:
                raise ValueError("sector fixer already in group with a different phase")
            fixers.append(lg)
        # The canonical form of a group is unique, so any generating set gives
        # the same rows, phases and pivots.  A qubit group is rebuilt from its
        # generators: the packed build pays per set bit, and canonical rows
        # are denser than local generators.  A Weyl group extends its
        # canonical rows, which are fewer than its generators.
        base = self.generators if self._packed is not None else self.rows
        fixed = StabilizerGroup(list(base) + fixers, d=self.d, n=self.n)
        fixed.generators = self.generators + tuple(fixers)
        return fixed

    # -- text io -----------------------------------------------------------

    def export_text(self) -> str:
        return "\n".join(g.to_text() for g in self.generators)

    @staticmethod
    def import_text(text: str, d: int, n: int) -> "StabilizerGroup":
        gens: List[AnyOperator] = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if d == 2 and "w^" not in line:
                gens.append(PauliOperator.from_text(line, n))
            else:
                gens.append(WeylOperator.from_text(line, d, n))
        return StabilizerGroup(gens, d=d, n=n)


def canonicalize(group: StabilizerGroup) -> StabilizerGroup:
    """Return a group rebuilt from its canonical rows (idempotent)."""
    return StabilizerGroup(group.rows or [], d=group.d, n=group.n)
