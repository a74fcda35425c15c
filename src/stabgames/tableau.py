"""Stabilizer groups over qubits and qudits: canonical form, membership with
phase, expectation values, ground-space dimension, sector fixing.

Rows are genuine group elements, so every "row operation" is an operator
product and phases are exact by construction.

Every group keeps one commutation index: for each site j, a tuple of
(generator, x_j, z_j) entries, one for each generator that is not the
identity at j.  An operator commutes with the group iff, for every generator
k, x_k z - z_k x summed over the operator's own sites is 0 mod d.  That one
check serves queries, builds and sector fixing.  A group is built by
adjoining its generators to the empty group, each checked against the ones
before it; fix_sector adjoins the fixers to a copy of the group in the same
way.

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
only when ``rows`` is first read, and cached.  The product phase of two rows
is counted with int.bit_count.

Weyl groups (generators given as WeylOperator, any d, including d=2) are
kept in Howell normal form over Z_d, which is what membership testing needs
when d has zero divisors (d=4 here); they serve every d > 2 and are the
reference the packed qubit path is tested against.  A row is a list of 2n
Python-int exponents (column c < n is x_c, column n + j is z_j) with a Z_2d
phase.  Powers come in closed form, (w^f X^x Z^z)^m =
w^(m f + m(m-1) z.x) X^(m x) Z^(m z) for any integer m (de Beaudrap,
arXiv:1102.3354), so clearing a pivot column from a row is one product with
a power of the pivot row, which touches only the pivot row's nonzero
entries: the double-semion rows stay sparse.  The pivot of a column is the
first pending row with the smallest gcd(e, d); it clears its column from
the pending rows, and a zero-divisor pivot p with entry g appends p^(d/g) to
the pending rows (Storjohann & Mulders, "Fast algorithms for linear algebra
modulo N", 1998).  The group keeps those echelon rows.  They have Howell's
property, so reduction in pivot order takes a member to a scalar, and the
group holds no nontrivial scalar, so that scalar is the member's phase in
any basis: expectation and fix_sector reduce against the echelon rows.  The
canonical rows, in which each pivot has also cleared its column as far as it
can from the earlier pivot rows, are back-substituted only when ``rows`` or
``reduce`` first needs them (the residual of a non-member depends on the
basis), and cached.  Their rows, phases and pivots are those of the
per-operator elimination kept in the test suite as the reference.

Expectation values of an operator O in the stabilized space come in three
kinds: Definite (a root of unity, when O is a phase times a group element),
Zero (O fails to commute with some stabilizer), and Logical (O commutes with
everything but is not in the group modulo phase).  Logical is deliberately
explicit; degenerate resource states make the distinction load-bearing.
"""

from __future__ import annotations

import cmath
import copy
import math
from itertools import compress
from operator import or_
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from . import _Frozen
from .pauli import PauliOperator, _bits
from .weyl import WeylOperator

AnyOperator = Union[PauliOperator, WeylOperator]


_set = object.__setattr__


class Expectation(_Frozen):
    """Result of an <O> query against a stabilizer group: kind is "definite",
    "zero" or "logical"; phase_exp, the exponent of exp(i*pi/d), is only
    meaningful for definite."""

    __slots__ = _fields = ("kind", "d", "phase_exp")

    def __init__(self, kind: str, d: int, phase_exp: int = 0):
        _set(self, "kind", kind)
        _set(self, "d", d)
        _set(self, "phase_exp", phase_exp)

    # spelled out, not inherited: the generic _values() makes == and hash 3-5x slower
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.kind, self.d, self.phase_exp) == (other.kind, other.d, other.phase_exp)
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.d, self.phase_exp))

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


def _support(op: AnyOperator) -> List[Tuple[int, int, int]]:
    """(j, x_j, z_j) for each site j where op is not the identity."""
    x, z = op.x, op.z
    if isinstance(op, PauliOperator):
        return [(j, x >> j & 1, z >> j & 1) for j in _bits(x | z)]
    return [(j, x[j], z[j]) for j in compress(range(op.n), map(or_, x, z))]


def _commutes(sites: Sequence[tuple], support: List[Tuple[int, int, int]], d: int) -> bool:
    """Whether the operator with this support commutes with every generator
    in the index: x_k z - z_k x summed over the operator's sites is 0 mod d."""
    gram: Dict[int, int] = {}  # k -> entry k of the operator's Gram row
    for j, x, z in support:
        for k, xk, zk in sites[j]:
            c = xk * z - zk * x
            if c:
                gram[k] = gram.get(k, 0) + c
    return not any(v % d for v in gram.values())


def _howell(
    es: List[List[int]], fs: List[int], d: int, n: int, kept: List[_Row]
) -> Tuple[List[_Row], List[Tuple[int, int]]]:
    """The echelon rows and (column, pivot value) list, in pivot order, of
    the rows with exponents es and phases fs, which are worked on in place.
    Each pivot clears its column from the pending rows only.  The first rows
    are the echelon rows kept: es[r] is kept[r]'s own list until the pass
    first changes it, and a kept row the pass leaves untouched is stored as
    it was.  Raises ValueError if the rows generate a nontrivial scalar."""
    rows: List[Optional[_Row]] = [*kept] + [None] * (len(es) - len(kept))
    pending = list(range(len(es)))
    ech: List[_Row] = []
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
        scale = pow(es[p][col] // pval, -1, d // pval)
        if scale != 1:  # p^scale = p * p^(scale - 1); a kept row is already scaled
            fs[p] = _times_power(es[p], fs[p], _row(es[p], fs[p], n), scale - 1, d)
        piv = rows[p] or _row(es[p], fs[p], n)
        # keep the span closed under p^(d/pval), a scalar when pval = 1
        extra = [0] * (2 * n)
        phase = _times_power(extra, 0, piv, d // pval, d)
        if any(extra):
            pending.append(len(es))
            es.append(extra)
            fs.append(phase)
            rows.append(None)
        elif phase:
            raise ValueError("inconsistent group: nontrivial scalar generated")
        # every pending row with an entry at col becomes r * p^(-q), q = entry // pval
        for r in hits:
            if rows[r]:
                es[r], rows[r] = list(es[r]), None
            fs[r] = _times_power(es[r], fs[r], piv, -(es[r][col] // pval), d)
        ech.append(piv)
        pivots.append((col, pval))
    for r in pending:
        if any(es[r]):
            raise ValueError("canonicalization failed to clear a row")
        if fs[r]:
            raise ValueError("inconsistent group: nontrivial scalar generated")
    return ech, pivots


def _back_substitute(
    ech: List[_Row], pivots: List[Tuple[int, int]], d: int, n: int
) -> List[_Row]:
    """The canonical rows of the echelon rows ech: in pivot order, each pivot's
    echelon row clears its column, as far as it can, from the rows before it.
    A row no product changes is returned as it was."""
    rows: List[Optional[_Row]] = list(ech)
    es = [e for e, *_ in ech]
    fs = [f for _, f, *_ in ech]
    for k, ((col, pval), piv) in enumerate(zip(pivots, ech)):
        for r in range(k):
            q = es[r][col] // pval
            if q:
                if rows[r]:
                    es[r], rows[r] = list(es[r]), None
                fs[r] = _times_power(es[r], fs[r], piv, -q, d)
    return [row or _row(e, f, n) for row, e, f in zip(rows, es, fs)]


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
        elif d is None or n is None:
            raise ValueError("empty group needs explicit d and n")
        elif n < 0:
            raise ValueError("negative register size")
        else:
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
        self.generators: Tuple[AnyOperator, ...] = ()
        # per site j: (generator, x_j, z_j) of each generator not the identity there
        self._sites: List[tuple] = [()] * self.n
        # qubit groups: pivot column -> (packed echelon row, i-power phase)
        self._packed: Optional[Dict[int, Tuple[int, int]]] = {} if qubit else None
        self._pivmask = 0
        self._ech: List[_Row] = []  # Weyl groups: echelon rows
        self._canon: Optional[List[_Row]] = None  # and their canonical rows, on first need
        self.pivots: List[Tuple[int, int]] = []  # (column, pivot value)
        self._extend(gens)

    def _extend(self, ops: Sequence[AnyOperator]) -> None:
        """Adjoin ops, of the group's row type, to the generators.  Each op is
        checked against the generators and the ops before it, and its entries
        go into new per-site tuples in a copy of the index, which replaces the
        group's only once every op has passed.  The echelon grows on a copy
        too, so extending a copy of a group leaves the group as it was."""
        first, d, n = len(self.generators), self.d, self.n
        sites = list(self._sites)
        for k, op in enumerate(ops, first):
            support = _support(op)
            if not _commutes(sites, support, d):
                raise ValueError("generators do not commute")
            for j, x, z in support:
                sites[j] += ((k, x, z),)
        self._sites = sites
        self.generators += tuple(ops)
        self._rows: Optional[List[AnyOperator]] = None  # canonical rows, on first read
        if self._packed is None:
            ech = self._ech
            es = [e for e, *_ in ech] + [list(op.x + op.z) for op in ops]
            fs = [f for _, f, *_ in ech] + [op.phase for op in ops]
            self._ech, self.pivots = _howell(es, fs, d, n, ech)
            self._canon = None
            return
        # Forward pass: each op is reduced by the rows so far and kept, pivot on
        # its lowest bit, unless it reduces to a scalar.  The products are of
        # commuting elements, so their phases do not depend on the row order.
        self._packed = packed = dict(self._packed)
        for op in ops:
            v, ph = self._reduce_packed(op.x | op.z << n, op.phase)
            if not v:
                if ph:
                    raise ValueError("inconsistent group: nontrivial scalar generated")
                continue
            # a Pauli squares to +I iff it is Hermitian: i^ph with ph = |x & z| mod 2
            if (ph - ((v >> n) & v).bit_count()) & 1:
                raise ValueError("inconsistent group: nontrivial scalar generated")
            c = (v & -v).bit_length() - 1
            packed[c] = (v, ph)
            self._pivmask |= 1 << c
        self.pivots = [(c, 1) for c in sorted(packed)]

    # -- packed GF(2) tableau (qubit groups) -----------------------------

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

    def _canonical_weyl(self) -> List[_Row]:
        """The canonical rows, back-substituted on the first call and cached."""
        if self._canon is None:
            self._canon = _back_substitute(self._ech, self.pivots, self.d, self.n)
        return self._canon

    def _reduce_weyl(self, e: List[int], f: int, rows: List[_Row]) -> int:
        """The phase of (e, f) times row^(-q) for each pivot whose column entry
        is q times the pivot value, in pivot order; e is reduced in place.
        The rows are the echelon or the canonical rows: a member reduces to
        the same phase against either, a non-member to a residual of its own."""
        for (col, pval), row in zip(self.pivots, rows):
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
                    WeylOperator(d, n, tuple(e[:n]), tuple(e[n:]), f)
                    for e, f, *_ in self._canonical_weyl()
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
        f = self._reduce_weyl(e, cur.phase, self._canonical_weyl())
        return WeylOperator(self.d, n, tuple(e[:n]), tuple(e[n:]), f)

    def expectation(self, op: AnyOperator) -> Expectation:
        cur = self._coerce(op)
        d = self.d
        if not _commutes(self._sites, _support(cur), d):
            return Expectation("zero", d)
        if self._packed is not None:
            v, ph = self._reduce_packed(cur.x | cur.z << self.n, cur.phase)
            # PauliOperator phases are i-exponents = exp(i*pi/2) exponents
            return Expectation("logical", 2) if v else Expectation("definite", 2, ph)
        e = list(cur.x + cur.z)
        f = self._reduce_weyl(e, cur.phase, self._ech)
        return Expectation("logical", d) if any(e) else Expectation("definite", d, f)

    def fix_sector(self, logicals: Iterable[AnyOperator]) -> "StabilizerGroup":
        """Enlarge the group by commuting operators, pinning their eigenvalues.

        Each operator is adjoined exactly as given (with its phase), so to fix
        a sector to an eigenvalue other than +1 the caller scales it first.
        A copy of the group adjoins them to its echelon rows as a build
        adjoins its generators; the canonical form is unique, so its rows,
        phases and pivots, when read, are a build's.
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
        fixed = copy.copy(self)
        fixed._extend(fixers)
        return fixed

    def export_text(self) -> str:
        return "\n".join(g.to_text() for g in self.generators)
