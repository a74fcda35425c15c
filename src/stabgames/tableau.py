"""Stabilizer groups over qubits and qudits: canonical form, membership with
phase, expectation values, ground-space dimension, sector fixing.

Rows are genuine group elements, so every "row operation" is an operator
product and phases are exact by construction.

Qubit groups (generators given as PauliOperator) live in a packed GF(2)
tableau.  Each row is one int v = x | z << n, so column c < n is x_c and
column n + j is z_j, plus an exact i-power phase.  Generators are inserted
by pivot-on-lowest-bit elimination and then back-substituted, which gives
the fully reduced row echelon form with pivots on the lowest columns, in
the style of Aaronson-Gottesman (quant-ph/0406196) and Stim (Gidney,
arXiv:2103.02202).  Commutation is read from column bitsets over the
generators: bit k of xc[j] (zc[j]) says generator k has X (Z) on site j,
so an operator commutes with the group iff the XOR of xc[j] over its
z-support and zc[j] over its x-support is 0.  The product phase of two
rows is counted with int.bit_count.

Weyl groups (generators given as WeylOperator, any d, including d=2) are
kept in Howell normal form over Z_d, which is what membership testing needs
when d has zero divisors (d=4 here); they serve every d > 2 and are the
reference the packed qubit path is tested against.

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
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .pauli import PauliOperator
from .weyl import WeylOperator, commutation_phase, w_multiply, w_power

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


def _bits(v: int) -> Iterator[int]:
    """Indices of the set bits of v, lowest first."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


def _unit_inverse(u: int, d: int) -> Optional[int]:
    """Multiplicative inverse of u in Z_d, or None if u is not a unit."""
    if math.gcd(u, d) != 1:
        return None
    return pow(u, -1, d)


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
        qubit = self.d == 2 and all(isinstance(g, PauliOperator) for g in gens)
        if not qubit:
            gens = [_as_weyl(g) for g in gens]
        for g in gens:
            if g.n != self.n:
                raise ValueError("generator register size mismatch")
            if isinstance(g, WeylOperator) and g.d != self.d:
                raise ValueError("generator dimension mismatch")
        self.generators = tuple(gens)
        # qubit groups: pivot column -> (packed row, i-power phase), ascending
        self._packed: Optional[Dict[int, Tuple[int, int]]] = None
        self._weyl_rows: List[WeylOperator] = []
        self.pivots: List[Tuple[int, int]] = []  # (column, pivot value)
        if qubit:
            self._build_packed(gens)
        else:
            for i, g in enumerate(gens):
                for h in gens[i + 1 :]:
                    if commutation_phase(g, h) != 0:
                        raise ValueError("generators do not commute")
            self._canonicalize(gens)

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
        # Forward pass: each row's lowest set bit is its pivot.  All products
        # below are of commuting elements, so their phases do not depend on
        # the order in which rows are combined.
        vec: Dict[int, int] = {}
        phase: Dict[int, int] = {}
        pivmask = 0
        for g in gens:
            v = g.x | g.z << n
            ph = g.phase
            m = v & pivmask
            while m:
                c = (m & -m).bit_length() - 1
                r = vec[c]
                ph += phase[c] + 2 * ((v >> n) & r).bit_count()
                v ^= r
                m = v & pivmask
            ph &= 3
            if not v:
                if ph:
                    raise ValueError("inconsistent group: nontrivial scalar generated")
                continue
            # a Pauli squares to +I iff it is Hermitian: i^ph with ph = |x & z| mod 2
            if (ph - ((v >> n) & v).bit_count()) & 1:
                raise ValueError("inconsistent group: nontrivial scalar generated")
            c = (v & -v).bit_length() - 1
            vec[c], phase[c] = v, ph
            pivmask |= 1 << c
        # Back-substitution, highest pivot first: the rows with higher pivots
        # are already reduced, so each product clears exactly one pivot bit.
        cols = sorted(vec)
        for c in reversed(cols):
            v, ph = vec[c], phase[c]
            m = v & pivmask & ~(1 << c)
            for q in _bits(m):
                r = vec[q]
                ph += phase[q] + 2 * ((v >> n) & r).bit_count()
                v ^= r
            vec[c], phase[c] = v, ph & 3
        self._packed = {c: (vec[c], phase[c]) for c in cols}
        self._pivmask = pivmask
        self.pivots = [(c, 1) for c in cols]

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
        """(v, ph) times every row whose pivot bit v carries, in pivot order."""
        n, packed = self.n, self._packed
        for c in _bits(v & self._pivmask):
            r, rph = packed[c]
            ph += rph + 2 * ((v >> n) & r).bit_count()
            v ^= r
        return v, ph & 3

    # -- Howell form over Z_d (Weyl groups) ----------------------------------

    def _canonicalize(self, work: List[WeylOperator]) -> None:
        d, n = self.d, self.n
        rows: List[WeylOperator] = []
        pivots: List[Tuple[int, int]] = []
        pending = list(work)
        for col in range(2 * n):
            zside, j = col >= n, col % n
            # pick the pending row with the "most invertible" entry at col
            best = None
            best_gcd = d
            for idx, r in enumerate(pending):
                e = (r.z if zside else r.x)[j]
                if e == 0:
                    continue
                g = math.gcd(e, d)
                if g < best_gcd:
                    best, best_gcd = idx, g
                    if g == 1:
                        break
            if best is None:
                continue
            piv = pending.pop(best)
            e = (piv.z if zside else piv.x)[j]
            inv = _unit_inverse(e, d)
            if inv is not None:
                piv = w_power(piv, inv)
                pval = 1
                closure = w_power(piv, d)
                if closure.phase != 0:
                    raise ValueError("inconsistent group: nontrivial scalar generated")
            else:
                # zero-divisor pivot: normalize to the gcd and keep span closure
                pval = best_gcd
                scale = _unit_inverse(e // pval, d // pval)
                if scale is not None and scale != 1:
                    piv = w_power(piv, scale)
                extra = w_power(piv, d // pval)
                if not extra.is_scalar():
                    pending.append(extra)
                elif extra.phase != 0:
                    raise ValueError("inconsistent group: nontrivial scalar generated")
            # eliminate this column from pending rows and from earlier rows;
            # an entry that is not a multiple of pval is cleared as far as
            # possible (Howell)
            for i, r in enumerate(pending):
                q = (r.z if zside else r.x)[j] // pval
                if q:
                    pending[i] = w_multiply(r, w_power(piv, -q))
            for i, r in enumerate(rows):
                q = (r.z if zside else r.x)[j] // pval
                if q:
                    rows[i] = w_multiply(r, w_power(piv, -q))
            rows.append(piv)
            pivots.append((col, pval))
        for r in pending:
            if not r.is_scalar():
                raise ValueError("canonicalization failed to clear a row")
            if r.phase != 0:
                raise ValueError("inconsistent group: nontrivial scalar generated")
        self._weyl_rows = rows
        self.pivots = pivots

    # -- queries ---------------------------------------------------------

    @property
    def rows(self) -> List[AnyOperator]:
        """Canonical rows in pivot order, as operators of the generators' type."""
        if self._packed is None:
            return self._weyl_rows
        n = self.n
        mask = (1 << n) - 1
        return [PauliOperator(n, v & mask, v >> n, ph) for v, ph in self._packed.values()]

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
        if self._packed is not None:
            if isinstance(op, WeylOperator):
                return op.to_pauli()
            return op
        return _as_weyl(op)

    def reduce(self, op: AnyOperator) -> AnyOperator:
        """Multiply op by group elements to clear every pivot column."""
        cur = self._coerce(op)
        n = self.n
        if cur.n != n:
            raise ValueError("register mismatch")
        if self._packed is not None:
            v, ph = self._reduce_packed(cur.x | cur.z << n, cur.phase)
            return PauliOperator(n, v & ((1 << n) - 1), v >> n, ph)
        for (col, pval), row in zip(self.pivots, self._weyl_rows):
            e = cur.x[col] if col < n else cur.z[col - n]
            if e % pval == 0:
                q = e // pval
                if q:
                    cur = w_multiply(cur, w_power(row, -q))
        return cur

    def expectation(self, op: AnyOperator) -> Expectation:
        cur = self._coerce(op)
        if cur.n != self.n:
            raise ValueError("register mismatch")
        if self._packed is not None:
            if self._anticommuting(cur.x, cur.z):
                return Expectation("zero", 2)
            v, ph = self._reduce_packed(cur.x | cur.z << self.n, cur.phase)
            # PauliOperator phases are i-exponents = exp(i*pi/2) exponents
            return Expectation("definite", 2, ph) if not v else Expectation("logical", 2)
        for row in self._weyl_rows:
            if commutation_phase(row, cur) != 0:
                return Expectation("zero", self.d)
        cur = self.reduce(cur)
        if cur.is_scalar():
            return Expectation("definite", self.d, cur.phase)
        return Expectation("logical", self.d)

    def contains(self, op: AnyOperator, phase_exp: int = 0) -> bool:
        e = self.expectation(op)
        return e.is_definite(phase_exp)

    def fix_sector(self, logicals: Iterable[AnyOperator]) -> "StabilizerGroup":
        """Enlarge the group by commuting operators, pinning their eigenvalues.

        Each operator is adjoined exactly as given (with its phase), so to fix
        a sector to an eigenvalue other than +1 the caller scales it first.
        """
        new_gens = list(self.generators)
        for lg in logicals:
            lg = self._coerce(lg)
            e = self.expectation(lg)
            if e.kind == "zero":
                raise ValueError("proposed sector fixer anticommutes with the group")
            if e.kind == "definite" and e.phase_exp % (2 * self.d) != 0:
                raise ValueError("sector fixer already in group with a different phase")
            new_gens.append(lg)
        return StabilizerGroup(new_gens, d=self.d, n=self.n)

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
