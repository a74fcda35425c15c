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
reference the packed qubit path is tested against.  Rows are one int64
array of exponents (column c < n is x_c, column n + j is z_j) with a Z_2d
phase vector, and every row operation is a vectorised update of that
array; numpy is imported when the first Weyl group is built, so qubit work
never loads it.  Commutation is checked once, with the symplectic Gram matrix
X Z^T - Z X^T mod d.  Powers come in closed form,
(w^f X^x Z^z)^m = w^(m f + m(m-1) z.x) X^(m x) Z^(m z) for any integer m
(de Beaudrap, arXiv:1102.3354), so clearing a pivot column from every row
whose entry is a nonzero multiple of the pivot is one array update.  The
pivot of a column is the first pending row with the smallest gcd(e, d);
a zero-divisor pivot p with entry g appends p^(d/g) to the pending rows
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
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .complexes import _bits
from .pauli import PauliOperator
from .weyl import WeylOperator

if TYPE_CHECKING:  # numpy is imported where a Weyl group first needs it
    import numpy as np

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


def _all_commute(e: np.ndarray, d: int, n: int) -> bool:
    """Whether every pair of rows commutes: X Z^T - Z X^T = 0 mod d.

    The symplectic Gram matrix is taken one row at a time, against the later
    rows and over that row's support only, where its terms can be nonzero,
    so the scratch stays one column of the matrix."""
    import numpy as np

    x, z = e[:, :n], e[:, n:]
    for i in range(len(e) - 1):
        sx, sz = np.flatnonzero(x[i]), np.flatnonzero(z[i])
        gram = z[i + 1 :, sx] @ x[i, sx] - x[i + 1 :, sz] @ z[i, sz]
        if (gram % d).any():
            return False
    return True


def _power(e: np.ndarray, f: int, m: int, d: int, n: int) -> Tuple[np.ndarray, int]:
    """(exponents, phase) of (w^f X^x Z^z)^m; m may be negative."""
    zx = int(e[n:] @ e[:n])
    return (m * e) % d, (m * f + m * (m - 1) * zx) % (2 * d)


def _howell(
    e: np.ndarray, f: np.ndarray, g: int, d: int, n: int
) -> Tuple[np.ndarray, np.ndarray, List[Tuple[int, int]]]:
    """Howell normal form over Z_d, with exact Z_2d phases, of the g rows at
    the top of the exponent buffer e and phase buffer f.

    The buffers are worked on in place; their rows below g take the rows
    that zero-divisor pivots append.  Returns the canonical rows' exponents
    and phases in pivot order and the (column, pivot value) list.  Raises
    ValueError if the rows generate a nontrivial scalar."""
    import numpy as np

    cap, dd = len(e), 2 * d
    pending = np.zeros(cap, dtype=bool)
    pending[:g] = True
    used = g
    done: List[int] = []
    pivots: List[Tuple[int, int]] = []
    for col in range(2 * n):
        live = np.flatnonzero(pending[:used])
        if not live.size:
            break
        # the first pending row with the "most invertible" entry at col
        gcds = np.gcd(e[live, col], d)
        k = int(np.argmin(gcds))
        pval = int(gcds[k])
        if pval == d:
            continue
        p = int(live[k])
        pending[p] = False
        entry = int(e[p, col])
        scale = pow(entry // pval, -1, d // pval)
        if scale != 1:
            e[p], f[p] = _power(e[p], int(f[p]), scale, d, n)
        if pval == 1:
            if _power(e[p], int(f[p]), d, d, n)[1]:
                raise ValueError("inconsistent group: nontrivial scalar generated")
        else:
            # zero-divisor pivot: keep the span closed under p^(d/pval)
            extra, phase = _power(e[p], int(f[p]), d // pval, d, n)
            if extra.any():
                e[used], f[used] = extra, phase
                pending[used] = True
                used += 1
            elif phase:
                raise ValueError("inconsistent group: nontrivial scalar generated")
        # every other row r becomes r * p^(-q), q = entry // pval; an entry
        # that is not a multiple of pval is cleared as far as possible
        q = e[:used, col] // pval
        q[p] = 0
        sel = np.flatnonzero(q)
        if sel.size:
            m = -q[sel]
            row = e[p]
            zx = int(row[n:] @ row[:n])
            cross = e[sel, n:] @ row[:n]
            f[sel] = (f[sel] + m * int(f[p]) + m * (m - 1) * zx + 2 * m * cross) % dd
            e[sel] = (e[sel] + m[:, None] * row) % d
        done.append(p)
        pivots.append((col, pval))
    for r in np.flatnonzero(pending[:used]):
        if e[r].any():
            raise ValueError("canonicalization failed to clear a row")
        if f[r]:
            raise ValueError("inconsistent group: nontrivial scalar generated")
    return e[done], f[done], pivots


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
            import numpy as np

            # Weyl groups: canonical rows as exponent array and phase vector
            d, n, g = self.d, self.n, len(gens)
            # every zero-divisor pivot appends at most one row and there are
            # at most 2n pivots; np.zeros leaves the rows never written unmapped
            e = np.zeros((g + 2 * n, 2 * n), dtype=np.int64)
            f = np.zeros(g + 2 * n, dtype=np.int64)
            for i, op in enumerate(gens):
                e[i], f[i] = op.x + op.z, op.phase
            if not _all_commute(e[:g], d, n):
                raise ValueError("generators do not commute")
            self._rows_e, self._rows_f, self.pivots = _howell(e, f, g, d, n)
            self._rows_zx = (self._rows_e[:, n:] * self._rows_e[:, :n]).sum(axis=1).tolist()

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

    def _reduce_weyl(self, e: np.ndarray, f: int) -> Tuple[np.ndarray, int]:
        """(e, f) times row^(-q) for each pivot whose column entry is q times
        the pivot value, in pivot order."""
        d, n = self.d, self.n
        rows = self._rows_e
        for (col, pval), row, rf, rzx in zip(self.pivots, rows, self._rows_f.tolist(), self._rows_zx):
            q, rem = divmod(int(e[col]), pval)
            if q and not rem:
                m = -q
                f = (f + m * rf + m * (m - 1) * rzx + 2 * m * int(e[n:] @ row[:n])) % (2 * d)
                e = (e + m * row) % d
        return e, f

    # -- queries ---------------------------------------------------------

    @property
    def rows(self) -> List[AnyOperator]:
        """Canonical rows in pivot order, as operators of the generators' type.

        They are built on the first read and cached; each read returns a new
        list, so a caller cannot change the group through it."""
        if self._rows is None:
            if self._packed is None:
                n = self.n
                self._rows = [
                    WeylOperator(self.d, n, tuple(r[:n].tolist()), tuple(r[n:].tolist()), int(ph))
                    for r, ph in zip(self._rows_e, self._rows_f)
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
        """op in the group's row type, checked against its register."""
        if op.n != self.n:
            raise ValueError("register mismatch")
        if self._packed is not None:
            if isinstance(op, WeylOperator):
                return op.to_pauli()
            return op
        return _as_weyl(op)

    def reduce(self, op: AnyOperator) -> AnyOperator:
        """Multiply op by group elements to clear every pivot column."""
        cur = self._coerce(op)
        n = self.n
        if self._packed is not None:
            v, ph = self._reduce_packed(cur.x | cur.z << n, cur.phase)
            return PauliOperator(n, v & ((1 << n) - 1), v >> n, ph)
        import numpy as np

        e, f = self._reduce_weyl(np.array(cur.x + cur.z, dtype=np.int64), cur.phase)
        return WeylOperator(self.d, n, tuple(e[:n].tolist()), tuple(e[n:].tolist()), f)

    def expectation(self, op: AnyOperator) -> Expectation:
        cur = self._coerce(op)
        if self._packed is not None:
            if self._anticommuting(cur.x, cur.z):
                return Expectation("zero", 2)
            v, ph = self._reduce_packed(cur.x | cur.z << self.n, cur.phase)
            # PauliOperator phases are i-exponents = exp(i*pi/2) exponents
            return Expectation("definite", 2, ph) if not v else Expectation("logical", 2)
        import numpy as np

        d, n = self.d, self.n
        vec = np.array(cur.x + cur.z, dtype=np.int64)
        rows = self._rows_e
        if ((rows[:, :n] @ vec[n:] - rows[:, n:] @ vec[:n]) % d).any():
            return Expectation("zero", d)
        e, f = self._reduce_weyl(vec, cur.phase)
        return Expectation("logical", d) if e.any() else Expectation("definite", d, f)

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
