"""Cell complexes over GF(2) and the cubical torus cellulation.

A CellComplex keeps the geometric cell keys, so that codes and strategies
can address cells by lattice coordinates, and answers its own linear
algebra: bit-packed boundary and coboundary rows, boundary ranks, homology
and cohomology.  Plane graphs live with the strategies that embed them, in
`cellulation`.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from . import _Record

CellKey = Hashable


# -- GF(2) linear algebra on bit-packed rows --------------------------------


def gf2_eliminate(
    rows: Sequence[int], target: int = 0
) -> Tuple[Tuple[int, ...], List[int], Optional[int]]:
    """(kept, kernel, u0) of GF(2) rows, eliminated in input order with each
    reduced row pivoting on its lowest set bit.

    A combination u takes row j when bit j of u is set.  Row i is kept
    exactly when it is independent of rows 0..i-1; kernel holds one
    combination XORing to zero for every other row, a basis of all such;
    u0 is a combination whose rows XOR to target, or None when there is none.
    """
    pivots: Dict[int, Tuple[int, int]] = {}  # lowest bit -> (reduced row, its combination)
    kept: List[int] = []
    kernel: List[int] = []

    def reduce(v: int, comb: int) -> Tuple[int, int]:
        while v and (v & -v) in pivots:
            pv, pc = pivots[v & -v]
            v, comb = v ^ pv, comb ^ pc
        return v, comb

    for j, row in enumerate(rows):
        v, comb = reduce(row, 1 << j)
        if v:
            pivots[v & -v] = (v, comb)
            kept.append(j)
        else:
            kernel.append(comb)
    v, u0 = reduce(target, 0)
    return tuple(kept), kernel, None if v else u0


def gf2_rank(rows: Sequence[int]) -> int:
    return len(gf2_eliminate(rows)[0])


def _transpose(rows: Sequence[int], ncols: int) -> List[int]:
    """Bit-packed transpose: column j of `rows` as a row over the row indices."""
    return [sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(ncols)]


# -- geometric cell complexes -------------------------------------------------


class CellComplex(_Record):
    """Cells carry hashable keys (lattice coordinates for torus builds)."""

    _fields = ("dim", "cells", "boundary_keys", "closed", "meta")
    # _index, _bound, _cobound and _ranks (the rank of each boundary map,
    # filled on first use): derived from the cells, so left out of equality
    # and repr
    __slots__ = (*_fields, "_index", "_bound", "_cobound", "_ranks")

    def __init__(
        self,
        dim: int,
        cells: Tuple[Tuple[CellKey, ...], ...],
        boundary_keys: Tuple[Tuple[Tuple[CellKey, ...], ...], ...],
        closed: bool,
        meta: Optional[Dict] = None,
    ):
        self.dim = dim
        self.cells = cells
        self.boundary_keys = boundary_keys
        self.closed = closed
        self.meta = {} if meta is None else meta
        self._cobound = None
        self._ranks: Dict[int, int] = {}
        self._index = tuple({key: i for i, key in enumerate(level)} for level in self.cells)
        # each cell's boundary as indices of the cells below it; boundary of
        # boundary = 0: over the boundaries of a cell's boundary cells, every
        # lower cell occurs an even number of times
        bound: List[Tuple[Tuple[int, ...], ...]] = [((),) * len(self.cells[0])]
        for k in range(1, self.dim + 1):
            index, keys = self._index[k - 1], self.boundary_keys[k]
            level = tuple(tuple(index[key] for key in keys[i]) for i in range(len(self.cells[k])))
            for idx in level if k > 1 else ():
                met = sorted(low for j in idx for low in bound[k - 1][j])
                if met[0::2] != met[1::2]:
                    raise ValueError("boundary of boundary is nonzero")
            bound.append(level)
        self._bound = tuple(bound)

    def index(self, k: int, key: CellKey) -> int:
        return self._index[k][key]

    def dims(self) -> Tuple[int, ...]:
        return tuple(len(level) for level in self.cells)

    def boundary_indices(self, k: int, i: int) -> Tuple[int, ...]:
        return self._bound[k][i]

    def coboundary_indices(self, k: int, i: int) -> Tuple[int, ...]:
        """Indices of (k+1)-cells whose boundary contains the i-th k-cell."""
        if self._cobound is None:
            cob: List[Dict[int, List[int]]] = [dict() for _ in range(self.dim + 1)]
            for kk in range(1, self.dim + 1):
                for ci, lows in enumerate(self._bound[kk]):
                    for low in lows:
                        cob[kk - 1].setdefault(low, []).append(ci)
            self._cobound = tuple(
                {i: tuple(v) for i, v in level.items()} for level in cob
            )
        return self._cobound[k].get(i, ())

    def boundary_rows(self, k: int) -> List[int]:
        """Bit-packed boundary of each k-cell over the (k-1)-cells; a cell
        listed twice cancels."""
        return [_xor_mask(lows) for lows in self._bound[k]]

    def coboundary_rows(self, k: int) -> List[int]:
        """Bit-packed coboundary of each k-cell over the (k+1)-cells: the
        transpose of boundary_rows(k + 1)."""
        return [_xor_mask(self.coboundary_indices(k, i)) for i in range(len(self.cells[k]))]

    def boundary_rank(self, k: int) -> int:
        """Rank of the boundary map C_k -> C_{k-1}; zero map outside range."""
        if k < 1 or k > self.dim:
            return 0
        if k not in self._ranks:
            self._ranks[k] = gf2_rank(self.boundary_rows(k))
        return self._ranks[k]

    def homology_dim(self, i: int) -> int:
        """dim H_i = dim ker d_i - rank d_{i+1} over GF(2)."""
        if i < 0 or i > self.dim:
            return 0
        ker = len(self.cells[i]) - self.boundary_rank(i)
        return ker - self.boundary_rank(i + 1)

    def cohomology_dim(self, i: int) -> int:
        # over a field dim H^i = dim H_i; computed independently, from the
        # coboundary rows
        if i < 0 or i > self.dim:
            return 0
        ker = len(self.cells[i]) - self._coboundary_rank(i)
        return ker - self._coboundary_rank(i - 1)

    def _coboundary_rank(self, k: int) -> int:
        """Rank of delta_k : C_k -> C_{k+1}."""
        if k < 0 or k >= self.dim:
            return 0
        return gf2_rank(self.coboundary_rows(k))

    def euler_check(self) -> bool:
        chi_cells = sum((-1) ** i * d for i, d in enumerate(self.dims()))
        chi_hom = sum((-1) ** i * self.homology_dim(i) for i in range(self.dim + 1))
        return chi_cells == chi_hom


def _xor_mask(indices: Sequence[int]) -> int:
    mask = 0
    for i in indices:
        mask ^= 1 << i
    return mask


def dualize(c: CellComplex) -> CellComplex:
    """Dual complex of a closed manifold cellulation.

    Dual k-cells are primal (dim-k)-cells; the dual boundary of a primal
    cell is its primal coboundary.
    """
    if not c.closed:
        raise ValueError("dual complex requires a closed-manifold cellulation")
    d = c.dim
    cells = tuple(c.cells[d - k] for k in range(d + 1))
    boundary: List[Tuple[Tuple[CellKey, ...], ...]] = [tuple(() for _ in cells[0])]
    for k in range(1, d + 1):
        pk = d - k  # primal degree of the dual k-cells
        level = []
        for i in range(len(c.cells[pk])):
            ups = c.coboundary_indices(pk, i)
            level.append(tuple(c.cells[pk + 1][u] for u in ups))
        boundary.append(tuple(level))
    return CellComplex(d, cells, tuple(boundary), closed=True, meta={"dual_of": c.meta})


# -- torus builders ------------------------------------------------------------

_TAGS = {2: "vep", 3: "vefc"}  # key tag of each degree's cells


def _label(D: int, axes: Tuple[int, ...]) -> Tuple[int, ...]:
    """Key suffix of a cell spanning `axes`: the axis of an edge, the normal
    axis of a 3D face, nothing for vertices and top cells."""
    if len(axes) == 1:
        return axes
    if len(axes) == 2 and D == 3:
        return tuple(a for a in range(3) if a not in axes)
    return ()


def build_torus(*sizes: int) -> CellComplex:
    """Periodic cubical cellulation of the D-torus (D = 2 or 3), one side
    length per axis.

    A k-cell is a corner position plus a set of k axes.  Its key is the
    degree's tag (`v e p` in 2D, `v e f c` in 3D), the position, then the axis
    of an edge or the normal axis of a 3D face.  Cells are ordered by
    position (axis 0 slowest), then by label.  The boundary of a cell lists
    its sub-cells in label order, each at the corner and then one step along
    the axis it drops.
    """
    D = len(sizes)
    if D not in _TAGS:
        raise ValueError(f"torus builds 2 or 3 dimensions, got {D}")
    if min(sizes) < 2:
        raise ValueError("torus needs L >= 2")
    positions = list(product(*(range(n) for n in sizes)))
    index = {pos: i for i, pos in enumerate(positions)}
    # step[a][i]: index of the position one step along axis a from position i
    step = [
        [index[pos[:a] + ((pos[a] + 1) % n,) + pos[a + 1 :]] for pos in positions]
        for a, n in enumerate(sizes)
    ]
    shapes = [
        sorted(combinations(range(D), k), key=lambda axes: _label(D, axes)) for k in range(D + 1)
    ]
    labels = [[_label(D, axes) for axes in level] for level in shapes]
    cells = [
        tuple((tag, *pos, *lab) for pos in positions for lab in labs)
        for tag, labs in zip(_TAGS[D], labels)
    ]
    boundary = [tuple(() for _ in positions)]
    for k in range(1, D + 1):
        level, below = shapes[k], shapes[k - 1]
        lower = [cells[k - 1][t :: len(below)] for t in range(len(below))]  # keys by sub-shape
        rows: List[Tuple[CellKey, ...]] = [()] * len(cells[k])
        for s, axes in enumerate(level):
            cols = []
            for t, sub in enumerate(below):
                if set(sub) <= set(axes):
                    (dropped,) = set(axes) - set(sub)
                    cols += [lower[t], [lower[t][j] for j in step[dropped]]]
            rows[s :: len(level)] = zip(*cols)
        boundary.append(tuple(rows))
    meta = {"lattice": f"torus{D}d", "L": sizes[0]}
    if D == 2 or len(set(sizes)) > 1:
        meta.update(zip(("Lx", "Ly", "Lz"), sizes))
    return CellComplex(D, tuple(cells), tuple(boundary), closed=True, meta=meta)


# -- text dump -----------------------------------------------------------------------


def complex_to_text(c: CellComplex) -> str:
    """Line-oriented dump: `cells[k]` sections list cell keys, `boundary[k]`
    sections list the incident lower cells of each cell, one per line."""
    lines = [f"dim {c.dim}", f"closed {int(c.closed)}"]
    for k in range(c.dim + 1):
        lines.append(f"cells[{k}]")
        for key in c.cells[k]:
            lines.append(repr(key))
    for k in range(1, c.dim + 1):
        lines.append(f"boundary[{k}]")
        for bnd in c.boundary_keys[k]:
            lines.append("; ".join(repr(key) for key in bnd))
    return "\n".join(lines) + "\n"
