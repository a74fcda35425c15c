"""Chain complexes over GF(2), geometric cellulations, and plane graphs.

ChainComplex is the linear-algebra object (cell counts plus boundary
matrices); CellComplex keeps the geometric cell keys so that codes and
strategies can address cells by lattice coordinates.  Plane graphs are
given as rotation systems (cyclic order of outgoing darts at each vertex),
the minimal unambiguous planar-embedding format; faces are derived by
tracing and validated through Euler's formula.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from . import _Frozen, _Record
from .pauli import _bits

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


# -- chain complexes ---------------------------------------------------------


class ChainComplex(_Frozen):
    """dims[k] = number of k-cells; boundary[k][i] = bitmask of (k-1)-cells
    on the boundary of the i-th k-cell (boundary[0] is all zeros)."""

    _fields = ("dims", "boundary")
    # _ranks: rank of each boundary map, filled on first use, so left out of
    # equality and repr
    __slots__ = (*_fields, "_ranks")

    def __init__(self, dims: Tuple[int, ...], boundary: Tuple[Tuple[int, ...], ...]):
        if len(boundary) != len(dims):
            raise ValueError("boundary list must match dims")
        for k, rows in enumerate(boundary):
            if len(rows) != dims[k]:
                raise ValueError(f"boundary[{k}] has wrong length")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "boundary", boundary)
        object.__setattr__(self, "_ranks", {})

    @property
    def top_dim(self) -> int:
        return len(self.dims) - 1

    def boundary_rank(self, k: int) -> int:
        """Rank of the boundary map C_k -> C_{k-1}; zero map outside range."""
        if k < 1 or k > self.top_dim:
            return 0
        if k not in self._ranks:
            self._ranks[k] = gf2_rank(self.boundary[k])
        return self._ranks[k]

    def homology_dim(self, i: int) -> int:
        """dim H_i = dim ker d_i - rank d_{i+1} over GF(2)."""
        if i < 0 or i > self.top_dim:
            return 0
        ker = self.dims[i] - self.boundary_rank(i)
        return ker - self.boundary_rank(i + 1)

    def cohomology_dim(self, i: int) -> int:
        # over a field dim H^i = dim H_i; computed independently, from the
        # transposed boundary matrices
        if i < 0 or i > self.top_dim:
            return 0
        ker = self.dims[i] - self._coboundary_rank(i)
        return ker - self._coboundary_rank(i - 1)

    def _coboundary_rank(self, k: int) -> int:
        """Rank of delta_k = boundary_{k+1}^T : C_k -> C_{k+1}."""
        if k < 0 or k >= self.top_dim:
            return 0
        return gf2_rank(_transpose(self.boundary[k + 1], self.dims[k]))

    def check_boundary_squares_to_zero(self) -> bool:
        for k in range(2, self.top_dim + 1):
            lower = self.boundary[k - 1]
            for mask in self.boundary[k]:
                acc = 0
                for j in _bits(mask):
                    acc ^= lower[j]
                if acc:
                    return False
        return True

    def euler_check(self) -> bool:
        chi_cells = sum((-1) ** i * d for i, d in enumerate(self.dims))
        chi_hom = sum((-1) ** i * self.homology_dim(i) for i in range(len(self.dims)))
        return chi_cells == chi_hom


# -- geometric cell complexes -------------------------------------------------


class CellComplex(_Record):
    """Cells carry hashable keys (lattice coordinates for torus builds)."""

    _fields = ("dim", "cells", "boundary_keys", "closed", "meta")
    # _index and _cobound: caches derived from the cells, so left out of
    # equality and repr
    __slots__ = (*_fields, "_index", "_cobound")

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
        self._index = tuple({key: i for i, key in enumerate(level)} for level in self.cells)
        # boundary of boundary = 0: over the boundaries of a cell's boundary
        # cells, every lower cell occurs an even number of times
        below: List[Tuple[int, ...]] = []
        for k in range(1, self.dim + 1):
            level = [self.boundary_indices(k, i) for i in range(len(self.cells[k]))]
            for idx in level if k > 1 else ():
                met = sorted(low for j in idx for low in below[j])
                if met[0::2] != met[1::2]:
                    raise ValueError("boundary of boundary is nonzero")
            below = level

    def index(self, k: int, key: CellKey) -> int:
        return self._index[k][key]

    def dims(self) -> Tuple[int, ...]:
        return tuple(len(level) for level in self.cells)

    def boundary_indices(self, k: int, i: int) -> Tuple[int, ...]:
        return tuple(self._index[k - 1][key] for key in self.boundary_keys[k][i])

    def coboundary_indices(self, k: int, i: int) -> Tuple[int, ...]:
        """Indices of (k+1)-cells whose boundary contains the i-th k-cell."""
        if self._cobound is None:
            cob: List[Dict[int, List[int]]] = [dict() for _ in range(self.dim + 1)]
            for kk in range(1, self.dim + 1):
                for ci in range(len(self.cells[kk])):
                    for low in self.boundary_indices(kk, ci):
                        cob[kk - 1].setdefault(low, []).append(ci)
            self._cobound = tuple(
                {i: tuple(v) for i, v in level.items()} for level in cob
            )
        return self._cobound[k].get(i, ())

    def to_chain(self) -> ChainComplex:
        dims = self.dims()
        boundary: List[Tuple[int, ...]] = [tuple(0 for _ in self.cells[0])]
        for k in range(1, self.dim + 1):
            rows = []
            for i in range(dims[k]):
                mask = 0
                for key in self.boundary_keys[k][i]:
                    mask ^= 1 << self._index[k - 1][key]
                rows.append(mask)
            boundary.append(tuple(rows))
        return ChainComplex(tuple(dims), tuple(boundary))


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


# -- plane graphs ---------------------------------------------------------------


class PlaneGraph(_Record):
    """Graph with a rotation system.

    edges[i] = (u, v); rotation[vertex] = cyclic list of darts leaving it,
    a dart being (edge_id, end) with end 0 when the dart leaves edges[i][0].
    Faces are derived by tracing and cached; the embedding must be genus 0.
    A _faces argument is accepted and replaced by the traced faces.
    """

    __slots__ = _fields = ("vertices", "edges", "rotation", "_faces")

    def __init__(
        self,
        vertices: Tuple[Hashable, ...],
        edges: Tuple[Tuple[Hashable, Hashable], ...],
        rotation: Dict[Hashable, List[Tuple[int, int]]],
        _faces: Optional[Tuple[Tuple[Tuple[int, int], ...], ...]] = None,
    ):
        self.vertices = vertices
        self.edges = edges
        self.rotation = rotation
        for i, (u, v) in enumerate(self.edges):
            if u == v:
                raise ValueError(f"self-loop at edge {i}")
        darts = {(i, end) for i in range(len(self.edges)) for end in (0, 1)}
        seen = set()
        for v, ds in self.rotation.items():
            for d in ds:
                i, end = d
                if self.edges[i][end] != v:
                    raise ValueError(f"dart {d} does not leave vertex {v}")
                seen.add(d)
        if seen != darts:
            raise ValueError("rotation system must cover every dart exactly once")
        self._faces = self._trace_faces()
        if len(self.vertices) - len(self.edges) + len(self._faces) != 2:
            raise ValueError("rotation system is not a genus-0 (plane) embedding")

    def _next_dart(self, dart: Tuple[int, int]) -> Tuple[int, int]:
        i, end = dart
        head = self.edges[i][1 - end]
        rev = (i, 1 - end)
        ring = self.rotation[head]
        pos = ring.index(rev)
        return ring[(pos + 1) % len(ring)]

    def _trace_faces(self):
        remaining = {(i, end) for i in range(len(self.edges)) for end in (0, 1)}
        faces = []
        while remaining:
            start = min(remaining)
            cyc = []
            d = start
            while True:
                cyc.append(d)
                remaining.discard(d)
                d = self._next_dart(d)
                if d == start:
                    break
            faces.append(tuple(cyc))
        return tuple(faces)

    @property
    def faces(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        return self._faces

    def face_edge_sets(self) -> List[Tuple[int, ...]]:
        return [tuple(sorted({i for (i, _) in f})) for f in self._faces]

    def edge_faces(self) -> List[Tuple[int, int]]:
        """For each edge, the pair of face indices on its two sides."""
        where: Dict[Tuple[int, int], int] = {}
        for fi, f in enumerate(self._faces):
            for d in f:
                where[d] = fi
        return [(where[(i, 0)], where[(i, 1)]) for i in range(len(self.edges))]

    def dual_is_loopless(self) -> bool:
        return all(a != b for a, b in self.edge_faces())


def cycle_graph(p: int) -> PlaneGraph:
    """Cycle with p vertices and p edges; dual is the dipole graph."""
    if p < 2:
        raise ValueError("cycle needs >= 2 edges")
    verts = tuple(range(p))
    edges = tuple((i, (i + 1) % p) for i in range(p))
    rotation = {}
    for v in verts:
        incoming = ((v - 1) % p, 1)
        outgoing = (v, 0)
        rotation[v] = [outgoing, incoming]
    return PlaneGraph(verts, edges, rotation)


def dipole_graph(p: int) -> PlaneGraph:
    """Two vertices joined by p parallel edges; dual is the cycle graph."""
    if p < 2:
        raise ValueError("dipole needs >= 2 edges")
    verts = (0, 1)
    edges = tuple((0, 1) for _ in range(p))
    rotation = {
        0: [(i, 0) for i in range(p)],
        1: [(i, 1) for i in reversed(range(p))],
    }
    return PlaneGraph(verts, edges, rotation)


def wheel_graph(k: int) -> PlaneGraph:
    """Hub 0 joined to a k-cycle of rim vertices; self-dual for every k."""
    if k < 3:
        raise ValueError("wheel needs k >= 3 spokes")
    verts = tuple(range(k + 1))
    spokes = [(0, 1 + i) for i in range(k)]
    rim = [(1 + i, 1 + (i + 1) % k) for i in range(k)]
    edges = tuple(spokes + rim)
    rotation = {0: [(i, 0) for i in range(k)]}
    for i in range(k):
        v = 1 + i
        rotation[v] = [(i, 1), (k + (i - 1) % k, 1), (k + i, 0)]
    return PlaneGraph(verts, edges, rotation)


def random_stacked_triangulation(n_inserts: int, seed: int) -> PlaneGraph:
    """Random maximal plane graph grown by repeated vertex-in-triangle stacking."""
    import random as _random

    rng = _random.Random(seed)
    verts: List[Hashable] = [0, 1, 2]
    edges: List[Tuple[Hashable, Hashable]] = [(0, 1), (1, 2), (2, 0)]
    rotation: Dict[Hashable, List[Tuple[int, int]]] = {
        0: [(0, 0), (2, 1)],
        1: [(1, 0), (0, 1)],
        2: [(2, 0), (1, 1)],
    }
    for _ in range(n_inserts):
        g = PlaneGraph(tuple(verts), tuple(edges), {v: list(d) for v, d in rotation.items()})
        face = rng.choice(g.faces)
        if len(face) != 3:
            continue
        w = len(verts)
        verts.append(w)
        new_ids = []
        corner_darts = []
        for d in face:
            i, end = d
            corner = edges[i][end]
            new_ids.append(len(edges))
            edges.append((w, corner))
            corner_darts.append((d, corner))
        rotation[w] = [(ei, 0) for ei in reversed(new_ids)]
        for (d, corner), ei in zip(corner_darts, new_ids):
            ring = rotation[corner]
            pos = ring.index(d)
            ring.insert(pos, (ei, 1))
    return PlaneGraph(tuple(verts), tuple(edges), rotation)


def plane_graph_complex(g: PlaneGraph) -> Tuple[CellComplex, CellComplex]:
    """Sphere-like 2-complexes of a plane graph and of its geometric dual.

    Includes the unbounded face, so both complexes are cellulations of S^2;
    the face counts satisfy F + F* - 2 = E.
    """
    if not g.dual_is_loopless():
        raise ValueError("geometric dual has a self-loop (bridge in the graph)")
    face_sets = g.face_edge_sets()
    primal = CellComplex(
        2,
        (
            tuple(("v", v) for v in g.vertices),
            tuple(("e", i) for i in range(len(g.edges))),
            tuple(("f", i) for i in range(len(face_sets))),
        ),
        (
            tuple(() for _ in g.vertices),
            tuple((("v", u), ("v", v)) for (u, v) in g.edges),
            tuple(tuple(("e", i) for i in fs) for fs in face_sets),
        ),
        closed=True,
        meta={"kind": "plane_graph", "faces": len(face_sets)},
    )
    edge_faces = g.edge_faces()
    vert_edges = {v: [] for v in g.vertices}
    for i, (u, v) in enumerate(g.edges):
        vert_edges[u].append(i)
        vert_edges[v].append(i)
    dual = CellComplex(
        2,
        (
            tuple(("f", i) for i in range(len(face_sets))),
            tuple(("e", i) for i in range(len(g.edges))),
            tuple(("v", v) for v in g.vertices),
        ),
        (
            tuple(() for _ in face_sets),
            tuple((("f", a), ("f", b)) for (a, b) in edge_faces),
            tuple(tuple(("e", i) for i in vert_edges[v]) for v in g.vertices),
        ),
        closed=True,
        meta={"kind": "plane_graph_dual", "faces": len(g.vertices)},
    )
    return primal, dual


# -- text formats ------------------------------------------------------------------


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


def complex_from_text(text: str) -> CellComplex:
    import ast

    lines = [ln.rstrip() for ln in text.splitlines() if ln.strip()]
    dim = int(lines[0].split()[1])
    closed = bool(int(lines[1].split()[1]))
    cells: List[List[CellKey]] = [[] for _ in range(dim + 1)]
    boundary: List[List[Tuple[CellKey, ...]]] = [[] for _ in range(dim + 1)]
    section = None
    for ln in lines[2:]:
        if ln.startswith("cells["):
            section = ("cells", int(ln[6:-1]))
            continue
        if ln.startswith("boundary["):
            section = ("boundary", int(ln[9:-1]))
            continue
        kind, k = section
        if kind == "cells":
            cells[k].append(ast.literal_eval(ln))
        else:
            parts = [p for p in ln.split("; ") if p]
            boundary[k].append(tuple(ast.literal_eval(p) for p in parts))
    boundary[0] = [() for _ in cells[0]]
    return CellComplex(
        dim,
        tuple(tuple(level) for level in cells),
        tuple(tuple(level) for level in boundary),
        closed=closed,
    )


def plane_graph_to_text(g: PlaneGraph) -> str:
    """`edge i: u v` lines then `vertex v: dart list` rotation lines."""
    lines = []
    for i, (u, v) in enumerate(g.edges):
        lines.append(f"edge {i}: {u!r} {v!r}")
    for v in g.vertices:
        darts = " ".join(f"{i}.{end}" for (i, end) in g.rotation[v])
        lines.append(f"vertex {v!r}: {darts}")
    return "\n".join(lines) + "\n"


def plane_graph_from_text(text: str) -> PlaneGraph:
    import ast

    edges: List[Tuple[Hashable, Hashable]] = []
    rotation: Dict[Hashable, List[Tuple[int, int]]] = {}
    vertices: List[Hashable] = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        head, _, rest = ln.partition(":")
        if head.startswith("edge"):
            u, v = rest.split()
            edges.append((ast.literal_eval(u), ast.literal_eval(v)))
        else:
            v = ast.literal_eval(head[len("vertex "):])
            vertices.append(v)
            darts = []
            for tok in rest.split():
                i, end = tok.split(".")
                darts.append((int(i), int(end)))
            rotation[v] = darts
    return PlaneGraph(tuple(vertices), tuple(edges), rotation)
