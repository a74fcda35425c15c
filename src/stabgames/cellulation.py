"""Plane graphs and coarse cellulations, and the strategies built on them.

A plane graph is a rotation system (the cyclic order of the darts leaving
each vertex), the minimal unambiguous planar-embedding format; its faces are
traced and checked by Euler's formula.  A plane graph embeds in a 2D toric
code with composite pairs on its edges, and a coarse cellulation of a toric
code carries one pair per coarse p-cell for the cellulation game.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Hashable, List, Optional, Tuple

from . import _Record
from .codes import CodeInstance, homological_css
from .complexes import CellComplex, build_torus, dualize
from .strategies import CompositeOperatorSet, Constraint, _edge_pair, validate
from .tableau import StabilizerGroup


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
    """Sphere 2-complexes of a plane graph and of its geometric dual.

    Includes the unbounded face, so both complexes are cellulations of S^2;
    the face counts satisfy F + F* - 2 = E.  The dual is `dualize` of the
    primal: dual 1-cell i joins the two faces on the sides of edge i, and
    dual 2-cell v is bounded by the edges at vertex v.
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
    return primal, dualize(primal)


# -- plane-graph embeddings ------------------------------------------------------


def plane_graph_embedding(
    g: PlaneGraph,
    code: CodeInstance,
    placement: Dict,
) -> Tuple[CompositeOperatorSet, StabilizerGroup]:
    """Composite pairs indexed by the edges of a plane graph.

    placement maps each graph edge to a direct-lattice path and each dual
    edge to a dual-lattice path: {"edge": {i: [edge keys]}, "dual": {...}}.
    Face cycles of the graph (X) and of its dual (Z, the edges at each
    vertex) become the constraint set.  The effective group on the composite
    qubits is `homological_css` of the sphere complex with qubits on its
    edges; it must have full rank N, which is exactly the condition for a
    uniquely specified embedded state.
    """
    primal, _ = plane_graph_complex(g)
    n_eff = len(g.edges)
    pairs = [_edge_pair(code, placement["edge"][i], placement["dual"][i]) for i in range(n_eff)]
    constraints = [Constraint("X", primal.boundary_indices(2, fi), 0, f"face{fi}")
                   for fi in range(len(primal.cells[2]))]
    constraints += [Constraint("Z", primal.coboundary_indices(0, vi), 0, f"dualface{v}")
                    for vi, v in enumerate(g.vertices)]
    effective = homological_css(primal, 1).group
    if effective.rank != n_eff:
        raise ValueError(
            f"effective group rank {effective.rank} != {n_eff}: embedded state not unique"
        )
    ops = CompositeOperatorSet(
        code, code.group, pairs, constraints, meta={"graph_edges": n_eff}
    )
    report = validate(ops)
    if not report.ok:
        raise ValueError(f"placement violates the embedding contract: {report.problems[:3]}")
    return ops, effective


def cycle_dipole_embedding(
    code: CodeInstance, p: int
) -> Tuple[CompositeOperatorSet, StabilizerGroup, PlaneGraph]:
    """GHZ-type embedding: arcs of a closed loop carry the cycle graph, the
    dual rays carry its dipole dual."""
    from .parity2d import tc2d_parity_ops  # here, so the cellulation games load no tc2d builders

    base = tc2d_parity_ops(code, p)
    g = cycle_graph(p)
    key = lambda idx: code.cell.cells[1][idx]
    placement = {
        "edge": {i: [key(s) for (s, _) in base.pairs[i][0]] for i in range(p)},
        "dual": {i: [key(s) for (s, _) in base.pairs[i][1]] for i in range(p)},
    }
    ops, eff = plane_graph_embedding(g, code, placement)
    return ops, eff, g


def wheel_embedding(code: CodeInstance) -> Tuple[CompositeOperatorSet, StabilizerGroup, PlaneGraph]:
    """k=4 wheel graph placed on a 2D toric code of linear size >= 7.

    Spokes and rim arcs are explicit lattice paths around hub (3,3); the dual
    wheel is routed through the triangle interiors and a common outer anchor.
    """
    if code.kind != "toric2d" or code.meta["L"] < 7:
        raise ValueError("wheel embedding needs a 2D toric code with L >= 7")
    g = wheel_graph(4)
    h = lambda x, y: ("e", x, y, 0)
    v = lambda x, y: ("e", x, y, 1)
    spokes = {
        0: [v(3, 2), v(3, 1)],
        1: [h(3, 3), h(4, 3)],
        2: [v(3, 3), v(3, 4)],
        3: [h(1, 3), h(2, 3)],
    }
    rims = {
        4: [h(3, 1), h(4, 1), v(5, 1), v(5, 2)],
        5: [v(5, 3), v(5, 4), h(3, 5), h(4, 5)],
        6: [h(1, 5), h(2, 5), v(1, 3), v(1, 4)],
        7: [v(1, 1), v(1, 2), h(1, 1), h(2, 1)],
    }
    dual_spokes = {
        0: [v(3, 2)],
        1: [h(3, 3)],
        2: [v(3, 3)],
        3: [h(2, 3)],
    }
    dual_rims = {
        4: [v(4, 2), h(4, 2), h(4, 1), v(4, 0), v(3, 0), v(2, 0), v(1, 0)],
        5: [v(4, 3), v(5, 3), h(5, 3), h(5, 2), h(5, 1), v(5, 0), v(4, 0), v(3, 0), v(2, 0), v(1, 0)],
        6: [h(2, 4), h(2, 5), v(2, 5), v(1, 5), h(0, 5), h(0, 4), h(0, 3), h(0, 2), h(0, 1)],
        7: [h(2, 2), h(2, 1), v(2, 0), v(1, 0)],
    }
    placement = {
        "edge": {**spokes, **rims},
        "dual": {**dual_spokes, **dual_rims},
    }
    ops, eff = plane_graph_embedding(g, code, placement)
    return ops, eff, g


# -- coarse cellulation strategies --------------------------------------------------


class CellulationStrategy(_Record):
    """Composite pairs indexed by the p-cells of a coarse cellulation, plus the
    incidence data the cellulation game consumes."""

    __slots__ = _fields = ("ops", "coarse", "p")

    def __init__(self, ops: CompositeOperatorSet, coarse: CellComplex, p: int):
        self.ops = ops
        self.coarse = coarse
        self.p = p

    @property
    def players(self) -> int:
        return self.ops.players

    def face_incidence(self, player: int) -> Tuple[int, ...]:
        """Coarse (p+1)-cells whose boundary contains this player's p-cell."""
        return self.coarse.coboundary_indices(self.p, player)

    def vertex_incidence(self, player: int) -> Tuple[int, ...]:
        """Coarse (p-1)-cells on the boundary of this player's p-cell."""
        return self.coarse.boundary_indices(self.p, player)


def cellulation_ops(
    coarse: CellComplex,
    p: int,
    code: CodeInstance,
    placement: Dict,
    meta: Optional[Dict] = None,
) -> CellulationStrategy:
    """General coarse-cellulation strategy from an explicit placement.

    placement maps each coarse p-cell key to the microscopic edge keys of its
    glued direct-lattice realization, and each coarse dual cell (indexed by
    the same p-cell key) to the microscopic edges of the dual realization:
    {"p_cells": {key: [edge keys]}, "dual_cells": {key: [edge keys]}}.
    Constraints are the coarse (p+1)-cell boundaries (products of the X
    composites) and coarse (p-1)-cell coboundaries (products of the Z
    composites), which is what the cellulation game measures.
    """
    pairs = [
        _edge_pair(code, placement["p_cells"][key], placement["dual_cells"][key])
        for key in coarse.cells[p]
    ]
    constraints = []
    for fi in range(len(coarse.cells[p + 1])):
        constraints.append(
            Constraint("X", coarse.boundary_indices(p + 1, fi), 0,
                       f"coarse-boundary{coarse.cells[p + 1][fi]}")
        )
    for vi in range(len(coarse.cells[p - 1])):
        constraints.append(
            Constraint("Z", coarse.coboundary_indices(p - 1, vi), 0,
                       f"coarse-cobound{coarse.cells[p - 1][vi]}")
        )
    ops = CompositeOperatorSet(code, code.group, pairs, constraints, meta=dict(meta or {}))
    return CellulationStrategy(ops, coarse, p)


def block_cellulation_ops(code: CodeInstance, *blocks: int) -> CellulationStrategy:
    """Coarse block cellulation of a toric code (tc2d, tc3d-faces or
    tc3d-edges), one block factor b per lattice axis.

    The coarse complex is the torus with L // b cells along each axis, keyed
    like the fine one.  A coarse p-cell at P spans the axes A: its axis for an
    edge, every axis but its normal for a 3D face.  Its X side is the fine
    p-cells with the same tag and axis that tile its block face: b*P + [0, b)
    along A and b*P on the other axes.  Its Z side is the straight dual run
    between block centres that crosses it: b*P + b//2 along A and
    b*P + b//2 + 1 - b + [0, b) across A.  Unit blocks reproduce the fine
    lattice and single-site operators.
    """
    if code.kind not in ("toric2d", "toric3d_faces", "toric3d_edges"):
        raise ValueError("block cellulation needs a toric code (tc2d, tc3d-faces or tc3d-edges)")
    D, p, L = code.cell.dim, code.qubit_degree, code.meta["L"]
    if len(blocks) != D:
        raise ValueError(f"a {D}D code needs {D} block factors, got {len(blocks)}")
    if min(blocks) < 1 or any(L % b for b in blocks):
        raise ValueError("block sizes must divide L")
    if any(L // b < 2 for b in blocks):
        raise ValueError("need at least 2 blocks per direction")
    coarse = build_torus(*(L // b for b in blocks))
    p_cells = {}
    dual_cells = {}
    for key in coarse.cells[p]:
        tag, corner, (o,) = key[0], key[1:D + 1], key[D + 1:]
        spans = {o} if p == 1 else set(range(D)) - {o}
        tile, run = [], []
        for a, (b, c) in enumerate(zip(blocks, corner)):
            mid = b * c + b // 2
            tile.append(range(b * c, b * c + b) if a in spans else (b * c,))
            run.append((mid,) if a in spans else range(mid + 1 - b, mid + 1))
        p_cells[key] = [(tag, *(q % L for q in qs), o) for qs in product(*tile)]
        dual_cells[key] = [(tag, *(q % L for q in qs), o) for qs in product(*run)]
    return cellulation_ops(
        coarse, p, code, {"p_cells": p_cells, "dual_cells": dual_cells},
        meta=dict(zip(("bx", "by", "bz"), blocks)),
    )


# the fan's central vertex; the fan spans x in cx - 2..cx + 1 and y in cy - 2..cy + 1
_FAN_CENTER = (2, 2)


def fan_cellulation_ops(code: CodeInstance) -> CellulationStrategy:
    """Three-ray fan cellulation (two vertices, three edges, three lens faces).

    The composite X_i are edge-disjoint direct paths from a central vertex to
    a common outer vertex; the Z_i are dual arcs forming a closed dual loop
    around the center.  Restricting the game inputs to unit Z-exponent on
    every player reproduces the parity game.
    """
    if code.kind != "toric2d":
        raise ValueError("fan cellulation needs a 2D toric code")
    L = code.meta["L"]
    if L < 5:
        raise ValueError("fan cellulation needs L >= 5")
    cx, cy = _FAN_CENTER
    h = lambda x, y: ("e", x % L, y % L, 0)
    v = lambda x, y: ("e", x % L, y % L, 1)
    # rays from center (cx, cy) to outer vertex (cx, cy-2)
    ray_a = [v(cx, cy - 1), v(cx, cy - 2)]
    ray_b = [h(cx, cy), v(cx + 1, cy - 1), v(cx + 1, cy - 2), h(cx, cy - 2)]
    ray_c = [h(cx - 1, cy), v(cx - 1, cy - 1), v(cx - 1, cy - 2), h(cx - 1, cy - 2)]
    # dual arcs between lens anchors, crossing one ray each
    arc_a = [v(cx, cy - 1)]
    arc_b = [v(cx + 1, cy - 1)]
    arc_c = [
        h(cx + 1, cy),
        h(cx + 1, cy + 1),
        v(cx + 1, cy + 1),
        v(cx, cy + 1),
        v(cx - 1, cy + 1),
        h(cx - 2, cy + 1),
        h(cx - 2, cy),
        v(cx - 1, cy - 1),
    ]
    coarse = CellComplex(
        2,
        (
            (("v", "center"), ("v", "outer")),
            (("ray", 0), ("ray", 1), ("ray", 2)),
            (("lens", 0), ("lens", 1), ("lens", 2)),
        ),
        (
            ((), ()),
            tuple(((("v", "center"), ("v", "outer")),) * 3),
            (
                (("ray", 0), ("ray", 1)),
                (("ray", 1), ("ray", 2)),
                (("ray", 2), ("ray", 0)),
            ),
        ),
        closed=False,
        meta={"kind": "fan", "P": 3},
    )
    pairs = [
        _edge_pair(code, xs, zs) for xs, zs in ((ray_a, arc_a), (ray_b, arc_b), (ray_c, arc_c))
    ]
    constraints = [
        Constraint("X", (0, 1), 0, "lens01"),
        Constraint("X", (1, 2), 0, "lens12"),
        Constraint("X", (2, 0), 0, "lens20"),
        Constraint("Z", (0, 1, 2), 0, "center-cobound"),
    ]
    ops = CompositeOperatorSet(code, code.group, pairs, constraints, meta={"P": 3})
    return CellulationStrategy(ops, coarse, 1)
