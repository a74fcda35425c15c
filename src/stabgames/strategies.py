"""Builders and validators for the composite operator pairs (X_i, Z_i) that
realize perfect parity-game strategies, plus plane-graph embeddings and
coarse-cellulation strategies.

Operators are stored as ordered site-factor sequences rather than plain
supports: the constraint signs live in application order, and evaluating a
different ordering of the same factors is exactly how the twist signs enter.
All builders guarantee the two structural facts the games need and `validate`
re-derives them from scratch:

  * X_i anticommutes with Z_j exactly when i = j;
  * every recorded constraint product has a definite expectation with the
    recorded phase on the resource group.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import product
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import _Frozen, _Record
from .codes import CodeInstance
from .complexes import CellComplex, PlaneGraph, build_torus
from .pauli import PauliOperator, SiteFactor, commutes, multiply, ordered_product
from .tableau import StabilizerGroup


class Constraint(_Frozen):
    """The product of the players' X (kind "X") or Z (kind "Z") operators
    over indices, expected definite with i-exponent phase_exp."""

    __slots__ = _fields = ("kind", "indices", "phase_exp", "label")

    def __init__(self, kind: str, indices: Tuple[int, ...], phase_exp: int, label: str = ""):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "phase_exp", phase_exp)
        object.__setattr__(self, "label", label)


class CompositeOperatorSet(_Record):
    _fields = ("code", "resource", "pairs", "constraints", "meta")
    # _table: per player, i^{ab} X^a Z^b indexed [a][b]; built once from
    # pairs, so left out of equality and repr
    __slots__ = (*_fields, "_table")

    def __init__(
        self,
        code: CodeInstance,
        resource: StabilizerGroup,
        pairs: List[Tuple[Tuple[SiteFactor, ...], Tuple[SiteFactor, ...]]],
        constraints: List[Constraint],
        meta: Optional[Dict] = None,
    ):
        self.code = code
        self.resource = resource
        self.pairs = pairs
        self.constraints = constraints
        self.meta = {} if meta is None else meta
        one = PauliOperator.identity(self.n)
        self._table = []
        for xf, zf in self.pairs:
            x, z = ordered_product(xf, self.n), ordered_product(zf, self.n)
            y = multiply(x, z).scale_i(1)  # Z segment applied first
            self._table.append(((one, z), (x, y)))

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def players(self) -> int:
        return len(self.pairs)

    def x_op(self, i: int) -> PauliOperator:
        return self._table[i][1][0]

    def z_op(self, i: int) -> PauliOperator:
        return self._table[i][0][1]

    def y_op(self, i: int) -> PauliOperator:
        """Hermitian composite i * X_i * Z_i (Z segment applied first)."""
        return self._table[i][1][1]

    def player_op(self, i: int, x_exp: int, z_exp: int) -> PauliOperator:
        """i^{xz} X_i^x Z_i^z for bits (x_exp, z_exp)."""
        return self._table[i][x_exp][z_exp]


class ValidationReport(_Record):
    """Outcome of validate; commutation_matrix[i][j] says whether X_i
    anticommutes with Z_j, and constraint_results holds (constraint, kind,
    phase) per constraint."""

    __slots__ = _fields = ("ok", "commutation_ok", "commutation_matrix", "hermitian_ok",
                           "constraint_results", "problems")

    def __init__(
        self,
        ok: bool,
        commutation_ok: bool,
        commutation_matrix: List[List[bool]],
        hermitian_ok: bool,
        constraint_results: List[Tuple[Constraint, str, Optional[int]]],
        problems: List[str],
    ):
        self.ok = ok
        self.commutation_ok = commutation_ok
        self.commutation_matrix = commutation_matrix
        self.hermitian_ok = hermitian_ok
        self.constraint_results = constraint_results
        self.problems = problems


def validate(ops: CompositeOperatorSet) -> ValidationReport:
    """Recheck the anticommutation pattern, Y hermiticity, and every
    constraint's expectation on the resource group."""
    p = ops.players
    problems: List[str] = []
    matrix = [[not commutes(ops.x_op(i), ops.z_op(j)) for j in range(p)] for i in range(p)]
    comm_ok = all(matrix[i][j] == (i == j) for i in range(p) for j in range(p))
    if not comm_ok:
        problems.append("anticommutation pattern is not delta_ij")
    herm_ok = True
    for i in range(p):
        if not matrix[i][i]:
            herm_ok = False
            continue
        if not ops.y_op(i).is_hermitian():
            herm_ok = False
            problems.append(f"Y_{i} is not Hermitian")
    results = []
    for c in ops.constraints:
        op = PauliOperator.identity(ops.n)
        for i in c.indices:
            op = multiply(op, ops.x_op(i) if c.kind == "X" else ops.z_op(i))
        e = ops.resource.expectation(op)
        got = e.phase_exp if e.kind == "definite" else None
        results.append((c, e.kind, got))
        if e.kind != "definite":
            problems.append(f"constraint {c.label or c} is {e.kind}")
        elif (got - c.phase_exp) % (2 * e.d) != 0:
            problems.append(f"constraint {c.label or c} has phase i^{got}, expected i^{c.phase_exp}")
    ok = comm_ok and herm_ok and not problems
    return ValidationReport(ok, comm_ok, matrix, herm_ok, results, problems)


# -- GHZ reference strategy -----------------------------------------------------


def ghz_ops(p: int) -> CompositeOperatorSet:
    """Single-site operators on a P-qubit GHZ resource."""
    if p < 3:
        raise ValueError("parity game needs at least 3 players")
    gens = [PauliOperator.from_support(p, "X", range(p))]
    gens += [PauliOperator.from_support(p, "Z", [i, i + 1]) for i in range(p - 1)]
    group = StabilizerGroup(gens)
    code = CodeInstance(
        kind="ghz", d=2, n=p, group=group,
        labeled_generators=tuple((("ghz", i), g) for i, g in enumerate(gens)),
    )
    pairs = [(((i, "X"),), ((i, "Z"),)) for i in range(p)]
    constraints = [Constraint("X", tuple(range(p)), 0, "all-X")]
    constraints += [
        Constraint("Z", (i, j), 0, f"Z{i}Z{j}") for i in range(p) for j in range(i + 1, p)
    ]
    return CompositeOperatorSet(code, group, pairs, constraints, meta={"P": p})


# -- 2D toric-code geometry helpers ----------------------------------------------


def _staircase_region(k: int) -> List[Tuple[int, int]]:
    """k plaquettes stepping east/north alternately; perimeter 2k + 2."""
    cells = [(0, 0)]
    x = y = 0
    for step in range(k - 1):
        if step % 2 == 0:
            x += 1
        else:
            y += 1
        cells.append((x, y))
    return cells


def _region_boundary_walk(cells: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Counterclockwise closed vertex walk around a plaquette region, its
    first vertex repeated at the end.

    Coordinates are unreduced plane coordinates; plaquette (x, y) has corner
    vertices (x, y) .. (x + 1, y + 1).
    """
    region = set(cells)
    directed = {}  # vertex -> next vertex, region on the left
    for (x, y) in region:
        if (x, y - 1) not in region:  # south edge: walk east
            directed[(x, y)] = (x + 1, y)
        if (x, y + 1) not in region:  # north edge: walk west
            directed[(x + 1, y + 1)] = (x, y + 1)
        if (x - 1, y) not in region:  # west edge: walk south
            directed[(x, y + 1)] = (x, y)
        if (x + 1, y) not in region:  # east edge: walk north
            directed[(x + 1, y)] = (x + 1, y + 1)
    start = min(directed)
    walk = [start]
    while True:
        walk.append(directed[walk[-1]])
        if walk[-1] == start:
            break
    if len(walk) - 1 != len(directed):
        raise ValueError("region boundary is not a single cycle")
    return walk


def _walk_edge(a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, int, int]:
    """Edge (x, y, o) between adjacent vertices a and b; o = 0 is horizontal."""
    return (min(a[0], b[0]), min(a[1], b[1]), 0 if a[1] == b[1] else 1)


def _wrap_edge(edge: Tuple[int, int, int], L: int) -> Tuple[str, int, int, int]:
    x, y, o = edge
    return ("e", x % L, y % L, o)


def _dual_step_edge(a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, int, int]:
    """Primal edge crossed when stepping between adjacent plaquettes a -> b
    (unreduced plane coordinates)."""
    (x0, y0), (x1, y1) = a, b
    if abs(x1 - x0) + abs(y1 - y0) != 1:
        raise ValueError(f"plaquettes {a}, {b} are not adjacent")
    return (max(x0, x1), max(y0, y1), 1 if y0 == y1 else 0)


def _bfs_route(
    start: Tuple[int, int], goal: Tuple[int, int], passable: Callable
) -> List[Tuple[int, int]]:
    """Shortest route of unit steps from start to goal, taking a step
    cur -> nxt only when passable(cur, nxt); neighbours are tried in the
    order east, west, north, south, which fixes the route among ties."""
    prev = {start: None}
    q = deque([start])
    while q:
        cur = q.popleft()
        if cur == goal:
            path = []
            while cur is not None:
                path.append(cur)
                cur = prev[cur]
            return path[::-1]
        x, y = cur
        for nxt in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nxt not in prev and passable(cur, nxt):
                prev[nxt] = cur
                q.append(nxt)
    raise ValueError(f"no route from {start} to {goal}")


def _edge_pair(code: CodeInstance, x_keys, z_keys) -> Tuple[Tuple[SiteFactor, ...], ...]:
    """(X factors, Z factors) of one composite pair from qubit cell keys."""
    return (
        tuple((code.qubit_index(k), "X") for k in x_keys),
        tuple((code.qubit_index(k), "Z") for k in z_keys),
    )


def _arc_partition(cycle: Sequence, p: int) -> List[List]:
    base, rem = divmod(len(cycle), p)
    arcs = []
    pos = 0
    for i in range(p):
        size = base + (1 if i < rem else 0)
        arcs.append(list(cycle[pos : pos + size]))
        pos += size
    return arcs


def tc2d_parity_ops(
    code: CodeInstance, p: int, winding: bool = False, anchor: Tuple[int, int] = (0, 0)
) -> CompositeOperatorSet:
    """P-player strategy on a 2D toric code.

    Contractible variant: the X_i are P contiguous arcs of the boundary loop
    of a staircase plaquette region, and each Z_i is a dual path from a common
    interior plaquette, out through arc i, to a common exterior plaquette.
    Winding variant: the loop winds the torus (its sector is fixed to +1) and
    the Z_i are parallel winding dual loops in the other direction.
    """
    if code.kind != "toric2d":
        raise ValueError("builder requires a 2D toric code")
    if p < 3:
        raise ValueError("parity game needs at least 3 players")
    L = code.meta["L"]
    if winding:
        return _tc2d_winding_ops(code, p, anchor)
    k = max(1, -(-(p - 2) // 2))  # ceil((p-2)/2)
    cells = [(anchor[0] + x, anchor[1] + y) for (x, y) in _staircase_region(k)]
    span = max(max(x for x, _ in cells), max(y for _, y in cells)) + 1
    if span + 1 > L:
        raise ValueError(f"P={p} strategy region does not fit in L={L}")
    walk = _region_boundary_walk(cells)
    cycle = [_walk_edge(a, b) for a, b in zip(walk, walk[1:])]
    if len(cycle) < p:
        raise ValueError("boundary loop shorter than the player count")
    loop_edges = {_wrap_edge(e, L) for e in cycle}
    if len(loop_edges) != len(cycle):
        raise ValueError("boundary loop self-overlaps on the torus")
    arcs = _arc_partition(cycle, p)
    region = set(cells)
    ax, ay = anchor

    def outside(cur, nxt):
        # plan in the plane (universal cover), never crossing a torus lift of
        # the loop: every routed pair of paths is then homologically
        # equivalent, so XORs of routed paths are contractible
        return (
            ax - L - 1 <= nxt[0] <= ax + 2 * L
            and ay - L - 1 <= nxt[1] <= ay + 2 * L
            and _wrap_edge(_dual_step_edge(cur, nxt), L) not in loop_edges
        )

    pairs = []
    for arc in arcs:
        inner, outer = _edge_side_plaquettes(arc[len(arc) // 2], region)
        # dual path: interior route, the step inner -> outer across arc i,
        # then the exterior route to a common plaquette
        path = _bfs_route(cells[0], inner, lambda cur, nxt: nxt in region)
        path += _bfs_route(outer, (ax - 1, ay - 1), outside)
        dual_edges = [_wrap_edge(_dual_step_edge(a, b), L) for a, b in zip(path, path[1:])]
        pairs.append(_edge_pair(code, [_wrap_edge(e, L) for e in arc], _xor_reduce(dual_edges)))
    constraints = [Constraint("X", tuple(range(p)), 0, "loop")]
    constraints += [
        Constraint("Z", (i, j), 0, f"Z{i}Z{j}") for i in range(p) for j in range(i + 1, p)
    ]
    return CompositeOperatorSet(
        code, code.group, pairs, constraints, meta={"P": p, "variant": "contractible"}
    )


def _edge_side_plaquettes(edge: Tuple[int, int, int], region: set):
    """(interior, exterior) plaquettes adjacent to a region-boundary edge."""
    x, y, o = edge
    if o == 0:
        a, b = (x, y), (x, y - 1)
    else:
        a, b = (x, y), (x - 1, y)
    if a in region and b not in region:
        return a, b
    if b in region and a not in region:
        return b, a
    raise ValueError(f"edge {edge} is not on the region boundary")


def _xor_reduce(items: List) -> List:
    """Drop site factors (or qubit keys) that appear an even number of times
    (Z^2 = 1), keeping first-appearance order for the survivors."""
    counts = Counter(items)
    out = []
    seen = set()
    for f in items:
        if counts[f] % 2 == 1 and f not in seen:
            out.append(f)
            seen.add(f)
    return out


def _tc2d_winding_ops(code: CodeInstance, p: int, anchor: Tuple[int, int]) -> CompositeOperatorSet:
    L = code.meta["L"]
    if p > L:
        raise ValueError(f"winding variant needs L >= P (got L={L}, P={p})")
    y0 = anchor[1] % L
    loop = [(x, y0, 0) for x in range(L)]
    arcs = _arc_partition(loop, p)
    pairs = []
    for arc in arcs:
        col = arc[len(arc) // 2][0] % L
        x_keys = [_wrap_edge(e, L) for e in arc]
        pairs.append(_edge_pair(code, x_keys, [("e", col, y, 0) for y in range(L)]))
    winding_x = PauliOperator.from_support(
        code.n, "X", [code.qubit_index(("e", x, y0, 0)) for x in range(L)]
    )
    resource = code.group.fix_sector([winding_x])
    constraints = [Constraint("X", tuple(range(p)), 0, "winding-loop")]
    constraints += [
        Constraint("Z", (i, j), 0, f"Z{i}Z{j}") for i in range(p) for j in range(i + 1, p)
    ]
    return CompositeOperatorSet(
        code, resource, pairs, constraints, meta={"P": p, "variant": "winding"}
    )


def deform_arc(
    ops: CompositeOperatorSet, i: int, plaquette: Tuple[int, int]
) -> CompositeOperatorSet:
    """Homotopy move: multiply X_i by the stabilizer loop of one plaquette.

    The new arc is the old one XORed with the plaquette boundary; validity
    (crossing pattern intact) is for the caller to re-check via validate().
    """
    code = ops.code
    L = code.meta["L"]
    x, y = plaquette
    plaq_edges = [
        ("e", x % L, y % L, 0),
        ("e", x % L, (y + 1) % L, 0),
        ("e", x % L, y % L, 1),
        ("e", (x + 1) % L, y % L, 1),
    ]
    plaq_factors = [(code.qubit_index(k), "X") for k in plaq_edges]
    new_pairs = list(ops.pairs)
    xf = list(new_pairs[i][0]) + plaq_factors
    new_pairs[i] = (tuple(_xor_reduce(xf)), new_pairs[i][1])
    return CompositeOperatorSet(code, ops.resource, new_pairs, list(ops.constraints), dict(ops.meta))


# -- 3D toric code strategies ------------------------------------------------------


def tc3d_1form_ops(code: CodeInstance) -> CompositeOperatorSet:
    """Three-player set on the face-qubit 3D toric code: the X_i partition the
    six faces of an elementary cube, the Z_i are dual paths with shared
    endpoints crossing one patch each."""
    if code.kind != "toric3d_faces":
        raise ValueError("builder requires the face-qubit 3D toric code")
    L = code.meta["L"]
    idx = code.qubit_index

    def f(x, y, z, m):
        return idx(("f", x % L, y % L, z % L, m))

    bottom = f(0, 0, 0, 2)
    top = f(0, 0, 1, 2)
    east = f(1, 0, 0, 0)
    rest = [f(0, 0, 0, 0), f(0, 0, 0, 1), f(0, 1, 0, 1)]
    x1 = ((bottom, "X"),)
    x2 = ((east, "X"),)
    x3 = tuple((s, "X") for s in [top] + rest)
    z1 = tuple((s, "Z") for s in [bottom, f(1, 0, -1, 0), f(1, 0, 0, 2)])
    z2 = ((east, "Z"),)
    z3 = tuple((s, "Z") for s in [top, f(1, 0, 1, 0), f(1, 0, 1, 2)])
    pairs = [(x1, z1), (x2, z2), (x3, z3)]
    constraints = [Constraint("X", (0, 1, 2), 0, "cube")]
    constraints += [Constraint("Z", t, 0, f"Z{t}") for t in ((0, 1), (0, 2), (1, 2))]
    return CompositeOperatorSet(code, code.group, pairs, constraints, meta={"P": 3, "form": 1})


def tc3d_2form_ops(code: CodeInstance) -> CompositeOperatorSet:
    """Three-player set on the edge-qubit 3D toric code: the X_i partition an
    elementary face loop, the Z_i are dual membranes with a common boundary."""
    if code.kind != "toric3d_edges":
        raise ValueError("builder requires the edge-qubit 3D toric code")
    L = code.meta["L"]
    idx = code.qubit_index

    def e(x, y, z, a):
        return idx(("e", x % L, y % L, z % L, a))

    south = e(0, 0, 0, 0)
    north = e(0, 1, 0, 0)
    west = e(0, 0, 0, 1)
    east = e(1, 0, 0, 1)
    x1 = ((south, "X"),)
    x2 = ((west, "X"), (east, "X"))
    x3 = ((north, "X"),)
    star_00 = [e(0, 0, 0, a) for a in (0, 1, 2)] + [e(-1, 0, 0, 0), e(0, -1, 0, 1), e(0, 0, -1, 2)]
    star_01 = [e(0, 1, 0, a) for a in (0, 1, 2)] + [e(-1, 1, 0, 0), e(0, 0, 0, 1), e(0, 1, -1, 2)]
    z1 = tuple((s, "Z") for s in star_00 if s != west)
    z2 = ((west, "Z"),)
    z3 = tuple((s, "Z") for s in star_01 if s != west)
    pairs = [(x1, z1), (x2, z2), (x3, z3)]
    constraints = [Constraint("X", (0, 1, 2), 0, "face")]
    constraints += [Constraint("Z", t, 0, f"Z{t}") for t in ((0, 1), (0, 2), (1, 2))]
    return CompositeOperatorSet(code, code.group, pairs, constraints, meta={"P": 3, "form": 2})


# -- X-cube strategies ---------------------------------------------------------------


def xcube_ops(code: CodeInstance, variant: str = "prism") -> CompositeOperatorSet:
    """Three-player sets on the X-cube model.

    prism: the X_i partition the four membranes of an open z-tube (a planar
    vertex cross in minimal form) and the Z_i are cage pieces whose pairwise
    products are full cages.  cage: roles mirrored, with the X_i partitioning
    one cage into two rings and four ribs, and the Z_i built from a charged
    X seed times planar vertex crosses so every Z_i Z_j lands in the group.
    """
    if code.kind != "xcube":
        raise ValueError("builder requires the X-cube code")
    L = code.meta["L"]
    if L < 3:
        raise ValueError("strategy placement needs L >= 3")
    idx = code.qubit_index

    def e(x, y, z, a):
        return idx(("e", x % L, y % L, z % L, a))

    if variant == "prism":
        # open z-tube through vertex (1,1,0): four xy-edges
        x1 = ((e(0, 1, 0, 0), "X"),)
        x2 = ((e(1, 0, 0, 1), "X"), (e(1, 1, 0, 1), "X"))
        x3 = ((e(1, 1, 0, 0), "X"),)
        ring0 = [e(0, 0, 0, 1), e(0, 0, 1, 1), e(0, 0, 0, 2), e(0, 1, 0, 2)]
        ring1 = [e(1, 0, 0, 1), e(1, 0, 1, 1), e(1, 0, 0, 2), e(1, 1, 0, 2)]
        ring2 = [e(2, 0, 0, 1), e(2, 0, 1, 1), e(2, 0, 0, 2), e(2, 1, 0, 2)]
        ribs0 = [e(0, dy, dz, 0) for dy in (0, 1) for dz in (0, 1)]
        ribs1 = [e(1, dy, dz, 0) for dy in (0, 1) for dz in (0, 1)]
        z1 = tuple((s, "Z") for s in ring0 + ribs0)
        z2 = tuple((s, "Z") for s in ring1)
        z3 = tuple((s, "Z") for s in ring2 + ribs1)
        pairs = [(x1, z1), (x2, z2), (x3, z3)]
    elif variant == "cage":
        ring0 = [e(0, 0, 0, 1), e(0, 0, 1, 1), e(0, 0, 0, 2), e(0, 1, 0, 2)]
        ribs = [e(0, dy, dz, 0) for dy in (0, 1) for dz in (0, 1)]
        ring1 = [e(1, 0, 0, 1), e(1, 0, 1, 1), e(1, 0, 0, 2), e(1, 1, 0, 2)]
        x1 = tuple((s, "Z") for s in ring0)
        x2 = tuple((s, "Z") for s in ribs)
        x3 = tuple((s, "Z") for s in ring1)
        seed = [e(0, 0, 1, 1)]  # one X on a ring-0 edge away from the used corners
        cross_a = [e(0, 0, 0, 0), e(-1, 0, 0, 0), e(0, 0, 0, 1), e(0, -1, 0, 1)]
        cross_b = [e(1, 0, 0, 0), e(0, 0, 0, 0), e(1, 0, 0, 1), e(1, -1, 0, 1)]
        z1 = [(s, "X") for s in seed]
        z2 = _xor_reduce([(s, "X") for s in seed + cross_a])
        z3 = _xor_reduce([(s, "X") for s in seed + cross_a + cross_b])
        pairs = [(tuple(x1), tuple(z1)), (tuple(x2), tuple(z2)), (tuple(x3), tuple(z3))]
    else:
        raise ValueError(f"unknown X-cube variant {variant!r}")
    constraints = [Constraint("X", (0, 1, 2), 0, "symmetry")]
    constraints += [Constraint("Z", t, 0, f"Z{t}") for t in ((0, 1), (0, 2), (1, 2))]
    return CompositeOperatorSet(
        code, code.group, pairs, constraints, meta={"P": 3, "variant": variant}
    )


# -- plane-graph embeddings ------------------------------------------------------


def plane_graph_embedding(
    g: PlaneGraph,
    code: CodeInstance,
    placement: Dict,
) -> Tuple[CompositeOperatorSet, StabilizerGroup]:
    """Composite pairs indexed by the edges of a plane graph.

    placement maps each graph edge to a direct-lattice path and each dual
    edge to a dual-lattice path: {"edge": {i: [edge keys]}, "dual": {...}}.
    Face cycles of the graph and of its dual become the constraint set; the
    induced effective group on the composite qubits must have full rank N,
    which is exactly the condition for a uniquely specified embedded state.
    """
    if not g.dual_is_loopless():
        raise ValueError("graph or its dual has a self-loop")
    n_eff = len(g.edges)
    pairs = [_edge_pair(code, placement["edge"][i], placement["dual"][i]) for i in range(n_eff)]
    constraints = []
    eff_gens: List[PauliOperator] = []
    for fi, edge_set in enumerate(g.face_edge_sets()):
        constraints.append(Constraint("X", tuple(edge_set), 0, f"face{fi}"))
        eff_gens.append(PauliOperator.from_support(n_eff, "X", edge_set))
    vert_edges: Dict = {v: [] for v in g.vertices}
    for i, (u, v) in enumerate(g.edges):
        vert_edges[u].append(i)
        vert_edges[v].append(i)
    for v in g.vertices:
        constraints.append(Constraint("Z", tuple(vert_edges[v]), 0, f"dualface{v}"))
        eff_gens.append(PauliOperator.from_support(n_eff, "Z", vert_edges[v]))
    effective = StabilizerGroup(eff_gens, d=2, n=n_eff)
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
    from .complexes import cycle_graph

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
    from .complexes import wheel_graph

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


def fan_cellulation_ops(code: CodeInstance, center: Tuple[int, int] = (2, 2)) -> CellulationStrategy:
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
    cx, cy = center
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


# -- double-semion magic-square operators ----------------------------------------------


class MagicSquareOperators(_Record):
    """Two effective ququart pairs per player, realized as semion-string arcs.

    Player A measures with (a_x[0], a_z[0]) and (a_x[1], a_z[1]), one
    WeylOperator per effective qudit; player B with the partner arcs.  Within
    each pair Z X = i X Z exactly; across players everything commutes and the
    supports are disjoint.
    """

    __slots__ = _fields = ("code", "resource", "a_x", "a_z", "b_x", "b_z", "meta")

    def __init__(
        self,
        code: CodeInstance,
        resource: StabilizerGroup,
        a_x: List,
        a_z: List,
        b_x: List,
        b_z: List,
        meta: Optional[Dict] = None,
    ):
        self.code = code
        self.resource = resource
        self.a_x = a_x
        self.a_z = a_z
        self.b_x = b_x
        self.b_z = b_z
        self.meta = {} if meta is None else meta


def _ds_dual_ring(vertex_region) -> List[Tuple[int, int]]:
    """Closed ccw plaquette path (dual loop) around a set of vertices."""
    return _region_boundary_walk([(a - 1, b - 1) for (a, b) in vertex_region])


def _ds_arc_ops(code, ring, cut1, cut2):
    """Split a closed plaquette ring at two step positions into two directed
    arcs and return their string operators (first arc starts at cut1)."""
    from .codes import ds_string

    path1 = ring[cut1 : cut2 + 1]
    path2 = ring[cut2:] + ring[1 : cut1 + 1]
    return ds_string(code, "s", path1), ds_string(code, "s", path2)


def _pair_geometry_valid(xa, za, xb, zb) -> Optional[Dict]:
    """Check one arc assignment; return the dagger fixes or None.

    Requirements: disjoint player supports, Z X = omega^{+-1} X Z within a
    player and full commutation across players, and fourth powers equal
    to +1.
    """
    from .weyl import commutation_phase, w_power

    supp = lambda op: set(op.support())
    if (supp(xa) | supp(za)) & (supp(xb) | supp(zb)):
        return None
    k_a = commutation_phase(za, xa)
    k_b = commutation_phase(zb, xb)
    if k_a not in (1, 3) or k_b not in (1, 3):
        return None
    if commutation_phase(za, xb) or commutation_phase(zb, xa):
        return None
    if commutation_phase(xa, xb) or commutation_phase(za, zb):
        return None
    for op in (xa, za, xb, zb):
        p4 = w_power(op, 4)
        if not (p4.is_scalar() and p4.phase == 0):
            return None
    return {"dagger_a": k_a == 3, "dagger_b": k_b == 3}


# Cut positions (ring A, ring A, ring B, ring B) for the magic-square arcs:
# player A holds the single dual steps A[3:5] and B[0:2], which cross at the
# corner the two vertex regions share; player B holds the two complements.
_DS_CUTS = (3, 4, 0, 1)


def ds_magic_square_ops(code: CodeInstance, offset2: Tuple[int, int] = (0, 5)) -> MagicSquareOperators:
    """Construct the two interlocked split dual loops realizing two effective
    ququart pairs shared between the players, then a translated second copy.

    Loop geometry: two corner-kissing 2x2 vertex regions.  Their boundary
    dual loops cross transversally near the shared corner, and the fixed cuts
    `_DS_CUTS` give one arc of each loop exactly one unit of noncommutation
    with its partner (the semionic corner phase).  `_pair_geometry_valid`
    rechecks every requirement (disjoint player supports, commuting cross
    pairs, fourth powers +1) and fixes the orientation of each Z; partner-arc
    phases are then normalized so both loop constraints read +1.
    """
    from .codes import ds_fixed_group
    from .weyl import commutation_phase, dagger, w_multiply

    lat = code.meta["lattice"]
    if lat.Lx < 8 or lat.Ly < 10:
        raise ValueError("magic-square layout needs at least an 8 x 10 torus")
    ring_a = _ds_dual_ring([(x, y) for x in range(0, 2) for y in range(0, 2)])
    ring_b = _ds_dual_ring([(x, y) for x in range(1, 3) for y in range(1, 3)])
    ca1, ca2, cb1, cb2 = _DS_CUTS
    resource = ds_fixed_group(code)
    copies = []
    for dx, dy in ((0, 0), offset2):
        xa, xb = _ds_arc_ops(code, [(x + dx, y + dy) for (x, y) in ring_a], ca1, ca2)
        za, zb = _ds_arc_ops(code, [(x + dx, y + dy) for (x, y) in ring_b], cb1, cb2)
        fix = _pair_geometry_valid(xa, za, xb, zb)
        if fix is None:
            raise ValueError("magic-square arcs fail the pair geometry check")
        if fix["dagger_a"]:
            za = dagger(za)
        if fix["dagger_b"]:
            zb = dagger(zb)
        # normalize partner phases so <X Xt> = 1 and <Z Zt^dag> = 1
        e_x = resource.expectation(w_multiply(xa, xb))
        e_z = resource.expectation(w_multiply(za, dagger(zb)))
        if e_x.kind != "definite" or e_z.kind != "definite":
            raise ValueError("loop constraints X Xt and Z Zt^dag are not definite")
        copies.append((xa, za, xb.scale_w(-e_x.phase_exp), zb.scale_w(e_z.phase_exp), fix))
    (xa, za, xb, zb, fix), (xa2, za2, xb2, zb2, _) = copies
    # the two copies must act on disjoint qudits and commute
    for p in (xa, za, xb, zb):
        for q in (xa2, za2, xb2, zb2):
            if commutation_phase(p, q) != 0:
                raise ValueError("translated copy interferes with the first pair")
    return MagicSquareOperators(
        code,
        resource,
        a_x=[xa, xa2],
        a_z=[za, za2],
        b_x=[xb, xb2],
        b_z=[zb, zb2],
        meta={"cuts": _DS_CUTS, "offset2": offset2, **fix},
    )


# -- serialization ---------------------------------------------------------------------


def serialize_operator_set(ops: CompositeOperatorSet) -> str:
    """JSON header (pairs, constraints, expected phases) followed by one
    operator line per composite, in the standard text form."""
    import json as _json

    header = {
        "players": ops.players,
        "n": ops.n,
        "d": ops.code.d,
        "code_kind": ops.code.kind,
        "constraints": [
            {"kind": c.kind, "indices": list(c.indices), "phase_exp": c.phase_exp,
             "label": c.label}
            for c in ops.constraints
        ],
        "meta": {k: v for k, v in ops.meta.items() if isinstance(k, str)},
    }
    lines = [_json.dumps(header, sort_keys=True, default=str)]
    for i in range(ops.players):
        lines.append(f"X{i} " + ops.x_op(i).to_text())
        lines.append(f"Z{i} " + ops.z_op(i).to_text())
    return "\n".join(lines) + "\n"


def deserialize_operator_set(text: str, code: CodeInstance,
                             resource: Optional[StabilizerGroup] = None) -> CompositeOperatorSet:
    """Rebuild an operator set serialized by serialize_operator_set.

    Each composite becomes one single-site factor per support site, with the
    letter (X, Y or Z) read off the operator's own x/z bits; these factors
    commute, so their order is not observable.  Qubit sets only: a header
    with d != 2, or an operator whose text phase its factors do not
    reproduce, raises ValueError instead of coming back changed.
    """
    import json as _json

    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = _json.loads(lines[0])
    if header["d"] != 2:
        raise ValueError(f"operator sets deserialize for qubit codes only, got d={header['d']}")
    if header["n"] != code.n:
        raise ValueError("register size mismatch")
    letters = {(1, 0): "X", (0, 1): "Z", (1, 1): "Y"}  # (x bit, z bit) -> factor
    factors: Dict[str, Tuple[SiteFactor, ...]] = {}
    for ln in lines[1:]:
        tag, body = ln.split(" ", 1)
        op = PauliOperator.from_text(body, code.n)
        seq = tuple((s, letters[(op.x >> s) & 1, (op.z >> s) & 1]) for s in op.support())
        if ordered_product(seq, code.n) != op:
            raise ValueError(f"{tag}: phase of {body!r} is not reproduced by its site factors")
        factors[tag] = seq
    pairs = [(factors[f"X{i}"], factors[f"Z{i}"]) for i in range(header["players"])]
    constraints = [
        Constraint(c["kind"], tuple(c["indices"]), c["phase_exp"], c.get("label", ""))
        for c in header["constraints"]
    ]
    return CompositeOperatorSet(
        code, resource if resource is not None else code.group, pairs, constraints,
        meta=dict(header.get("meta", {})),
    )
