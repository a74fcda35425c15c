"""Concrete stabilizer resource states: homological CSS codes, the 2D/3D
toric codes and the X-cube model on cubical tori, and the qudit (d=4) double
semion with its string operators and exchange statistics.  The torus builder
is imported by the lattice codes when they run, so the double semion loads
no cell complexes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from . import _Record
from .pauli import PauliOperator, commutes
from .tableau import StabilizerGroup
from .weyl import WeylOperator, commutation_phase, ordered_w_product, w_multiply

if TYPE_CHECKING:
    from .complexes import CellComplex

LabeledGenerator = Tuple[Tuple, object]


class CodeInstance(_Record):
    """A stabilizer code: its group, labeled generators and, for lattice
    codes, the cell complex and the degree of the cells carrying qubits."""

    __slots__ = _fields = ("kind", "d", "n", "group", "labeled_generators", "cell",
                           "qubit_degree", "meta")

    def __init__(
        self,
        kind: str,
        d: int,
        n: int,
        group: StabilizerGroup,
        labeled_generators: Tuple[LabeledGenerator, ...],
        cell: Optional[CellComplex] = None,
        qubit_degree: Optional[int] = None,
        meta: Optional[Dict] = None,
    ):
        self.kind = kind
        self.d = d
        self.n = n
        self.group = group
        self.labeled_generators = labeled_generators
        self.cell = cell
        self.qubit_degree = qubit_degree
        self.meta = {} if meta is None else meta

    def qubit_index(self, key) -> int:
        return self.cell.index(self.qubit_degree, key)

    def generators_by_label(self, label_head: str) -> List[LabeledGenerator]:
        return [(lab, g) for (lab, g) in self.labeled_generators if lab[0] == label_head]

    def violations(self, op, label_head: Optional[str] = None) -> List[Tuple]:
        """Labels of generators that fail to commute with op."""
        out = []
        for lab, g in self.labeled_generators:
            if label_head is not None and lab[0] != label_head:
                continue
            if self.d == 2:
                if not commutes(g, op):
                    out.append(lab)
            else:
                if commutation_phase(g, op) != 0:
                    out.append(lab)
        return out


def code_info(code: CodeInstance) -> Dict:
    counts: Dict[str, int] = {}
    for lab, _ in code.labeled_generators:
        counts[lab[0]] = counts.get(lab[0], 0) + 1
    return {
        "kind": code.kind,
        "d": code.d,
        "n": code.n,
        "generator_counts": counts,
        "rank": code.group.rank,
        "redundancies": len(code.labeled_generators) - code.group.rank,
        "ground_space_log_dim": code.group.ground_space_log_dim(),
    }


# -- homological CSS ------------------------------------------------------------


def homological_css(cell: CellComplex, p: int) -> CodeInstance:
    """Qubits on p-cells; X stabilizers from (p+1)-cell boundaries, Z
    stabilizers from (p-1)-cell coboundaries.  Commutation is automatic
    from boundary-of-boundary = 0."""
    if not 1 <= p <= cell.dim - 1:
        raise ValueError(f"qubit degree p={p} outside 1..{cell.dim - 1}")
    n = len(cell.cells[p])
    gens: List[LabeledGenerator] = []
    for i in range(len(cell.cells[p + 1])):
        support = cell.boundary_indices(p + 1, i)
        op = PauliOperator.from_support(n, "X", support)
        gens.append((("xstab", cell.cells[p + 1][i]), op))
    for i in range(len(cell.cells[p - 1])):
        support = cell.coboundary_indices(p - 1, i)
        op = PauliOperator.from_support(n, "Z", support)
        gens.append((("zstab", cell.cells[p - 1][i]), op))
    group = StabilizerGroup([g for _, g in gens], d=2, n=n)
    return CodeInstance(
        kind=f"homological(p={p})",
        d=2,
        n=n,
        group=group,
        labeled_generators=tuple(gens),
        cell=cell,
        qubit_degree=p,
        meta={"p": p},
    )


def _toric(kind: str, L: int, D: int, p: int) -> CodeInstance:
    from .complexes import build_torus

    code = homological_css(build_torus(*[L] * D), p)
    code.kind = kind
    code.meta["L"] = L
    return code


def toric2d(L: int) -> CodeInstance:
    """2D toric code: qubits on edges, Z stars on vertices, X loops on plaquettes."""
    return _toric("toric2d", L, 2, 1)


def toric3d_faces(L: int) -> CodeInstance:
    """3D toric code with qubits on faces: Z stabilizers on edges (elementary
    dual loops), X stabilizers on cubes (elementary membranes)."""
    return _toric("toric3d_faces", L, 3, 2)


def toric3d_edges(L: int) -> CodeInstance:
    """Dual 3D toric code with qubits on edges: Z stars on vertices, X loops
    on faces."""
    return _toric("toric3d_edges", L, 3, 1)


def toric2d_winding_z_fixers(code: CodeInstance) -> List[PauliOperator]:
    """Two winding dual Z loops whose fixing picks a unique 2D toric ground
    state: one crosses the vertical edges of a row, the other the horizontal
    edges of a column."""
    if code.kind != "toric2d":
        raise ValueError("winding fixers defined for the 2D toric code")
    L = code.meta["L"]
    row = PauliOperator.from_support(
        code.n, "Z", [code.qubit_index(("e", x, 0, 1)) for x in range(L)]
    )
    col = PauliOperator.from_support(
        code.n, "Z", [code.qubit_index(("e", 0, y, 0)) for y in range(L)]
    )
    return [row, col]


def star_operator(code: CodeInstance, key) -> PauliOperator:
    """The Z-type stabilizer labelled by a (p-1)-cell key."""
    for lab, g in code.labeled_generators:
        if lab == ("zstab", key):
            return g
    raise KeyError(key)


def loop_operator(code: CodeInstance, key) -> PauliOperator:
    """The X-type stabilizer labelled by a (p+1)-cell key."""
    for lab, g in code.labeled_generators:
        if lab == ("xstab", key):
            return g
    raise KeyError(key)


# -- X-cube ----------------------------------------------------------------------


def xcube(L: int) -> CodeInstance:
    """X-cube model: qubits on cubic-lattice edges; Z-type 12-edge cube
    operators and X-type 4-edge planar vertex crosses.

    A cube term is the union of the edges on its faces' boundaries; the
    vertex term (v, mu) is the set of edges in v's coboundary whose axis is
    not mu."""
    from .complexes import build_torus

    if L < 2:
        raise ValueError("X-cube needs L >= 2")
    cell = build_torus(L, L, L)
    n = len(cell.cells[1])
    gens: List[LabeledGenerator] = []
    for i, key in enumerate(cell.cells[3]):
        edges = {e for f in cell.boundary_indices(3, i) for e in cell.boundary_indices(2, f)}
        gens.append((("cube",) + key[1:], PauliOperator.from_support(n, "Z", edges)))
    for i, key in enumerate(cell.cells[0]):
        star = cell.coboundary_indices(0, i)
        for mu in (0, 1, 2):
            support = [e for e in star if cell.cells[1][e][-1] != mu]
            gens.append((("vertex",) + key[1:] + (mu,), PauliOperator.from_support(n, "X", support)))
    group = StabilizerGroup([g for _, g in gens], d=2, n=n)
    return CodeInstance(
        kind="xcube",
        d=2,
        n=n,
        group=group,
        labeled_generators=tuple(gens),
        cell=cell,
        qubit_degree=1,
        meta={"L": L},
    )


def xcube_membrane(code: CodeInstance, z_level: int, x_range, y_range) -> PauliOperator:
    """Rectangular dual membrane of X's on z-oriented edges at one level."""
    L = code.meta["L"]
    support = []
    for x in range(*x_range):
        for y in range(*y_range):
            support.append(code.qubit_index(("e", x % L, y % L, z_level % L, 2)))
    return PauliOperator.from_support(code.n, "X", support)


# -- plaquette regions (the 2D toric strategies and the double-semion loops) ------


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


# -- double semion (d = 4) ---------------------------------------------------------


def _ds_edge_keys(Lx: int, Ly: int) -> List[Tuple]:
    return [("e", x, y, o) for x in range(Lx) for y in range(Ly) for o in (0, 1)]


class _DsLattice(_Record):
    __slots__ = _fields = ("Lx", "Ly", "index")

    def __init__(self, Lx: int, Ly: int, index: Dict[Tuple, int]):
        self.Lx = Lx
        self.Ly = Ly
        self.index = index

    def h(self, x: int, y: int) -> int:
        """Horizontal edge from (x, y) to (x+1, y)."""
        return self.index[("e", x % self.Lx, y % self.Ly, 0)]

    def v(self, x: int, y: int) -> int:
        """Vertical edge from (x, y) to (x, y+1)."""
        return self.index[("e", x % self.Lx, y % self.Ly, 1)]


def _ds_lattice(code: CodeInstance) -> _DsLattice:
    if code.kind != "double_semion":
        raise ValueError("operation requires a double-semion code")
    return code.meta["lattice"]


def double_semion(Lx: int, Ly: int) -> CodeInstance:
    """Double-semion stabilizer model: four-dimensional qudits on the edges of
    a periodic square lattice.

    Vertex terms act on six edges with mixed shift/phase factors, plaquette
    terms are Z^2 loops, and edge terms couple X_e^2 to a neighboring Z^2;
    horizontal edges are oriented +x and vertical edges +y.  All generators
    are checked to commute at construction.
    """
    if Lx < 2 or Ly < 2:
        raise ValueError("double semion needs Lx, Ly >= 2")
    keys = _ds_edge_keys(Lx, Ly)
    index = {k: i for i, k in enumerate(keys)}
    lat = _DsLattice(Lx, Ly, index)
    n = len(keys)
    gens: List[LabeledGenerator] = []
    for x in range(Lx):
        for y in range(Ly):
            gens.append((("vertex", x, y), ds_vertex_operator_at(lat, n, x, y)))
    for x in range(Lx):
        for y in range(Ly):
            loop = (lat.h(x, y), lat.h(x, y + 1), lat.v(x, y), lat.v(x + 1, y))
            op = ordered_w_product([(e, 0, 2) for e in loop], 4, n)
            gens.append((("plaquette", x, y), op))
    for x in range(Lx):
        for y in range(Ly):
            op_h = ordered_w_product([(lat.h(x, y), 2, 0), (lat.v(x, y - 1), 0, 2)], 4, n)
            gens.append((("edge", x, y, 0), op_h))
            op_v = ordered_w_product([(lat.v(x, y), 2, 0), (lat.h(x - 1, y), 0, 2)], 4, n)
            gens.append((("edge", x, y, 1), op_v))
    group = StabilizerGroup([g for _, g in gens], d=4, n=n)
    code = CodeInstance(
        kind="double_semion",
        d=4,
        n=n,
        group=group,
        labeled_generators=tuple(gens),
        cell=None,
        qubit_degree=None,
        meta={"Lx": Lx, "Ly": Ly},
    )
    code.meta["lattice"] = lat
    return code


def ds_vertex_operator_at(lat: _DsLattice, n: int, x: int, y: int) -> WeylOperator:
    """Six-edge vertex term: X on the west and south edges, X^dag Z on the
    east edge, X^dag Z^dag on the north edge, Z^dag on the northeast
    horizontal edge, Z on the east vertical edge.

    Within-site factors are in canonical order (X part left of Z part) with
    no global phase; this is the unique phase choice (up to irrelevant even
    lattice sizes) for which the full set of vertex, plaquette and edge terms
    generates a consistent group at every torus size.
    """
    factors = [
        (lat.h(x - 1, y), 1, 0),
        (lat.h(x, y), 3, 1),
        (lat.v(x, y - 1), 1, 0),
        (lat.v(x, y), 3, 3),
        (lat.h(x, y + 1), 0, 3),
        (lat.v(x + 1, y), 0, 1),
    ]
    return ordered_w_product(factors, 4, n)


def _ds_step_factors(lat: _DsLattice, x: int, y: int, direction: str, kind: str):
    """Factors (edge, x_exp, z_exp) of one unit step of a string leaving (x, y).

    Kinds "s" and "sbar" step between plaquettes (plaquette (x, y) has SW
    corner vertex (x, y)): X or X^dag on the crossed edge and a Z or Z^dag
    companion; "sbar" swaps X <-> X^dag (the partner-anyon string).  Kind
    "ssbar" steps between vertices and puts Z^2 on the edge it runs along.
    """
    if kind == "ssbar":
        if direction in "EW":
            return [(lat.h(x if direction == "E" else x - 1, y), 0, 2)]
        return [(lat.v(x, y if direction == "N" else y - 1), 0, 2)]
    xa = 3 if kind == "sbar" else 1  # exponent used where the plain string applies X
    xb = 4 - xa  # exponent used where the plain string applies X^dag
    if direction == "E":
        return [(lat.v(x + 1, y), xa, 0), (lat.h(x + 1, y + 1), 0, 1)]
    if direction == "W":
        return [(lat.v(x, y), xb, 0), (lat.h(x, y + 1), 0, 3)]
    if direction == "N":
        return [(lat.h(x, y + 1), xb, 0), (lat.v(x + 1, y + 1), 0, 1)]
    if direction == "S":
        return [(lat.h(x, y), xa, 0), (lat.v(x + 1, y), 0, 3)]
    raise ValueError(f"bad step direction {direction!r}")


def _dual_path_steps(path: Sequence[Tuple[int, int]], Lx: int, Ly: int):
    """(x0, y0, direction) for each unit step of a path on the Lx x Ly torus;
    used for dual (plaquette) and direct (vertex) paths alike."""
    steps = []
    for (x0, y0), (x1, y1) in zip(path, path[1:]):
        dx = (x1 - x0) % Lx
        dy = (y1 - y0) % Ly
        if (dx, dy) == (1, 0):
            steps.append((x0, y0, "E"))
        elif (dx, dy) == (Lx - 1, 0):
            steps.append((x0, y0, "W"))
        elif (dx, dy) == (0, 1):
            steps.append((x0, y0, "N"))
        elif (dx, dy) == (0, Ly - 1):
            steps.append((x0, y0, "S"))
        else:
            raise ValueError(f"path not connected at {(x0, y0)} -> {(x1, y1)}")
    return steps


def ds_string(code: CodeInstance, kind: str, path: Sequence[Tuple[int, int]]) -> WeylOperator:
    """Anyon string operator along a directed path.

    kind "s" or "sbar": `path` is a list of plaquette coordinates (dual
    path); kind "ssbar": `path` is a list of vertex coordinates (direct
    path) and the string is the Z^2 boson string.  The ordering of steps
    fixes the overall phase: the first step is applied first.
    """
    lat = _ds_lattice(code)
    if len(path) < 2:
        raise ValueError("path needs at least two sites")
    if kind not in ("s", "sbar", "ssbar"):
        raise ValueError(f"unknown string kind {kind!r}")
    factors = [
        f
        for x, y, direction in _dual_path_steps(path, lat.Lx, lat.Ly)
        for f in _ds_step_factors(lat, x, y, direction, kind)
    ]
    return ordered_w_product(factors, 4, code.n)


def ds_winding_fixers(code: CodeInstance) -> List[WeylOperator]:
    """Two winding boson (Z^2) strings whose fixing selects a unique ground
    state out of the fourfold-degenerate torus ground space."""
    lat = _ds_lattice(code)
    horiz = [(x, 0) for x in range(lat.Lx)] + [(0, 0)]
    vert = [(0, y) for y in range(lat.Ly)] + [(0, 0)]
    return [ds_string(code, "ssbar", horiz), ds_string(code, "ssbar", vert)]


def ds_fixed_group(code: CodeInstance) -> StabilizerGroup:
    """Code group with both winding sectors pinned (unique ground state)."""
    return code.group.fix_sector(ds_winding_fixers(code))


def ds_vertex_loop(code: CodeInstance, x: int, y: int, counterclockwise: bool = True) -> WeylOperator:
    """Closed elementary dual loop of semion string around vertex (x, y)."""
    ring = [(x - 1, y - 1), (x, y - 1), (x, y), (x - 1, y), (x - 1, y - 1)]
    if not counterclockwise:
        ring = list(reversed(ring))
    return ds_string(code, "s", ring)


# Hops 1->2, 3->1, 2->3 of the exchange process around the junction (1, 1):
# endpoints 1 (west), 2 (north), 3 (east) for the semions, on dual
# (plaquette) paths; the boson's hops run on direct (vertex) paths.
_SEMION_HOPS = (
    [(0, 1), (1, 1), (1, 2), (1, 3)],
    [(3, 1), (2, 1), (1, 1), (0, 1)],
    [(1, 3), (1, 2), (1, 1), (2, 1), (3, 1)],
)
_EXCHANGE_HOPS = {
    "s": _SEMION_HOPS,
    "sbar": _SEMION_HOPS,
    "ssbar": (
        [(3, 1), (2, 1), (1, 1), (1, 2), (1, 3)],
        [(0, 1), (1, 1), (2, 1), (3, 1)],
        [(1, 3), (1, 2), (1, 1), (0, 1)],
    ),
}


def exchange_statistics(code: CodeInstance, anyon: str) -> complex:
    """Statistical phase from the ordered three-arm hop sequence.

    Three endpoints are placed counterclockwise around a junction; the three
    hop strings (1->2, then 3->1, then 2->3) swap two excitations and the
    leg phases cancel pairwise, leaving exactly the exchange phase.  The
    composite is a closed string, so its expectation on the code space is
    definite; anything else means a bad path choice and raises.
    """
    if anyon not in _EXCHANGE_HOPS:
        raise ValueError(f"unknown anyon {anyon!r}")
    hop_12, hop_31, hop_23 = (ds_string(code, anyon, path) for path in _EXCHANGE_HOPS[anyon])
    total = w_multiply(hop_23, w_multiply(hop_31, hop_12))
    e = code.group.expectation(total)
    if e.kind != "definite":
        raise ValueError(f"exchange process is not definite on the code space ({e.kind})")
    return e.value
