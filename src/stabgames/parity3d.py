"""Three-player parity-game strategies on the 3D toric codes (face and edge
qubits) and on the X-cube model (prism and cage).
"""

from __future__ import annotations

from .codes import CodeInstance
from .strategies import CompositeOperatorSet, Constraint, _xor_reduce


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
