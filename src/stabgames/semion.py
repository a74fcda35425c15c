"""The double-semion magic-square strategy: two effective ququart pairs per
player, realized as arcs of two interlocked semion-string loops.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from . import _Record
from .codes import CodeInstance, _region_boundary_walk, ds_fixed_group, ds_string
from .tableau import StabilizerGroup
from .weyl import commutation_phase, dagger, w_multiply, w_power


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
    path1 = ring[cut1 : cut2 + 1]
    path2 = ring[cut2:] + ring[1 : cut1 + 1]
    return ds_string(code, "s", path1), ds_string(code, "s", path2)


def _pair_geometry_valid(xa, za, xb, zb) -> Optional[Dict]:
    """Check one arc assignment; return the dagger fixes or None.

    Requirements: disjoint player supports, Z X = omega^{+-1} X Z within a
    player and full commutation across players, and fourth powers equal
    to +1.
    """
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
