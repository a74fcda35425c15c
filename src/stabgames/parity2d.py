"""Parity-game strategies on the 2D toric code: the contractible loop split
into arcs with dual paths out through them, the winding variant, and the
homotopy move `deform_arc`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Sequence, Tuple

from .codes import CodeInstance, _region_boundary_walk
from .pauli import PauliOperator
from .strategies import CompositeOperatorSet, Constraint, _edge_pair, _xor_reduce


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
