"""Cellulation, homology and plane-graph tests."""

import random

import numpy as np
import pytest

from stabgames.cellulation import (
    cycle_graph,
    dipole_graph,
    plane_graph_complex,
    random_stacked_triangulation,
    wheel_graph,
)
from stabgames.codes import homological_css
from stabgames.complexes import (
    CellComplex,
    _transpose,
    build_torus,
    dualize,
    gf2_eliminate,
    gf2_rank,
)


def naive_rank(rows, ncols):
    """Dense GF(2) elimination oracle."""
    if not rows:
        return 0
    m = np.array([[(r >> c) & 1 for c in range(ncols)] for r in rows], dtype=np.uint8)
    rank = 0
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, len(m)):
            if m[r, col]:
                piv = r
                break
        if piv is None:
            continue
        m[[row, piv]] = m[[piv, row]]
        for r in range(len(m)):
            if r != row and m[r, col]:
                m[r] ^= m[row]
        rank += 1
        row += 1
        if row == len(m):
            break
    return rank


def test_gf2_rank_against_naive():
    rng = random.Random(42)
    for _ in range(200):
        ncols = rng.randrange(1, 12)
        rows = [rng.getrandbits(ncols) for _ in range(rng.randrange(0, 10))]
        cols = [sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(ncols)]
        assert gf2_rank(rows) == naive_rank(rows, ncols)
        assert gf2_rank(cols) == naive_rank(cols, len(rows)) == naive_rank(rows, ncols)
        # row i is kept exactly when it raises the rank of rows[:i]
        kept, kernel, _ = gf2_eliminate(rows)
        assert kept == tuple(
            i for i in range(len(rows))
            if naive_rank(rows[: i + 1], ncols) > naive_rank(rows[:i], ncols)
        )
        # the kernel is a basis of the combinations that XOR to zero, and u0
        # solves the system exactly when the target is in the row span
        assert len(kernel) == len(rows) - len(kept) == naive_rank(kernel, len(rows))
        assert all(_combine(rows, u) == 0 for u in kernel)
        target = rng.getrandbits(ncols)
        u0 = gf2_eliminate(rows, target)[2]
        solvable = naive_rank(rows + [target], ncols) == len(kept)
        assert (u0 is not None) == solvable
        if solvable:
            assert _combine(rows, u0) == target


def _combine(rows, u):
    acc = 0
    for j, row in enumerate(rows):
        if u >> j & 1:
            acc ^= row
    return acc


class TestTorusBuilders:
    def test_2d_counts(self):
        assert build_torus(2, 2).dims() == (4, 8, 4)
        assert build_torus(3, 3).dims() == (9, 18, 9)

    def test_3d_counts(self):
        assert build_torus(2, 2, 2).dims() == (8, 24, 24, 8)

    def test_broken_cell_complex_rejected(self):
        # the same short plaquette, given by keys: CellComplex refuses it
        c = build_torus(3, 3)
        plaquette = c.boundary_keys[2][4]

        def with_plaquette(keys):
            faces = c.boundary_keys[2][:4] + (keys,) + c.boundary_keys[2][5:]
            return CellComplex(2, c.cells, c.boundary_keys[:2] + (faces,), closed=True)

        with pytest.raises(ValueError, match="boundary of boundary"):
            with_plaquette(plaquette[1:])
        # a boundary cell listed twice cancels, as in the boundary masks
        with pytest.raises(ValueError, match="boundary of boundary"):
            with_plaquette(plaquette + plaquette[:1])
        assert with_plaquette(plaquette + plaquette[:1] * 2).boundary_rows(2) == c.boundary_rows(2)

    def test_small_l_rejected(self):
        with pytest.raises(ValueError):
            build_torus(1, 1)
        for sizes in ((3,), (2, 2, 2, 2)):
            with pytest.raises(ValueError):
                build_torus(*sizes)

    def test_keys_and_boundary_order(self):
        # a cell's boundary lists its sub-cells in label order, each at the
        # corner and then one step along the axis it drops (wrapping)
        c = build_torus(3, 4)
        assert c.meta == {"lattice": "torus2d", "L": 3, "Lx": 3, "Ly": 4}
        assert c.cells[1][:3] == (("e", 0, 0, 0), ("e", 0, 0, 1), ("e", 0, 1, 0))
        assert c.boundary_keys[2][c.index(2, ("p", 2, 3))] == (
            ("e", 2, 3, 0), ("e", 2, 0, 0), ("e", 2, 3, 1), ("e", 0, 3, 1))
        c = build_torus(2, 3, 4)
        assert c.meta == {"lattice": "torus3d", "L": 2, "Lx": 2, "Ly": 3, "Lz": 4}
        assert build_torus(3, 3, 3).meta == {"lattice": "torus3d", "L": 3}
        assert c.cells[2][:3] == (("f", 0, 0, 0, 0), ("f", 0, 0, 0, 1), ("f", 0, 0, 0, 2))
        assert c.boundary_keys[2][c.index(2, ("f", 1, 2, 3, 0))] == (
            ("e", 1, 2, 3, 1), ("e", 1, 2, 0, 1), ("e", 1, 2, 3, 2), ("e", 1, 0, 3, 2))
        assert c.boundary_keys[3][c.index(3, ("c", 1, 2, 3))] == (
            ("f", 1, 2, 3, 0), ("f", 0, 2, 3, 0), ("f", 1, 2, 3, 1),
            ("f", 1, 0, 3, 1), ("f", 1, 2, 3, 2), ("f", 1, 2, 0, 2))
        assert [c.homology_dim(i) for i in range(4)] == [1, 3, 3, 1]

    def test_equality_ignores_caches(self):
        c = build_torus(3, 3)
        assert c == build_torus(3, 3)
        c.coboundary_indices(0, 0)  # fills the coboundary cache
        assert c == build_torus(3, 3)
        assert "_cobound" not in repr(c)

    def test_chain_ranks_each_boundary_once(self, monkeypatch):
        import stabgames.complexes as complexes

        calls = []
        rank = complexes.gf2_rank
        monkeypatch.setattr(complexes, "gf2_rank", lambda rows: calls.append(rows) or rank(rows))
        c = build_torus(3, 3, 3)
        assert [c.homology_dim(i) for i in range(4)] == [1, 3, 3, 1]
        assert c.euler_check()
        assert len(calls) == 3  # one per boundary map d_1, d_2, d_3
        assert c == build_torus(3, 3, 3)
        assert "_ranks" not in repr(c)


def _doubled_edge_torus():
    # build_torus(3, 4) with one plaquette also listing an edge outside its
    # boundary twice: the two entries cancel, so the complex is the same
    c = build_torus(3, 4)
    faces = list(c.boundary_keys[2])
    extra = next(e for e in c.cells[1] if e not in faces[4])
    faces[4] += (extra, extra)
    return CellComplex(2, c.cells, c.boundary_keys[:2] + (tuple(faces),), closed=True)


class TestDerivedRows:
    CASES = {"torus2d": lambda: build_torus(3, 4), "torus3d": lambda: build_torus(2, 3, 2),
             "doubled": _doubled_edge_torus}

    @pytest.mark.parametrize("case", CASES)
    def test_rows_and_ranks(self, case):
        c = self.CASES[case]()
        for k in range(c.dim):
            assert c.coboundary_rows(k) == _transpose(c.boundary_rows(k + 1), len(c.cells[k]))
        for k in range(1, c.dim + 1):
            assert c.boundary_rank(k) == naive_rank(c.boundary_rows(k), len(c.cells[k - 1]))

    @pytest.mark.parametrize("case", ["torus2d", "torus3d"])
    def test_degree_outside_range_refused(self, case):
        # a negative degree would index the levels from the end, and dim + 1
        # would run past them; degrees 0 and dim are valid, with zero rows
        c = self.CASES[case]()
        accessors = [c.boundary_rows, c.coboundary_rows,
                     lambda k: c.boundary_indices(k, 0), lambda k: c.coboundary_indices(k, 0),
                     lambda k: c.index(k, c.cells[c.dim][0])]
        for k in (-1, c.dim + 1):
            for read in accessors:
                with pytest.raises(ValueError, match=f"degree k={k} outside 0..{c.dim}"):
                    read(k)
        assert set(c.boundary_rows(0)) == set(c.coboundary_rows(c.dim)) == {0}
        assert c.boundary_indices(0, 0) == c.coboundary_indices(c.dim, 0) == ()

    def test_repeated_entries_cancel(self):
        # a cell listed twice counts twice, so it drops out of the rows
        plain, doubled = build_torus(3, 4), _doubled_edge_torus()
        assert doubled.boundary_rows(2) == plain.boundary_rows(2)
        assert doubled.coboundary_rows(1) == plain.coboundary_rows(1)
        assert doubled.boundary_keys != plain.boundary_keys

    def test_code_cancels_repeated_entries(self):
        # homological_css reads the same rows, so the doubled edge drops out of
        # its X plaquette too, and the code is the plain torus's
        plain, doubled = (homological_css(c, 1) for c in (build_torus(3, 4), _doubled_edge_torus()))
        assert doubled.labeled_generators == plain.labeled_generators
        assert doubled.group.rows == plain.group.rows


class TestHomology:
    def test_torus_2d(self):
        c = build_torus(3, 3)
        assert [c.homology_dim(i) for i in range(3)] == [1, 2, 1]

    def test_torus_3d(self):
        c = build_torus(2, 2, 2)
        assert [c.homology_dim(i) for i in range(4)] == [1, 3, 3, 1]

    def test_sphere_complex(self):
        c, _ = plane_graph_complex(random_stacked_triangulation(4, seed=1))
        assert [c.homology_dim(i) for i in range(3)] == [1, 0, 1]

    def test_cohomology_matches_homology(self, monkeypatch):
        sphere, _ = plane_graph_complex(random_stacked_triangulation(4, seed=1))
        cells = [build_torus(2, 2), build_torus(2, 2, 2), sphere]
        homology = [[c.homology_dim(i) for i in range(c.dim + 1)] for c in cells]

        def no_boundary_rank(self, k):
            raise AssertionError("cohomology must not reuse the boundary ranks")

        # cohomology ranks the transposed matrices, independently of boundary_rank
        monkeypatch.setattr(CellComplex, "boundary_rank", no_boundary_rank)
        for c, hom in zip(cells, homology):
            assert [c.cohomology_dim(i) for i in range(c.dim + 1)] == hom


class TestEulerCheck:
    def test_tori_have_zero_characteristic(self):
        assert build_torus(2, 2).euler_check()
        assert build_torus(3, 3, 3).euler_check()
        assert sum((-1) ** i * d for i, d in enumerate(build_torus(2, 2, 2).dims())) == 0

    def test_sphere_has_characteristic_two(self):
        p, d = plane_graph_complex(wheel_graph(5))
        for c in (p, d):
            assert c.euler_check()
            assert sum((-1) ** i * dd for i, dd in enumerate(c.dims())) == 2


class TestDualize:
    def test_2d_self_duality(self):
        c = build_torus(3, 3)
        d = dualize(c)
        assert d.dims() == c.dims()
        assert d.homology_dim(1) == 2

    def test_3d_counts_swap(self):
        c = build_torus(2, 2, 2)
        d = dualize(c)
        assert d.dims() == tuple(reversed(c.dims()))

    def test_double_dual_restores(self):
        c = build_torus(2, 2, 2)
        dd = dualize(dualize(c))
        assert dd.dims() == c.dims()
        for k in range(1, 4):
            assert dd.boundary_rank(k) == c.boundary_rank(k)

    def test_dual_homology_equals_primal_cohomology(self):
        c = build_torus(2, 2, 2)
        d = dualize(c)
        for i in range(4):
            assert d.homology_dim(i) == c.cohomology_dim(3 - i)

    def test_open_complex_rejected(self):
        c = build_torus(2, 2)
        open_c = CellComplex(c.dim, c.cells, c.boundary_keys, closed=False)
        with pytest.raises(ValueError):
            dualize(open_c)


class TestPlaneGraphs:
    def test_triangle(self):
        g = cycle_graph(3)
        p, d = plane_graph_complex(g)
        assert p.dims()[2] == 2 and d.dims()[2] == 3
        assert p.dims()[2] + d.dims()[2] - 2 == 3

    def test_wheel_counts(self):
        g = wheel_graph(4)
        assert len(g.edges) == 8
        p, d = plane_graph_complex(g)
        assert p.dims()[2] + d.dims()[2] - 2 == 8
        # self-dual: same degree sequence of faces vs vertices
        assert sorted(len(fs) for fs in g.face_edge_sets()) == sorted(
            len([1 for (u, v) in g.edges if w in (u, v)]) for w in g.vertices
        )

    def test_cycle_dipole_duality(self):
        c, d = cycle_graph(6), dipole_graph(6)
        assert len(c.faces) == 2 and len(d.faces) == 6

    def test_euler_formula_on_random_graphs(self):
        for seed in range(10):
            g = random_stacked_triangulation(2 + seed % 5, seed=seed)
            p, d = plane_graph_complex(g)
            assert p.dims()[2] + d.dims()[2] - 2 == len(g.edges)

    def test_dual_is_the_geometric_dual(self):
        graphs = [random_stacked_triangulation(2 + seed % 5, seed=seed) for seed in range(10)]
        graphs += [wheel_graph(4), wheel_graph(5), cycle_graph(6), dipole_graph(6)]
        for g in graphs:
            _, d = plane_graph_complex(g)
            assert d.cells[1] == tuple(("e", i) for i in range(len(g.edges)))
            assert d.cells[2] == tuple(("v", v) for v in g.vertices)
            # dual 1-cell i joins the faces on the two sides of edge i
            for i, faces in enumerate(g.edge_faces()):
                assert set(d.boundary_indices(1, i)) == set(faces)
            # dual 2-cell v is bounded by the edges at v
            for vi, v in enumerate(g.vertices):
                at_v = {i for i, ends in enumerate(g.edges) if v in ends}
                assert set(d.boundary_indices(2, vi)) == at_v

    def test_self_loop_rejected(self):
        from stabgames.cellulation import PlaneGraph

        with pytest.raises(ValueError):
            PlaneGraph((0,), ((0, 0),), {0: [(0, 0), (0, 1)]})

    def test_bridge_rejected_by_dual(self):
        from stabgames.cellulation import PlaneGraph

        # path graph: its single edge is a bridge, dual has a self-loop
        g = PlaneGraph((0, 1), ((0, 1),), {0: [(0, 0)], 1: [(0, 1)]})
        assert not g.dual_is_loopless()
        with pytest.raises(ValueError):
            plane_graph_complex(g)
