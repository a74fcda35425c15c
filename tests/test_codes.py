"""Code-construction tests: toric codes, X-cube, double semion."""

import random

import numpy as np
import pytest

from stabgames.cellulation import plane_graph_complex, random_stacked_triangulation
from stabgames.codes import (
    double_semion,
    ds_fixed_group,
    ds_string,
    ds_vertex_loop,
    ds_winding_fixers,
    exchange_statistics,
    homological_css,
    loop_operator,
    star_operator,
    toric2d,
    toric3d_edges,
    toric3d_faces,
    xcube,
    xcube_membrane,
)
from stabgames.complexes import build_torus
from stabgames.dense import dense_expectation, state_from_group
from stabgames.pauli import PauliOperator, multiply
from stabgames.tableau import StabilizerGroup
from stabgames.weyl import WeylOperator, dagger, w_multiply


class TestToric2d:
    def test_rank_and_degeneracy(self):
        code = toric2d(2)
        assert code.n == 8
        assert code.group.rank == 6
        assert code.group.ground_space_log_dim() == 2

    def test_global_constraints(self):
        code = toric2d(3)
        all_stars = PauliOperator.identity(code.n)
        for lab, g in code.generators_by_label("zstab"):
            all_stars = multiply(all_stars, g)
        assert all_stars.is_identity()
        all_loops = PauliOperator.identity(code.n)
        for lab, g in code.generators_by_label("xstab"):
            all_loops = multiply(all_loops, g)
        assert all_loops.is_identity()

    def test_single_x_excites_two_stars(self):
        code = toric2d(3)
        op = PauliOperator.single(code.n, code.qubit_index(("e", 1, 1, 0)), "X")
        assert len(code.violations(op, "zstab")) == 2

    def test_matches_direct_construction(self):
        # build stars and plaquettes by hand and compare generator sets
        L = 3
        code = toric2d(L)
        idx = code.qubit_index
        for x in range(L):
            for y in range(L):
                star = PauliOperator.from_support(
                    code.n,
                    "Z",
                    [
                        idx(("e", x, y, 0)),
                        idx(("e", (x - 1) % L, y, 0)),
                        idx(("e", x, y, 1)),
                        idx(("e", x, (y - 1) % L, 1)),
                    ],
                )
                assert star_operator(code, ("v", x, y)) == star
                plaq = PauliOperator.from_support(
                    code.n,
                    "X",
                    [
                        idx(("e", x, y, 0)),
                        idx(("e", x, (y + 1) % L, 0)),
                        idx(("e", x, y, 1)),
                        idx(("e", (x + 1) % L, y, 1)),
                    ],
                )
                assert loop_operator(code, ("p", x, y)) == plaq


class TestToric3d:
    def test_faces_variant(self):
        code = toric3d_faces(2)
        assert code.n == 24
        assert code.group.ground_space_log_dim() == 3

    def test_edges_variant(self):
        code = toric3d_edges(2)
        assert code.group.ground_space_log_dim() == 3

    def test_local_edge_constraint_at_vertices(self):
        # product of the six edge stabilizers around any vertex is the identity
        code = toric3d_faces(2)
        L = 2
        v = (0, 0, 0)
        acc = PauliOperator.identity(code.n)
        for a in (0, 1, 2):
            for amt in (0, -1):
                key = ("e", *((v[0] + (amt if a == 0 else 0)) % L,
                              (v[1] + (amt if a == 1 else 0)) % L,
                              (v[2] + (amt if a == 2 else 0)) % L), a)
                acc = multiply(acc, star_operator(code, key))
        assert acc.is_identity()


class TestXCube:
    @pytest.mark.parametrize("L,want", [(2, 9), (3, 15)])
    def test_ground_space_log_dim(self, L, want):
        assert xcube(L).group.ground_space_log_dim() == 6 * L - 3 == want

    def test_single_x_creates_four_fractons(self):
        code = xcube(3)
        op = PauliOperator.single(code.n, code.qubit_index(("e", 1, 1, 1, 2)), "X")
        assert len(code.violations(op, "cube")) == 4

    def test_membrane_creates_corner_fractons(self):
        code = xcube(4)
        mem = xcube_membrane(code, z_level=1, x_range=(0, 3), y_range=(0, 3))
        violated = code.violations(mem, "cube")
        assert len(violated) == 4
        xs = sorted({lab[1] for lab in violated})
        ys = sorted({lab[2] for lab in violated})
        assert len(xs) == 2 and len(ys) == 2  # well-separated corners

    def test_planar_vertex_relation(self):
        # B_v^x B_v^y B_v^z = identity at every vertex
        code = xcube(2)
        for x in range(2):
            for y in range(2):
                for z in range(2):
                    acc = PauliOperator.identity(code.n)
                    for lab, g in code.labeled_generators:
                        if lab[:4] == ("vertex", x, y, z):
                            acc = multiply(acc, g)
                    assert acc.is_identity()


class TestHomologicalCss:
    def test_logicals_match_homology(self):
        for cell, p in ((build_torus(3, 3), 1), (build_torus(2, 2), 1)):
            code = homological_css(cell, p)
            assert code.group.ground_space_log_dim() == cell.homology_dim(p)

    def test_sphere_codes_have_unique_state(self):
        for seed in range(3):
            g = random_stacked_triangulation(3, seed=seed)
            primal, _ = plane_graph_complex(g)
            code = homological_css(primal, 1)
            assert code.group.ground_space_log_dim() == 0

    def test_stabilizer_count_identity(self):
        # rank of X-type + rank of Z-type = n - dim H_p
        for cell, p in ((build_torus(3, 3), 1), (build_torus(2, 2), 1)):
            code = homological_css(cell, p)
            dim_bp = cell.boundary_rank(p + 1)
            dim_bp_co = cell.boundary_rank(p)  # rank of delta_{p-1} = rank of d_p
            n = code.n
            assert dim_bp + dim_bp_co == n - cell.homology_dim(p)
            assert code.group.rank == dim_bp + dim_bp_co

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            homological_css(build_torus(2, 2), 2)


class TestDoubleSemion:
    def test_commuting_and_degeneracy(self):
        for shape in ((2, 2), (3, 3), (3, 2)):
            code = double_semion(*shape)
            assert code.group.ground_space_log_dim() == 2
            # Z4 counting: group order is 4^(n-1)
            assert code.group.group_order() == 4 ** (code.n - 1)

    def test_vertex_loop_proportional_to_vertex_term(self):
        code = double_semion(4, 4)
        av = dict(code.labeled_generators)[("vertex", 2, 2)]
        ccw = ds_vertex_loop(code, 2, 2, counterclockwise=True)
        r = w_multiply(ccw, dagger(av))
        assert r.is_scalar() and r.phase == 2  # ccw loop = i * A_v
        cw = ds_vertex_loop(code, 2, 2, counterclockwise=False)
        r2 = w_multiply(cw, dagger(dagger(av)))
        assert r2.is_scalar() and r2.phase == 6  # cw loop = -i * A_v^dag

    def test_sbar_loop_is_conjugate(self):
        code = double_semion(4, 4)
        ring = [(1, 1), (2, 1), (2, 2), (1, 2), (1, 1)]
        s_loop = ds_string(code, "s", ring)
        sbar_loop = ds_string(code, "sbar", ring)
        es = code.group.expectation(s_loop)
        eb = code.group.expectation(sbar_loop)
        assert es.kind == "definite" and eb.kind == "definite"
        assert es.value == pytest.approx(np.conj(eb.value))

    def test_reversed_path_is_adjoint(self):
        code = double_semion(4, 4)
        path = [(0, 0), (1, 0), (1, 1), (2, 1)]
        fwd = ds_string(code, "s", path)
        rev = ds_string(code, "s", list(reversed(path)))
        assert rev == dagger(fwd)

    def test_exchange_statistics(self):
        code = double_semion(4, 4)
        assert exchange_statistics(code, "s") == pytest.approx(1j)
        assert exchange_statistics(code, "sbar") == pytest.approx(-1j)
        assert exchange_statistics(code, "ssbar") == pytest.approx(1.0)

    def test_sector_fixing_and_dense_agreement(self):
        code = double_semion(2, 2)
        fixed = ds_fixed_group(code)
        assert fixed.ground_space_dim() == 1
        state = state_from_group(fixed)
        for lab, g in code.labeled_generators:
            assert dense_expectation(state, g) == pytest.approx(1.0, abs=1e-10)
        rng = random.Random(91)
        for _ in range(40):
            op = WeylOperator(
                4,
                code.n,
                tuple(rng.randrange(4) for _ in range(code.n)),
                tuple(rng.randrange(4) for _ in range(code.n)),
                2 * rng.randrange(4),
            )
            tab = fixed.expectation(op)
            dense_val = dense_expectation(state, op)
            if tab.kind == "definite":
                assert dense_val == pytest.approx(tab.value, abs=1e-10)
            else:
                assert abs(dense_val) < 1e-10

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            double_semion(1, 4)
