"""Strategy-builder tests: crossing patterns, constraints, twist signs,
homotopy robustness, embeddings."""

import random

import pytest

from stabgames.codes import (
    double_semion,
    loop_operator,
    star_operator,
    toric2d,
    toric3d_edges,
    toric3d_faces,
    xcube,
)
from stabgames.pauli import PauliOperator, commutes, multiply, ordered_product, twist_product
from stabgames.strategies import (
    CompositeOperatorSet,
    block_cellulation_ops,
    cycle_dipole_embedding,
    deform_arc,
    ds_magic_square_ops,
    fan_cellulation_ops,
    ghz_ops,
    plane_graph_embedding,
    tc2d_parity_ops,
    tc3d_1form_ops,
    tc3d_2form_ops,
    validate,
    wheel_embedding,
    xcube_ops,
)
from stabgames.tableau import StabilizerGroup


class TestTwistIdentity:
    def test_star_plaquette_twist_is_minus_one(self):
        code = toric2d(3)
        group = code.group
        # vertex (1,1) with its four adjacent plaquettes
        star = star_operator(code, ("v", 1, 1))
        for pk in (("p", 1, 1), ("p", 0, 1), ("p", 0, 0), ("p", 1, 0)):
            plaq = loop_operator(code, pk)
            shared = [s for s in star.support() if (plaq.x >> s) & 1]
            assert len(shared) == 2
            twisted = twist_product(star, plaq, [shared[0]])
            e = group.expectation(twisted)
            assert e.kind == "definite" and e.value == pytest.approx(-1.0)
            plain = group.expectation(multiply(star, plaq))
            assert plain.value == pytest.approx(1.0)

    def test_composite_twist_matches_plain_times_minus_one(self):
        code = toric2d(4)
        ops = tc2d_parity_ops(code, 3)
        x1y2y3 = multiply(ops.x_op(0), multiply(ops.y_op(1), ops.y_op(2)))
        plain = multiply(
            multiply(ops.x_op(0), multiply(ops.x_op(1), ops.x_op(2))),
            multiply(ops.z_op(1), ops.z_op(2)),
        )
        assert x1y2y3 == plain.scale_i(2)


class TestTc2dBuilder:
    @pytest.mark.parametrize("L", [3, 4, 5])
    @pytest.mark.parametrize("P", [3, 5, 8])
    def test_validates(self, L, P):
        ops = tc2d_parity_ops(toric2d(L), P)
        report = validate(ops)
        assert report.ok, report.problems

    def test_constraint_signs(self):
        code = toric2d(4)
        ops = tc2d_parity_ops(code, 3)
        g = ops.resource
        xxx = multiply(ops.x_op(0), multiply(ops.x_op(1), ops.x_op(2)))
        assert g.expectation(xxx).value == pytest.approx(1.0)
        for combo in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
            x, ya, yb = combo
            op = PauliOperator.identity(code.n)
            for i in range(3):
                op = multiply(op, ops.x_op(i) if i == x else ops.y_op(i))
            assert g.expectation(op).value == pytest.approx(-1.0)

    def test_winding_variant(self):
        ops = tc2d_parity_ops(toric2d(4), 4, winding=True)
        report = validate(ops)
        assert report.ok, report.problems
        # the loop is logical on the unfixed group
        loop = PauliOperator.identity(ops.n)
        for i in range(4):
            loop = multiply(loop, ops.x_op(i))
        assert ops.code.group.expectation(loop).kind == "logical"
        assert ops.resource.expectation(loop).is_definite(0)

    def test_flipped_sector_flags_constraints(self):
        code = toric2d(3)
        ops = tc2d_parity_ops(code, 3)
        # flip one star; an independent generating set is needed since the
        # product of all stars is the identity
        flipped_gens = [
            (g.scale_i(2) if lab == ("zstab", ("v", 1, 1)) else g)
            for lab, g in code.labeled_generators
            if lab != ("zstab", ("v", 0, 0))
        ]
        flipped = StabilizerGroup(flipped_gens, d=2, n=code.n)
        bad = CompositeOperatorSet(code, flipped, ops.pairs, ops.constraints)
        report = validate(bad)
        assert not report.ok
        assert any("phase" in p for p in report.problems)

    def test_homotopy_deformation_preserves_validation(self):
        rng = random.Random(3)
        code = toric2d(5)
        ops = tc2d_parity_ops(code, 4)
        # push arc 0 across a plaquette adjacent to one of its edges, away
        # from every crossing edge used by the Z paths
        crossing_sites = {zf[0][0] for zf in [p[1] for p in ops.pairs]}
        for _ in range(20):
            x, y = rng.randrange(5), rng.randrange(5)
            cand = deform_arc(ops, 0, (x, y))
            rep = validate(cand)
            if rep.ok:
                ev_sites = {s for s, _ in cand.pairs[0][0]}
                if ev_sites != {s for s, _ in ops.pairs[0][0]}:
                    break
        else:
            pytest.skip("no crossing-preserving deformation found")
        assert rep.ok


class Test3dBuilders:
    @pytest.mark.parametrize("L", [2, 3])
    def test_1form(self, L):
        report = validate(tc3d_1form_ops(toric3d_faces(L)))
        assert report.ok, report.problems

    @pytest.mark.parametrize("L", [2, 3])
    def test_2form(self, L):
        report = validate(tc3d_2form_ops(toric3d_edges(L)))
        assert report.ok, report.problems

    def test_1form_pair_products_are_single_stabilizers(self):
        code = toric3d_faces(2)
        ops = tc3d_1form_ops(code)
        z12 = multiply(ops.z_op(0), ops.z_op(1))
        assert any(g == z12 for _, g in code.generators_by_label("zstab"))

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            tc3d_1form_ops(toric3d_edges(2))
        with pytest.raises(ValueError):
            tc3d_2form_ops(toric3d_faces(2))


class TestXCubeBuilders:
    @pytest.mark.parametrize("variant", ["prism", "cage"])
    def test_validates(self, variant):
        report = validate(xcube_ops(xcube(3), variant))
        assert report.ok, report.problems

    def test_prism_pair_products_are_cages(self):
        code = xcube(3)
        ops = xcube_ops(code, "prism")
        cubes = dict(code.labeled_generators)
        z12 = multiply(ops.z_op(0), ops.z_op(1))
        assert z12 == cubes[("cube", 0, 0, 0)]
        z23 = multiply(ops.z_op(1), ops.z_op(2))
        assert z23 == cubes[("cube", 1, 0, 0)]
        z13 = multiply(ops.z_op(0), ops.z_op(2))
        assert z13 == multiply(cubes[("cube", 0, 0, 0)], cubes[("cube", 1, 0, 0)])

    def test_cage_symmetry_is_single_cage(self):
        code = xcube(3)
        ops = xcube_ops(code, "cage")
        cubes = dict(code.labeled_generators)
        full = multiply(ops.x_op(0), multiply(ops.x_op(1), ops.x_op(2)))
        assert full == cubes[("cube", 0, 0, 0)]


class TestEmbeddings:
    def test_cycle_dipole_effective_group_is_ghz(self):
        code = toric2d(6)
        ops, eff, g = cycle_dipole_embedding(code, 4)
        assert eff.rank == 4
        ghz = ghz_ops(4).code.group
        assert {(r.x, r.z, r.phase) for r in eff.rows} == {(r.x, r.z, r.phase) for r in ghz.rows}

    def test_wheel_rank_eight(self):
        ops, eff, g = wheel_embedding(toric2d(8))
        assert eff.rank == 8
        report = validate(ops)
        assert report.ok, report.problems

    def test_bad_placement_rejected(self):
        # map every cycle edge to the same path: the crossing pattern breaks
        code = toric2d(6)
        base = tc2d_parity_ops(code, 3)
        from stabgames.complexes import cycle_graph

        g = cycle_graph(3)
        key = lambda idx: code.cell.cells[1][idx]
        placement = {
            "edge": {i: [key(s) for (s, _) in base.pairs[0][0]] for i in range(3)},
            "dual": {i: [key(s) for (s, _) in base.pairs[0][1]] for i in range(3)},
        }
        with pytest.raises(ValueError):
            plane_graph_embedding(g, code, placement)


class TestCellulationBuilders:
    def test_blocks_validate(self):
        code = toric2d(6)
        for bx, by in ((1, 1), (2, 2), (3, 3), (2, 3)):
            strat = block_cellulation_ops(code, bx, by)
            assert validate(strat.ops).ok

    def test_microscopic_blocks_are_single_site(self):
        code = toric2d(4)
        strat = block_cellulation_ops(code, 1, 1)
        for (xf, zf), key in zip(strat.ops.pairs, strat.coarse.cells[1]):
            assert len(xf) == 1 and len(zf) == 1
            assert xf[0][0] == zf[0][0] == code.qubit_index(key)

    def test_fan_validates(self):
        strat = fan_cellulation_ops(toric2d(5))
        assert validate(strat.ops).ok

    def test_block_size_must_divide(self):
        with pytest.raises(ValueError):
            block_cellulation_ops(toric2d(5), 2, 2)


class TestMagicSquareOps:
    def test_builder_algebra(self):
        from stabgames.weyl import commutation_phase, w_power

        code = double_semion(8, 10)
        ms = ds_magic_square_ops(code)
        for k in range(2):
            assert commutation_phase(ms.a_z[k], ms.a_x[k]) == 1
            assert commutation_phase(ms.b_z[k], ms.b_x[k]) == 1
        a_ops = ms.a_x + ms.a_z
        b_ops = ms.b_x + ms.b_z
        a_sites = set().union(*(set(o.support()) for o in a_ops))
        b_sites = set().union(*(set(o.support()) for o in b_ops))
        assert not (a_sites & b_sites)
        for op in a_ops + b_ops:
            p4 = w_power(op, 4)
            assert p4.is_scalar() and p4.phase == 0

    def test_loop_constraints_normalized(self):
        from stabgames.weyl import dagger, w_multiply

        code = double_semion(8, 10)
        ms = ds_magic_square_ops(code)
        for k in range(2):
            ex = ms.resource.expectation(w_multiply(ms.a_x[k], ms.b_x[k]))
            assert ex.is_definite(0)
            ez = ms.resource.expectation(w_multiply(ms.a_z[k], dagger(ms.b_z[k])))
            assert ez.is_definite(0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: tc2d_parity_ops(toric2d(4), 4),
        lambda: tc2d_parity_ops(toric2d(4), 4, winding=True),
        lambda: tc3d_1form_ops(toric3d_faces(3)),
        lambda: tc3d_2form_ops(toric3d_edges(3)),
        lambda: xcube_ops(xcube(3), "prism"),
        lambda: xcube_ops(xcube(3), "cage"),  # X_i are Z-type here
        lambda: ghz_ops(5),
    ],
    ids=["tc2d-contractible", "tc2d-winding", "tc3d-1form", "tc3d-2form",
         "xcube-prism", "xcube-cage", "ghz"],
)
def test_operator_set_serialization_round_trip(build):
    import json

    from stabgames.strategies import deserialize_operator_set, serialize_operator_set

    ops = build()
    text = serialize_operator_set(ops)
    back = deserialize_operator_set(text, ops.code, ops.resource)
    for i in range(ops.players):
        assert back.x_op(i) == ops.x_op(i)
        assert back.z_op(i) == ops.z_op(i)
    assert validate(back).ok
    assert back.constraints == ops.constraints
    assert serialize_operator_set(back) == text
    # a qudit header and a dropped text phase are refused, not rebuilt differently
    header, x0, rest = text.split("\n", 2)
    d4_header = json.dumps({**json.loads(header), "d": 4})
    with pytest.raises(ValueError, match="d=4"):
        deserialize_operator_set("\n".join([d4_header, x0, rest]), ops.code)
    assert x0.startswith("X0 i^0 ")
    tampered = x0.replace("i^0", "i^2", 1)
    with pytest.raises(ValueError, match="X0"):
        deserialize_operator_set("\n".join([header, tampered, rest]), ops.code)


def test_block_cellulation_effective_rank_reaches_n_with_sectors():
    # the induced group on the composite qubits: coarse boundaries (X) and
    # coboundaries (Z) give N - 2 independent generators on the torus, and
    # fixing the two coarse winding cycles brings the rank to exactly N
    code = toric2d(6)
    strat = block_cellulation_ops(code, 2, 2)
    coarse = strat.coarse
    n_eff = strat.players
    eff_gens = []
    for fi in range(len(coarse.cells[2])):
        eff_gens.append(PauliOperator.from_support(n_eff, "X", coarse.boundary_indices(2, fi)))
    for vi in range(len(coarse.cells[0])):
        eff_gens.append(PauliOperator.from_support(n_eff, "Z", coarse.coboundary_indices(0, vi)))
    eff = StabilizerGroup(eff_gens, d=2, n=n_eff)
    assert eff.rank == n_eff - 2
    nx = coarse.meta["Lx"]
    row_loop = [coarse.index(1, ("e", x, 0, 0)) for x in range(nx)]
    row_dual = [coarse.index(1, ("e", x, 0, 1)) for x in range(nx)]
    fixers = [
        PauliOperator.from_support(n_eff, "X", row_loop),
        PauliOperator.from_support(n_eff, "Z", row_dual),
    ]
    assert all(eff.expectation(f).kind == "logical" for f in fixers)
    fixed = eff.fix_sector(fixers)
    assert fixed.rank == n_eff


def _reference_player_op(ops, i, x_exp, z_exp):
    """i^{xz} X_i^x Z_i^z as composed before the table: each segment rebuilt
    from its site factors and multiplied onto the identity, Z first."""
    op = PauliOperator.identity(ops.n)
    if z_exp:
        op = multiply(ordered_product(ops.pairs[i][1], ops.n), op)
    if x_exp:
        op = multiply(ordered_product(ops.pairs[i][0], ops.n), op)
    return op.scale_i(x_exp * z_exp)


def _round_trip(ops):
    from stabgames.strategies import deserialize_operator_set, serialize_operator_set

    return deserialize_operator_set(serialize_operator_set(ops), ops.code, ops.resource)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ghz_ops(5),
        lambda: tc2d_parity_ops(toric2d(6), 5),
        lambda: tc2d_parity_ops(toric2d(4), 4, winding=True),
        lambda: deform_arc(tc2d_parity_ops(toric2d(6), 4), 1, (2, 0)),
        lambda: tc3d_1form_ops(toric3d_faces(3)),
        lambda: tc3d_2form_ops(toric3d_edges(3)),
        lambda: xcube_ops(xcube(3), "prism"),
        lambda: xcube_ops(xcube(3), "cage"),
        lambda: cycle_dipole_embedding(toric2d(8), 5)[0],
        lambda: wheel_embedding(toric2d(7))[0],
        lambda: block_cellulation_ops(toric2d(6), 3, 2).ops,
        lambda: fan_cellulation_ops(toric2d(6)).ops,
        lambda: _round_trip(tc2d_parity_ops(toric2d(4), 3)),
    ],
    ids=["ghz", "tc2d-contractible", "tc2d-winding", "deform-arc", "tc3d-1form",
         "tc3d-2form", "xcube-prism", "xcube-cage", "cycle-dipole", "wheel",
         "cellulation-blocks", "cellulation-fan", "deserialized"],
)
def test_player_op_table_matches_composition(build):
    ops = build()
    for i in range(ops.players):
        for a in (0, 1):
            for b in (0, 1):
                assert ops.player_op(i, a, b) == _reference_player_op(ops, i, a, b)
        assert ops.x_op(i) == _reference_player_op(ops, i, 1, 0)
        assert ops.z_op(i) == _reference_player_op(ops, i, 0, 1)
        assert ops.y_op(i) == _reference_player_op(ops, i, 1, 1)
