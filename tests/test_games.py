"""Game-level tests: classical baselines, quantum evaluations, cellulation
games, magic square."""

import itertools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabgames import dense, scoring
from stabgames.cellulation import block_cellulation_ops, fan_cellulation_ops
from stabgames.codes import (
    CodeInstance,
    double_semion,
    star_operator,
    toric2d,
    toric2d_winding_z_fixers,
    toric3d_edges,
    toric3d_faces,
    xcube,
)
from stabgames.complexes import build_torus, gf2_rank
from stabgames.dense import deform, state_from_group
from stabgames.games import (
    CellulationGame,
    MagicSquareGame,
    ParityGame,
    _valid_rows,
    classical_optimum_magic_square,
    classical_optimum_parity,
    classical_strategy_score,
    lifted_qubit_square_strategy,
    magic_square_score,
)
from stabgames.parity2d import tc2d_parity_ops
from stabgames.parity3d import tc3d_1form_ops, tc3d_2form_ops, xcube_ops
from stabgames.pauli import PauliOperator, multiply
from stabgames.scoring import (
    _exact_value,
    _quadratic_sign_sum,
    _score_inputs,
    cellulation_game_eval,
    quantum_parity_eval,
)
from stabgames.semion import MagicSquareOperators, ds_magic_square_ops, magic_square_eval
from stabgames.strategies import CompositeOperatorSet, ghz_ops, validate
from stabgames.tableau import StabilizerGroup
from stabgames.weyl import WeylOperator
from tests_matrix_helpers import stabilizer_generators


class TestParityGameStructure:
    def test_input_count(self):
        for p in (3, 4, 6):
            assert len(ParityGame(p).valid_inputs()) == 2 ** (p - 1)

    @pytest.mark.parametrize("p", range(3, 13))
    def test_valid_inputs_are_the_even_weight_inputs_in_product_order(self, p):
        want = [bits for bits in itertools.product((0, 1), repeat=p) if sum(bits) % 2 == 0]
        assert ParityGame(p).valid_inputs() == want

    @pytest.mark.parametrize("p", range(3, 9))
    def test_input_map_follows_valid_inputs(self, p):
        # input u of the map is valid input u: every player's a is 1 and its
        # b is its input bit, the last player's the parity of the others
        game = ParityGame(p)
        amap, m = game.input_map()
        assert m == p - 1
        for u, bits in enumerate(game.valid_inputs()):
            assert read_map(amap, m, u) == [(1, b) for b in bits]

    def test_target_sign(self):
        g = ParityGame(4)
        assert g.target_sign((0, 0, 0, 0)) == 1
        assert g.target_sign((1, 1, 0, 0)) == -1
        assert g.target_sign((1, 1, 1, 1)) == 1


def _reference_parity_scan(p):
    """The former Python scan over every (c, a) class, lowest index 2c + a on ties."""
    inputs = ParityGame(p).valid_inputs()
    masks = [sum(b << i for i, b in enumerate(bits)) for bits in inputs]
    targets = [(sum(bits) // 2) & 1 for bits in inputs]
    best = (-1, 0, 0)  # wins, -(2c + a_total), payload
    for c in range(1 << p):
        overlaps = [bin(c & m).count("1") & 1 for m in masks]
        for a_total in (0, 1):
            wins = sum(1 for o, t in zip(overlaps, targets) if (a_total ^ o) == t)
            key = (wins, -(2 * c + a_total))
            if key > best[:2]:
                best = (wins, key[1], 2 * c + a_total)
    wins, _, payload = best
    c, a_total = payload >> 1, payload & 1
    strategy = {"a": [a_total] + [0] * (p - 1), "c": [(c >> i) & 1 for i in range(p)]}
    return Fraction(wins, 1 << (p - 1)), strategy


def _reference_walsh_hadamard(p):
    """The former numpy transform: W(c) for every class c at once, with
    f(m) = (-1)^(|m|/2) on even-weight inputs m and 0 on odd ones."""
    weight = np.zeros(1, dtype=np.int64)
    for _ in range(p):  # popcount of every index m < 2^P
        weight = np.concatenate([weight, weight + 1])
    w = np.where(weight % 2 == 0, 1 - 2 * ((weight // 2) % 2), 0)
    for k in range(p):  # in-place butterflies over bit k
        v = w.reshape(-1, 2, 1 << k)
        lo = v[:, 0].copy()
        v[:, 0] += v[:, 1]
        v[:, 1] = lo - v[:, 1]
    c = int(np.argmax(np.abs(w)))
    a_total = 0 if w[c] >= 0 else 1
    half = 1 << (p - 1)
    wins = (half + abs(int(w[c]))) // 2
    strategy = {"a": [a_total] + [0] * (p - 1), "c": [(c >> i) & 1 for i in range(p)]}
    return Fraction(wins, half), strategy


def _reference_square_scan(d):
    """The former scan over B's strategies, recomputing A's best rows for each."""
    rows = _valid_rows(d, 0)
    cols = _valid_rows(d, d // 2)
    m = len(cols)
    best = (-1, 0, None)
    for idx in range(m ** 3):
        k0, rem = divmod(idx, m * m)
        k1, k2 = divmod(rem, m)
        b_cols = [cols[k0], cols[k1], cols[k2]]
        wins = 0
        a_rows = []
        for r in range(3):
            best_row, best_cnt = None, -1
            for row in rows:
                cnt = sum(1 for c in range(3) if row[c] == b_cols[c][r])
                if cnt > best_cnt:
                    best_row, best_cnt = row, cnt
            wins += best_cnt
            a_rows.append(best_row)
        if (wins, -idx) > best[:2]:
            best = (wins, -idx, (a_rows, b_cols))
    wins, _, (a_rows, b_cols) = best
    return Fraction(wins, 9), {"a_rows": a_rows, "b_cols": b_cols}


class TestClassicalParity:
    @pytest.mark.parametrize(
        "p,want",
        [(3, Fraction(3, 4)), (4, Fraction(3, 4)), (5, Fraction(5, 8)),
         (6, Fraction(5, 8)), (7, Fraction(9, 16)), (8, Fraction(9, 16))],
    )
    def test_matches_tight_bound(self, p, want):
        opt, witness = classical_optimum_parity(p)
        assert opt == want == Fraction(1, 2) + Fraction(1, 2 ** -(-p // 2))
        assert classical_strategy_score(p, witness["a"], witness["c"]) == want

    @pytest.mark.parametrize("p", range(3, 13))
    def test_matches_reference_scan(self, p):
        assert classical_optimum_parity(p) == _reference_parity_scan(p)

    @pytest.mark.parametrize("p", range(3, 21))
    def test_matches_reference_walsh_hadamard(self, p):
        assert classical_optimum_parity(p) == _reference_walsh_hadamard(p)

    def test_tight_bound_through_the_cap(self):
        for p in [*range(3, 201), 4096]:
            opt, witness = classical_optimum_parity(p)
            assert opt == Fraction(1, 2) + Fraction(1, 2 ** -(-p // 2)), p
            assert len(witness["a"]) == len(witness["c"]) == p
        with pytest.raises(ValueError, match="capped at P = 4096"):
            classical_optimum_parity(4097)

    def test_trivial_all_ones_strategy_saturates_p3(self):
        assert classical_strategy_score(3, [1, 1, 1], [0, 0, 0]) == Fraction(3, 4)


class TestQuantumParity:
    def test_ghz_perfect_through_p10(self):
        for p in range(3, 11):
            ev = quantum_parity_eval(ghz_ops(p))
            assert ev.p_q == 1
            assert all(w == 1 for w in ev.per_input.values())

    def test_tc2d_mermin(self):
        ev = quantum_parity_eval(tc2d_parity_ops(toric2d(4), 3))
        assert ev.p_q == 1 and ev.mermin == 4

    def test_mermin_formula_consistency(self):
        # p_q = (1 + mermin/4) / 2 for any three-player evaluation
        code = toric2d(3)
        ops = tc2d_parity_ops(code, 3)
        ev = quantum_parity_eval(ops)
        assert ev.p_q == Fraction(1, 2) * (1 + Fraction(ev.mermin, 4))

    def test_empty_resource_gives_half(self):
        ops = ghz_ops(3)
        empty = StabilizerGroup([], d=2, n=3)
        ev = quantum_parity_eval(ops, resource=empty)
        assert ev.p_q == Fraction(1, 2)

    def test_3d_strategies_perfect(self):
        for L in (2,):
            assert quantum_parity_eval(tc3d_1form_ops(toric3d_faces(L))).p_q == 1
            assert quantum_parity_eval(tc3d_2form_ops(toric3d_edges(L))).p_q == 1

    def test_xcube_strategies_perfect(self):
        code = xcube(3)
        for variant in ("prism", "cage"):
            assert quantum_parity_eval(xcube_ops(code, variant)).p_q == 1

    def test_dense_resource_matches_tableau(self):
        ops = ghz_ops(3)
        state = state_from_group(ops.code.group)
        ev = quantum_parity_eval(ops, resource=state)
        assert ev.p_q == pytest.approx(1.0, abs=1e-10)
        assert ev.mermin == pytest.approx(4.0, abs=1e-10)

    def test_unknown_resource_type_raises(self):
        with pytest.raises(TypeError, match="StabilizerGroup or a DenseState, got list"):
            quantum_parity_eval(ghz_ops(3), resource=[1, 2])

    def test_deformed_resource_interpolates(self):
        ops = ghz_ops(3)
        state = state_from_group(ops.code.group)
        prev = 1.0
        for theta in (0.1, 0.3, 0.8):
            ev = quantum_parity_eval(ops, resource=deform(state, "z", theta))
            assert ev.p_q <= prev + 1e-12
            prev = ev.p_q
        assert prev < 1.0


class TestCellulationGame:
    def test_codeword_wins_block_cellulations(self):
        code = toric2d(6)
        for bx, by in ((2, 2), (3, 3), (2, 3)):
            strat = block_cellulation_ops(code, bx, by)
            ev = cellulation_game_eval(strat)
            assert ev.p_q == 1

    def test_microscopic_matches_codespace_projector(self):
        code = toric2d(2)
        strat = block_cellulation_ops(code, 1, 1)
        game = CellulationGame(strat.coarse, strat.p)
        from stabgames.pauli import PauliOperator

        # winding dual Z loops: one crosses all vertical edges of a row, the
        # other all horizontal edges of a column
        wz1 = PauliOperator.from_support(code.n, "Z", [code.qubit_index(("e", x, 0, 1)) for x in range(2)])
        wz2 = PauliOperator.from_support(code.n, "Z", [code.qubit_index(("e", 0, y, 0)) for y in range(2)])
        fixed = code.group.fix_sector([wz1, wz2])
        codeword = state_from_group(fixed)
        ev = cellulation_game_eval(strat, resource=codeword)
        assert ev.p_q == pytest.approx(1.0, abs=1e-10)
        # orthogonal sector: flip one star's sign; p_q = (1 + 0)/2
        gens = [
            (g.scale_i(2) if lab == ("zstab", ("v", 1, 1)) else g)
            for lab, g in code.labeled_generators
            if lab != ("zstab", ("v", 0, 0))
        ]
        flipped = StabilizerGroup(gens, d=2, n=code.n).fix_sector([wz1, wz2])
        orth = state_from_group(flipped)
        ev2 = cellulation_game_eval(strat, resource=orth)
        assert ev2.p_q == pytest.approx(0.5, abs=1e-10)
        # the tableau sums the same sector exactly; dense scores every input,
        # each as the per-input rule with target i^{sum a_i b_i}
        exact = cellulation_game_eval(strat, resource=flipped)
        assert exact.p_q == Fraction(1, 2) and exact.per_input == {}
        assert len(ev2.per_input) == 1 << ev2.meta["bits"]
        for bits, win in ev2.per_input.items():
            exps = incidence_exponents(game, bits)
            cross = sum(a * b for a, b in exps)
            s = reference_sign(strat.ops, flipped, exps)
            assert abs(win - (1 + (1 - (cross & 2)) * s) / 2) < 1e-10
        assert type(exact.p_q) is Fraction
        assert type(ev2.p_q) is float
        assert all(type(w) is float for w in ev2.per_input.values())

    def test_fan_restriction_reproduces_parity(self):
        code = toric2d(5)
        strat = fan_cellulation_ops(code)
        ev = cellulation_game_eval(strat, restrict_unit_z=True)
        assert 1 << ev.meta["bits"] == 4  # 2^(P-1) parity inputs
        assert ev.p_q == 1  # so every input is won, as in the parity game
        parity_ev = quantum_parity_eval(tc2d_parity_ops(code, 3))
        assert parity_ev.p_q == ev.p_q
        assert set(parity_ev.per_input.values()) == {1}

    @pytest.mark.parametrize("build, blocks", [
        (lambda: toric2d(6), (2, 3)), (lambda: toric2d(12), (3, 2)), (lambda: toric2d(5), None),
        (lambda: toric3d_faces(4), (2, 2, 2)), (lambda: toric3d_edges(4), (2, 2, 2)),
    ], ids=["tc2d-L6-2x3", "tc2d-L12-3x2", "fan", "tc3d-faces", "tc3d-edges"])
    def test_bases_are_the_first_independent_coarse_cells(self, build, blocks):
        # x_basis: the first coarse (p+1)-cells with independent boundaries;
        # z_basis: the first coarse (p-1)-cells with independent coboundaries,
        # both read here from the boundary keys
        code = build()
        strat = block_cellulation_ops(code, *blocks) if blocks else fan_cellulation_ops(code)
        coarse, p = strat.coarse, strat.p
        game = CellulationGame(coarse, p)
        x_rows = [0] * len(coarse.cells[p + 1])
        z_rows = [0] * len(coarse.cells[p - 1])
        for c, keys in enumerate(coarse.boundary_keys[p + 1]):
            for key in keys:
                x_rows[c] ^= 1 << coarse.index(p, key)
        for c, keys in enumerate(coarse.boundary_keys[p]):
            for key in keys:
                z_rows[coarse.index(p - 1, key)] ^= 1 << c

        def first_independent(rows):
            kept = []
            for i, row in enumerate(rows):
                if gf2_rank([rows[j] for j in kept] + [row]) > len(kept):
                    kept.append(i)
            return tuple(kept)

        assert game.x_basis == first_independent(x_rows)
        assert game.z_basis == first_independent(z_rows)

    def test_built_from_the_complex_alone(self):
        # the game is its coarse complex and degree: the strategy's game and
        # one built from a fresh torus are equal, and p outside 1..dim - 1
        # has no (p-1)- or (p+1)-cells to put inputs on
        strat = block_cellulation_ops(toric2d(6), 2, 3)
        game, played = CellulationGame(build_torus(3, 2), 1), CellulationGame(strat.coarse, strat.p)
        assert game == played and game.input_map() == played.input_map()
        for coarse in (build_torus(3, 2), build_torus(2, 2, 2)):
            for p in (0, coarse.dim):
                with pytest.raises(ValueError, match=f"p={p} outside 1..{coarse.dim - 1}"):
                    CellulationGame(coarse, p)

    def test_unknown_resource_type_raises(self):
        strat = block_cellulation_ops(toric2d(4), 2, 2)
        with pytest.raises(TypeError, match="StabilizerGroup or a DenseState, got list"):
            cellulation_game_eval(strat, resource=[1, 2])

    def test_even_cross_parity_asserted(self):
        code = toric2d(4)
        strat = block_cellulation_ops(code, 2, 2)
        ev = cellulation_game_eval(strat)
        assert ev.p_q == 1  # implies every input passed the even-parity assert


class TestBlockCellulation3D:
    # blocks of both 3D toric codes: the composites validate and the codeword
    # wins every input, over 2^21 (L=4) and 2^33 (L=6) inputs
    @pytest.mark.parametrize("build", [toric3d_faces, toric3d_edges])
    @pytest.mark.parametrize("L, blocks", [(4, (2, 2, 2)), (6, (2, 3, 3))])
    def test_codeword_wins_3d_blocks(self, build, L, blocks):
        strat = block_cellulation_ops(build(L), *blocks)
        assert validate(strat.ops).ok
        ev = cellulation_game_eval(strat)
        assert ev.p_q == Fraction(1)
        assert ev.meta["bits"] == {4: 21, 6: 33}[L]

    @pytest.mark.parametrize("build", [toric3d_faces, toric3d_edges])
    def test_bad_blocks_rejected(self, build):
        code = build(4)
        for blocks in ((2, 2), (2, 2, 3), (2, 2, 4), (0, 2, 2)):
            with pytest.raises(ValueError):
                block_cellulation_ops(code, *blocks)

    def test_non_toric_code_rejected(self):
        with pytest.raises(ValueError):
            block_cellulation_ops(xcube(4), 2, 2, 2)


class TestClassicalMagicSquare:
    def test_d2_and_d4_optimum(self):
        for d in (2, 4):
            opt, witness = classical_optimum_magic_square(d)
            assert opt == Fraction(8, 9)
            assert magic_square_score(d, witness["a_rows"], witness["b_cols"]) == Fraction(8, 9)

    @pytest.mark.parametrize("d", (2, 4))
    def test_matches_reference_scan(self, d):
        assert classical_optimum_magic_square(d) == _reference_square_scan(d)

    def test_lift_achieves_eight_ninths(self):
        s = lifted_qubit_square_strategy(4)
        assert magic_square_score(4, s["a_rows"], s["b_cols"]) == Fraction(8, 9)

    def test_odd_d_rejected(self):
        with pytest.raises(ValueError):
            classical_optimum_magic_square(3)
        with pytest.raises(ValueError):
            MagicSquareGame(3)
        with pytest.raises(ValueError, match="odd d"):
            lifted_qubit_square_strategy(3)
        s = lifted_qubit_square_strategy(2)
        with pytest.raises(ValueError, match="odd d"):
            magic_square_score(3, s["a_rows"], s["b_cols"])

    @pytest.mark.parametrize("d", (0, -2))
    def test_d_below_two_rejected(self, d):
        # even, but no game: the row scan would be empty and the column
        # target d/2 taken modulo 0
        with pytest.raises(ValueError, match="d >= 2"):
            classical_optimum_magic_square(d)
        with pytest.raises(ValueError, match="d >= 2"):
            MagicSquareGame(d)
        with pytest.raises(ValueError, match="d >= 2"):
            lifted_qubit_square_strategy(d)
        s = lifted_qubit_square_strategy(2)
        with pytest.raises(ValueError, match="d >= 2"):
            magic_square_score(d, s["a_rows"], s["b_cols"])


@pytest.fixture(scope="module")
def ms():
    code = double_semion(8, 10)
    return ds_magic_square_ops(code)


class TestMagicSquareQuantum:

    def test_perfect_on_fixed_point_state(self, ms):
        rep = magic_square_eval(ms)
        assert rep.p_q == 1
        assert not rep.problems
        assert all(ok for ok, _ in rep.row_identities)
        assert all(ok for ok, _ in rep.col_identities)

    def test_row_column_commutativity_is_resource_free(self, ms):
        rep = magic_square_eval(ms)
        assert rep.commuting_rows and rep.commuting_cols

    def test_trivial_resource_fails_cross_constraints(self, ms):

        code = ms.code
        trivial = StabilizerGroup(
            [WeylOperator.single(4, code.n, j, 0, 1) for j in range(code.n)]
        )
        rep = magic_square_eval(ms, resource=trivial)
        assert rep.p_q < 1
        assert any("cell" in p for p in rep.problems)

    def test_broken_operators_report_rows_then_columns(self, ms):
        # A's second Z and B's second X replaced by the first X and Z: rows 0
        # and 2 and column 2 fail, every commutation problem is listed before
        # every product problem, and the cells come last
        broken = MagicSquareOperators(ms.code, ms.resource, ms.a_x, [ms.a_z[0], ms.a_x[0]],
                                      [ms.b_x[0], ms.b_z[0]], ms.b_z, ms.meta)
        rep = magic_square_eval(broken)
        assert rep.row_identities == [(False, 2), (True, 0), (False, 4)]
        assert rep.col_identities == [(True, 4), (True, 4), (False, 2)]
        assert not rep.commuting_rows and not rep.commuting_cols
        pairs = ("0,1", "0,2", "1,2")
        assert rep.problems[:12] == [
            *(f"row {r}: entries {p} do not commute" for r in (0, 2) for p in pairs),
            *(f"column 2: entries {p} do not commute" for p in pairs),
            "row 0 product is not +1 (w^2, scalar=True)",
            "row 2 product is not +1 (w^4, scalar=True)",
            "column 2 product is not -1 (w^2, scalar=True)",
        ]
        assert len(rep.problems) == 19 and all(p.startswith("cell") for p in rep.problems[12:])
        assert rep.p_q == Fraction(5, 36)


def test_mermin_formula_holds_for_dense_resources():
    code = toric2d(2)
    ops = tc2d_parity_ops(code, 3)
    from stabgames.codes import toric2d_winding_z_fixers

    fixed = code.group.fix_sector(toric2d_winding_z_fixers(code))
    state = state_from_group(fixed)
    for theta in (0.0, 0.15, 0.4):
        resource = deform(state, "z", theta) if theta else state
        ev = quantum_parity_eval(ops, resource=resource)
        assert float(ev.p_q) == pytest.approx((1 + float(ev.mermin) / 4) / 2, abs=1e-10)


def test_parity_eval_invariant_under_player_relabeling():
    code = toric2d(4)
    ops = tc2d_parity_ops(code, 4)
    relabeled = CompositeOperatorSet(
        ops.code,
        ops.resource,
        [ops.pairs[i] for i in (2, 0, 3, 1)],
        [  # constraints follow the same relabeling
            type(c)(c.kind, tuple({2: 0, 0: 1, 3: 2, 1: 3}[i] for i in c.indices), c.phase_exp, c.label)
            for c in ops.constraints
        ],
    )
    assert quantum_parity_eval(relabeled).p_q == quantum_parity_eval(ops).p_q == 1


# -- the quadratic form against the per-input rule -------------------------------


def read_map(amap, m, u):
    """Every player's (a_i, b_i) at input u of an InputMap."""
    v = u | 1 << m
    return [((a & v).bit_count() & 1, (b & v).bit_count() & 1) for a, b in amap]


def incidence_exponents(game, bits, unit_z=False):
    """A cellulation game's exponents at the input bits, from the incidences
    read off its complex: a is the parity of the bits on a player's incident
    x_basis (p+1)-cells, b of those on its z_basis (p-1)-cells, or 1 with
    unit z; the x_basis bits come first."""
    coarse, p, nx = game.coarse, game.p, len(game.x_basis)

    def parity(cells, basis, offset):
        return sum(bits[offset + basis.index(c)] for c in cells if c in basis) % 2

    return [(parity(coarse.coboundary_indices(p, c), game.x_basis, 0),
             1 if unit_z else parity(coarse.boundary_indices(p, c), game.z_basis, nx))
            for c in range(len(coarse.cells[p]))]


def reference_sign(ops, group, exps):
    """The former per-input rule: <O> for the product of the players'
    i^{ab} X^a Z^b in player order, from one expectation; +1 or -1 when
    definite and real, else 0."""
    coll = PauliOperator.identity(ops.n)
    for i, (a, b) in enumerate(exps):
        if a or b:
            coll = multiply(coll, ops.player_op(i, a, b))
    e = group.expectation(coll)
    if e.kind == "definite" and e.phase_exp % 2 == 0:
        return 1 - e.phase_exp % 4
    return 0


@st.composite
def random_strategies(draw, min_players=1):
    """Random players' operators on a random qubit group of any rank.  Each
    X_i and Z_i is an ordered product of 0..3 one-site factors, so they may
    be non-Hermitian and need not anticommute, or commute with the group."""
    n = draw(st.integers(1, 6))
    gens = draw(stabilizer_generators(n))
    group = StabilizerGroup(gens, d=2, n=n)
    code = CodeInstance(kind="random", d=2, n=n, group=group, labeled_generators=())
    factors = st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from("XYZ")), max_size=3)
    players = draw(st.integers(min_players, 10 if min_players > 1 else 5))
    pairs = draw(st.lists(st.tuples(factors, factors), min_size=players, max_size=players))
    return CompositeOperatorSet(code, group, [(tuple(x), tuple(z)) for x, z in pairs], [])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(random_strategies(min_players=3))
def test_parity_form_matches_per_input_rule(ops):
    game = ParityGame(ops.players)
    ev = quantum_parity_eval(ops)
    wins = {}
    for bits in game.valid_inputs():
        s = reference_sign(ops, ops.resource, [(1, b) for b in bits])
        wins[bits] = Fraction(1 + game.target_sign(bits) * s, 2)
    assert ev.per_input == wins
    assert ev.p_q == sum(wins.values()) / len(wins)
    assert all(type(w) is Fraction for w in ev.per_input.values()) and type(ev.p_q) is Fraction
    if ops.players == 3:
        assert ev.mermin == 4 * (2 * ev.p_q - 1)
    # the same group built on the Weyl path, which reduces to WeylOperators
    weyl = StabilizerGroup([WeylOperator.from_pauli(g) for g in ops.resource.generators],
                           d=2, n=ops.n)
    assert quantum_parity_eval(ops, resource=weyl).per_input == wins


@pytest.mark.parametrize("family", ["ghz", "tc2d"])
def test_parity_form_reads_its_free_bits(family, monkeypatch):
    # the even inputs are affine in their first P - 1 bits, so the sign form
    # reduces 1 + (P - 1) + (P - 1)(P - 2)/2 = 1 + P(P - 1)/2 points
    calls = []
    reduce = StabilizerGroup.reduce
    monkeypatch.setattr(StabilizerGroup, "reduce", lambda self, op: calls.append(op) or reduce(self, op))
    for p in range(3, 9):
        ops = ghz_ops(p) if family == "ghz" else tc2d_parity_ops(toric2d(8), p)
        calls.clear()
        assert quantum_parity_eval(ops).p_q == 1
        assert len(calls) == 1 + p * (p - 1) // 2


@pytest.mark.parametrize("shape, m", [("fan", 3), ("blocks-2x2", 16)])
def test_cellulation_form_reads_every_pair_once(shape, m, monkeypatch):
    # a cellulation game wins at every input, so A is all of GF(2)^m with
    # u0 = 0 and the unit inputs as K: the form reduces 1 + m + m(m - 1)/2
    # points, which is 137 for the L = 6 2x2 blocks
    calls = []
    reduce = StabilizerGroup.reduce
    monkeypatch.setattr(StabilizerGroup, "reduce", lambda self, op: calls.append(op) or reduce(self, op))
    code = toric2d(6)
    strat = fan_cellulation_ops(code) if shape == "fan" else block_cellulation_ops(code, 2, 2)
    ev = cellulation_game_eval(strat)
    assert ev.p_q == 1 and ev.meta["bits"] == m
    assert len(calls) == 1 + m + m * (m - 1) // 2


def test_reached_form_refuses_a_point_off_its_set(monkeypatch):
    # rho mod 2 is affine, so every point read on A reduces onto A; an
    # i-power that breaks that at the pair point u = 3 must not pass as a sign
    collective = scoring._collective

    def skewed(ops, amap, u, m):
        op, x = collective(ops, amap, u, m)
        return (op.scale_i(1) if u == 3 else op), x

    monkeypatch.setattr(scoring, "_collective", skewed)
    with pytest.raises(ValueError, match="reduces off it"):
        quantum_parity_eval(ghz_ops(4))


def test_dense_scoring_checks_the_sign_before_any_expectation(monkeypatch):
    # x = a_0 b_0 = 1 at every input: the map is refused before the state is read
    calls = []
    monkeypatch.setattr(dense, "dense_expectation", lambda *args: calls.append(args) or 0j)
    ops = ghz_ops(3)
    state = state_from_group(ops.resource)
    with pytest.raises(ValueError, match="odd a.b parity"):
        _score_inputs(ops, state, [(1 << 2, 1 << 2), (0, 0), (0, 0)], 2)
    assert calls == []


@st.composite
def input_maps(draw, players=None):
    """(amap, m): m <= 10 input bits and the given number of players, or up
    to 8, whose masks, the constant bit included, are drawn from a pool of
    three, so that players often share masks and x(u) is even at every
    input in many draws."""
    m = draw(st.integers(0, 10))
    pool = draw(st.lists(st.integers(0, (2 << m) - 1), min_size=3, max_size=3))
    masks = st.sampled_from([0] + pool)
    size = draw(st.integers(0, 8)) if players is None else players
    return draw(st.lists(st.tuples(masks, masks), min_size=size, max_size=size)), m


@settings(max_examples=300, deadline=None, derandomize=True)
@given(input_maps())
def test_real_sign_check_matches_brute_force(drawn):
    amap, m = drawn
    odd = any(sum(a & b for a, b in read_map(amap, m, u)) & 1 for u in range(1 << m))
    if odd:
        with pytest.raises(ValueError, match="odd a.b parity"):
            scoring._check_real_sign(amap, m)
    else:
        scoring._check_real_sign(amap, m)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(random_strategies(), st.data())
def test_reached_form_takes_at_most_one_extra_reduction(ops, data):
    # 1 + m reductions find A; its sign takes u0, each u0 + K_i and each
    # u0 + K_i + K_k, reusing the unit inputs, so a full A costs exactly
    # 1 + m + m(m - 1)/2 and a smaller one at most one reduction more
    amap, m = data.draw(input_maps(ops.players))
    try:
        scoring._check_real_sign(amap, m)
    except ValueError:
        return
    calls = []
    reduce = StabilizerGroup.reduce
    with mock.patch.object(StabilizerGroup, "reduce",
                           lambda self, op: calls.append(op) or reduce(self, op)):
        form = scoring._reached_form(ops, ops.resource, amap, m)
    full = 1 + m + m * (m - 1) // 2
    if form is not None and len(form[1]) == m:
        assert len(calls) == full
    else:
        assert len(calls) <= full + 1


@pytest.mark.parametrize("p", range(3, 11))
def test_parity_map_expands_to_the_valid_inputs(p, monkeypatch):
    # the input map quantum_parity_eval scores, read at every u, gives
    # (a_i, b_i) = (1, bit i) of the u-th valid input
    seen = []
    score = scoring._score_inputs
    monkeypatch.setattr(scoring, "_score_inputs",
                        lambda ops, res, amap, m: seen.append((amap, m)) or score(ops, res, amap, m))
    assert quantum_parity_eval(ghz_ops(p)).p_q == 1
    [(amap, m)] = seen
    assert m == p - 1
    for u, bits in enumerate(ParityGame(p).valid_inputs()):
        assert read_map(amap, m, u) == [(1, b) for b in bits]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(random_strategies(), st.data())
def test_cellulation_form_matches_per_input_rule(ops, data):
    # a_i is the parity of some of the first nx bits, b_i of some of the
    # other bits, or of none with unit z, each plus a drawn constant bit; the
    # target is i^{sum_i a_i b_i}.
    # - Unshared masks make that sum odd at some input in most draws, and
    #   both scorings must refuse those.
    # - Shared masks give players 2i and 2i + 1 the same ones (and an odd
    #   last player a = 0), so the sum is even at every input.
    # - Shared players: up to five pairs of equal players, each measuring
    #   anticommuting X and Z on one site (X may be non-Hermitian), then the
    #   drawn first player.  A pair's product is +-I with a sign quadratic
    #   in a and b, which random players almost never give on the inputs
    #   where O is +-I times a group element.
    # The game is drawn from a seed that includes the players, so that these
    # choices are uniform and vary with the players: hypothesis alone draws
    # an integer seed of 0 in a third of the examples.
    seed = (ops.pairs, ops.resource.generators, data.draw(st.integers(0, 2**32 - 1)))
    rng = random.Random(repr(seed))
    shared = rng.choice(["none", "masks", "players"])
    if shared == "players":
        pairs = []
        for _ in range(rng.randint(1, 5)):
            # X and Z are each a letter, or the other two letters in either
            # order, whose product is +-i times it
            site = rng.randrange(ops.n)
            x, z = ([w] if rng.random() < 0.5 else rng.sample("XYZ".replace(w, ""), 2)
                    for w in rng.sample("XYZ", 2))
            pairs += 2 * [(tuple((site, c) for c in x), tuple((site, c) for c in z))]
        ops = CompositeOperatorSet(ops.code, ops.resource, pairs + list(ops.pairs[:1]), [])
    m = rng.randrange(11)
    unit_z = rng.random() < 0.5
    nx = m if unit_z else rng.randint(0, m)
    # masks over the input bits k (bit k) and the constant bit (bit m)
    a_masks = [rng.getrandbits(nx) | rng.getrandbits(1) << m for _ in range(ops.players)]
    b_masks = [rng.getrandbits(m - nx) << nx | rng.getrandbits(1) << m for _ in range(ops.players)]
    if shared != "none":
        a_masks = [a_masks[i & ~1] if i | 1 < ops.players else 0 for i in range(ops.players)]
        b_masks = [b_masks[i & ~1] for i in range(ops.players)]

    def parity(mask, bits):
        return (sum(bits[k] for k in range(m) if mask >> k & 1) + (mask >> m)) % 2

    def exps_of(bits):  # the per-input reference
        return [(parity(am, bits), parity(bm, bits)) for am, bm in zip(a_masks, b_masks)]

    def to_u(mask):  # the same mask as an InputMap's: input bit k is bit m - 1 - k of u
        return sum(1 << (m - 1 - k) for k in range(m) if mask >> k & 1) | mask >> m << m

    amap = [(to_u(am), to_u(bm)) for am, bm in zip(a_masks, b_masks)]

    inputs = list(itertools.product((0, 1), repeat=m))
    crosses = [sum(a * b for a, b in exps_of(u)) for u in inputs]
    if any(x & 1 for x in crosses):
        with pytest.raises(ValueError, match="odd a.b parity"):
            _exact_value(ops, ops.resource, amap, m)
        with pytest.raises(ValueError, match="odd a.b parity"):
            _score_inputs(ops, ops.resource, amap, m)
        return
    # t = +-1 is known, so each input's win fixes its sign <O>
    ts = [(1 - (x & 2)) * reference_sign(ops, ops.resource, exps_of(bits))
          for bits, x in zip(inputs, crosses)]
    wins = [Fraction(1 + t, 2) for t in ts]
    p_q = sum(wins) / len(inputs)
    assert _exact_value(ops, ops.resource, amap, m) == p_q
    assert _score_inputs(ops, ops.resource, amap, m) == (wins, p_q, sum(ts))
    # the same group built on the Weyl path, which reduces to WeylOperators
    weyl = StabilizerGroup([WeylOperator.from_pauli(g) for g in ops.resource.generators],
                           d=2, n=ops.n)
    assert _exact_value(ops, weyl, amap, m) == p_q


@pytest.mark.parametrize("build, unit_z", [
    (lambda: block_cellulation_ops(toric2d(6), 2, 2), False),
    (lambda: block_cellulation_ops(toric2d(6), 3, 3), False),
    (lambda: block_cellulation_ops(toric2d(6), 2, 3), False),
    (lambda: fan_cellulation_ops(toric2d(5)), False),
    (lambda: fan_cellulation_ops(toric2d(5)), True),
    (lambda: block_cellulation_ops(toric3d_faces(4), 2, 2, 2), False),
    (lambda: block_cellulation_ops(toric3d_faces(4), 2, 2, 2), True),
    (lambda: block_cellulation_ops(toric3d_edges(4), 2, 2, 2), False),
    (lambda: block_cellulation_ops(toric3d_edges(4), 2, 2, 2), True),
], ids=["blocks-2x2", "blocks-3x3", "blocks-2x3", "fan", "fan-unit-z",
        "tc3d-faces", "tc3d-faces-unit-z", "tc3d-edges", "tc3d-edges-unit-z"])
def test_cellulation_sum_matches_enumeration(build, unit_z):
    # criterion 8's block cellulations of L = 6, the L = 5 fan, and the 2x2x2
    # blocks of both 3D toric codes at L = 4: p = 2 on the faces, p = 1 on
    # the edges
    strat = build()
    game = CellulationGame(strat.coarse, strat.p)
    ev = cellulation_game_eval(strat, restrict_unit_z=unit_z)
    bits = ev.meta["bits"]
    ops = strat.ops
    amap, m = game.input_map(unit_z)
    assert m == bits
    # the map is affine, so its values at 0 and at each unit input fix it
    for u in [0] + [1 << j for j in range(m)]:
        assert read_map(amap, m, u) == incidence_exponents(
            game, [u >> (m - 1 - k) & 1 for k in range(m)], unit_z)
    _, p_q, _ = _score_inputs(ops, ops.resource, amap, m)
    assert ev.p_q == p_q == 1 and ev.per_input == {}


def test_cellulation_sum_matches_enumeration_in_both_l2_sectors():
    code = toric2d(2)
    strat = block_cellulation_ops(code, 1, 1)
    game = CellulationGame(strat.coarse, strat.p)
    fixers = toric2d_winding_z_fixers(code)
    flipped = StabilizerGroup(
        [g.scale_i(2) if lab == ("zstab", ("v", 1, 1)) else g
         for lab, g in code.labeled_generators if lab != ("zstab", ("v", 0, 0))],
        d=2, n=code.n)
    for group, value in ((code.group, 1), (flipped, Fraction(1, 2))):
        fixed = group.fix_sector(fixers)
        ev = cellulation_game_eval(strat, resource=fixed)
        _, p_q, _ = _score_inputs(strat.ops, fixed, *game.input_map())
        assert ev.p_q == p_q == value


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 8).flatmap(lambda k: st.tuples(
    st.just(k), st.integers(0, 1), st.integers(0, (1 << k) - 1),
    st.integers(0, (1 << (k * (k - 1) // 2)) - 1))))
def test_quadratic_sign_sum_matches_brute_force(draw):
    k, f0, alpha, edges = draw
    pairs = [(i, l) for i in range(k) for l in range(i)]
    adj = [0] * k
    for e, (i, l) in enumerate(pairs):
        if edges >> e & 1:
            adj[i] |= 1 << l
            adj[l] |= 1 << i
    total = 0
    for t in range(1 << k):
        f = f0 + (alpha & t).bit_count()
        f += sum(1 for e, (i, l) in enumerate(pairs) if edges >> e & 1 and t >> i & t >> l & 1)
        total += 1 - 2 * (f & 1)
    assert _quadratic_sign_sum(f0, alpha, adj) == total
