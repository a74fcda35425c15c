"""Game-level tests: classical baselines, quantum evaluations, cellulation
games, magic square."""

import dataclasses
import random
from fractions import Fraction

import pytest

from stabgames.codes import (
    double_semion,
    star_operator,
    toric2d,
    toric3d_edges,
    toric3d_faces,
    xcube,
)
from stabgames.dense import deform, state_from_group
from stabgames.games import (
    CellulationGame,
    MagicSquareGame,
    ParityGame,
    _valid_rows,
    cellulation_game_eval,
    classical_optimum_magic_square,
    classical_optimum_parity,
    classical_strategy_score,
    lifted_qubit_square_strategy,
    magic_square_eval,
    magic_square_score,
    quantum_parity_eval,
)
from stabgames.strategies import (
    CompositeOperatorSet,
    block_cellulation_ops,
    ds_magic_square_ops,
    fan_cellulation_ops,
    ghz_ops,
    tc2d_parity_ops,
    tc3d_1form_ops,
    tc3d_2form_ops,
    validate,
    xcube_ops,
)
from stabgames.tableau import StabilizerGroup


class TestParityGameStructure:
    def test_input_count(self):
        for p in (3, 4, 6):
            assert len(ParityGame(p).valid_inputs()) == 2 ** (p - 1)

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

    def test_tight_bound_through_p20(self):
        for p in range(3, 21):
            opt, witness = classical_optimum_parity(p)
            assert opt == Fraction(1, 2) + Fraction(1, 2 ** -(-p // 2)), p
            assert len(witness["a"]) == len(witness["c"]) == p
        with pytest.raises(ValueError):
            classical_optimum_parity(21)

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
            game = CellulationGame(strat)
            ev = cellulation_game_eval(game, max_exhaustive=1 << 10, samples=256)
            assert ev.p_q == 1

    def test_microscopic_matches_codespace_projector(self):
        code = toric2d(2)
        strat = block_cellulation_ops(code, 1, 1)
        game = CellulationGame(strat)
        from stabgames.pauli import PauliOperator

        # winding dual Z loops: one crosses all vertical edges of a row, the
        # other all horizontal edges of a column
        wz1 = PauliOperator.from_support(code.n, "Z", [code.qubit_index(("e", x, 0, 1)) for x in range(2)])
        wz2 = PauliOperator.from_support(code.n, "Z", [code.qubit_index(("e", 0, y, 0)) for y in range(2)])
        fixed = code.group.fix_sector([wz1, wz2])
        codeword = state_from_group(fixed)
        ev = cellulation_game_eval(game, resource=codeword)
        assert ev.p_q == pytest.approx(1.0, abs=1e-10)
        # orthogonal sector: flip one star's sign; p_q = (1 + 0)/2
        gens = [
            (g.scale_i(2) if lab == ("zstab", ("v", 1, 1)) else g)
            for lab, g in code.labeled_generators
            if lab != ("zstab", ("v", 0, 0))
        ]
        flipped = StabilizerGroup(gens, d=2, n=code.n).fix_sector([wz1, wz2])
        orth = state_from_group(flipped)
        ev2 = cellulation_game_eval(game, resource=orth)
        assert ev2.p_q == pytest.approx(0.5, abs=1e-10)
        # the tableau scores the same sector exactly, input by input
        exact = cellulation_game_eval(game, resource=flipped)
        assert exact.p_q == Fraction(1, 2)
        assert exact.per_input.keys() == ev2.per_input.keys()
        for bits, win in ev2.per_input.items():
            assert abs(win - exact.per_input[bits]) < 1e-10
        assert type(exact.p_q) is Fraction
        assert all(type(w) is Fraction for w in exact.per_input.values())
        assert type(ev2.p_q) is float
        assert all(type(w) is float for w in ev2.per_input.values())

    def test_fan_restriction_reproduces_parity(self):
        code = toric2d(5)
        strat = fan_cellulation_ops(code)
        game = CellulationGame(strat)
        ev = cellulation_game_eval(game, restrict_unit_z=True)
        assert len(ev.per_input) == 4  # 2^(P-1) parity inputs
        assert ev.p_q == 1
        parity_ev = quantum_parity_eval(tc2d_parity_ops(code, 3))
        assert parity_ev.p_q == ev.p_q
        assert sorted(ev.per_input.values()) == sorted(parity_ev.per_input.values())

    def test_even_cross_parity_asserted(self):
        code = toric2d(4)
        strat = block_cellulation_ops(code, 2, 2)
        ev = cellulation_game_eval(CellulationGame(strat))
        assert ev.p_q == 1  # implies every input passed the even-parity assert


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
        from stabgames.weyl import WeylOperator

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
        broken = dataclasses.replace(ms, a_z=[ms.a_z[0], ms.a_x[0]], b_x=[ms.b_x[0], ms.b_z[0]])
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
