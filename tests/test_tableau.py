"""Stabilizer-group canonicalization, membership and expectation tests."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabgames.codes import toric2d
from stabgames.pauli import PauliOperator, multiply
from stabgames.tableau import Expectation, StabilizerGroup, canonicalize
from stabgames.weyl import WeylOperator, dagger, w_multiply, w_power


def P(text, n):
    return PauliOperator.from_text(text, n)


def paulis(n):
    """Random n-qubit Pauli operators with any i-power phase."""
    bits = st.integers(0, (1 << n) - 1)
    return st.builds(PauliOperator, st.just(n), bits, bits, st.integers(0, 3))


@st.composite
def qubit_cases(draw):
    """(n, candidate generators, probe operators) on 1..5 qubits."""
    n = draw(st.integers(1, 5))
    gens = draw(st.lists(paulis(n), max_size=2 * n))
    return n, gens, draw(st.lists(paulis(n), min_size=1, max_size=4))


def build(gens, n):
    """The group on n qubits, or None if the generators are rejected."""
    try:
        return StabilizerGroup(gens, d=2, n=n)
    except ValueError:
        return None


def as_pauli(op):
    # an empty generator list builds a qubit group on either path
    return op.to_pauli() if isinstance(op, WeylOperator) else op


def assert_paths_agree(gens, n, probes):
    """The packed PauliOperator path and the WeylOperator d=2 path agree on
    acceptance, canonical rows, pivots, expectations and reductions."""
    gq = build(gens, n)
    gw = build([WeylOperator.from_pauli(g) for g in gens], n)
    assert (gq is None) == (gw is None)
    if gq is None:
        return
    assert [(r.x, r.z, r.phase) for r in gq.rows] == [
        (p.x, p.z, p.phase) for p in map(as_pauli, gw.rows)
    ]
    assert gq.pivots == gw.pivots
    assert gq.ground_space_dim() == gw.ground_space_dim()
    for probe in probes:
        eq, ew = gq.expectation(probe), gw.expectation(WeylOperator.from_pauli(probe))
        assert (eq.kind, eq.phase_exp) == (ew.kind, ew.phase_exp)
        assert gq.reduce(probe) == as_pauli(gw.reduce(probe))


def ghz_group(p):
    gens = [PauliOperator.from_support(p, "X", range(p))]
    gens += [PauliOperator.from_support(p, "Z", [i, i + 1]) for i in range(p - 1)]
    return StabilizerGroup(gens)


class TestCanonicalize:
    def test_redundant_generator_merges(self):
        g = StabilizerGroup([P("i^0 Z0", 2), P("i^0 Z0 Z1", 2)])
        vecs = sorted((r.x, r.z) for r in g.rows)
        assert vecs == [(0, 1), (0, 2)]  # Z0 and Z1
        assert g.rank == 2

    def test_idempotent(self):
        g = ghz_group(4)
        g2 = canonicalize(g)
        assert [(r.x, r.z, r.phase) for r in g.rows] == [(r.x, r.z, r.phase) for r in g2.rows]

    def test_order_independent(self):
        rng = random.Random(6)
        base = ghz_group(5)
        want = [(r.x, r.z, r.phase) for r in base.rows]
        gens = list(base.generators)
        for _ in range(10):
            rng.shuffle(gens)
            got = StabilizerGroup(gens)
            assert [(r.x, r.z, r.phase) for r in got.rows] == want

    def test_noncommuting_generators_raise(self):
        with pytest.raises(ValueError):
            StabilizerGroup([P("i^0 X0", 1), P("i^0 Z0", 1)])

    def test_minus_identity_raises(self):
        with pytest.raises(ValueError):
            StabilizerGroup([P("i^0 Z0", 1), P("i^2 Z0", 1)])

    def test_non_hermitian_generator_raises(self):
        # (i Z0)^2 = -I
        with pytest.raises(ValueError):
            StabilizerGroup([P("i^1 Z0", 2), P("i^0 Z1", 2)])


class TestGroundSpace:
    def test_ghz_is_unique_state(self):
        assert ghz_group(6).ground_space_log_dim() == 0

    def test_single_z(self):
        g = StabilizerGroup([P("i^0 Z0", 4)])
        assert g.ground_space_log_dim() == 3

    def test_rank_plus_logdim_is_n(self):
        rng = random.Random(8)
        for _ in range(30):
            n = rng.randrange(2, 9)
            gens = []
            group_try = None
            for _ in range(n * 3):
                cand = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n), 0)
                if cand.x == 0 and cand.z == 0:
                    continue
                if not cand.is_hermitian():
                    cand = cand.scale_i(1)
                try:
                    group_try = StabilizerGroup(gens + [cand])
                    gens.append(cand)
                except ValueError:
                    continue
            if group_try is None:
                continue
            assert group_try.rank + group_try.ground_space_log_dim() == n

    def test_qudit_dimensions(self):
        z = WeylOperator.single(4, 1, 0, 0, 1)
        assert StabilizerGroup([z]).ground_space_dim() == 1
        assert StabilizerGroup([w_power(z, 2)]).ground_space_dim() == 2


class TestExpectation:
    def test_definite_plus_one(self):
        g = StabilizerGroup([P("i^0 Z0", 2)])
        e = g.expectation(P("i^0 Z0", 2))
        assert e.kind == "definite" and e.value == pytest.approx(1.0)

    def test_zero_on_anticommuting(self):
        g = StabilizerGroup([P("i^0 Z0", 2)])
        assert g.expectation(P("i^0 X0", 2)).kind == "zero"

    def test_logical_detected(self):
        g = StabilizerGroup([P("i^0 Z0 Z1", 2)])
        e = g.expectation(P("i^0 X0 X1", 2))
        assert e.kind == "logical"

    def test_negative_phase_generator(self):
        g = StabilizerGroup([P("i^2 Z0", 1)])
        e = g.expectation(P("i^0 Z0", 1))
        assert e.kind == "definite" and e.value == pytest.approx(-1.0)

    def test_product_membership_with_phase(self):
        g = ghz_group(3)
        # X1 X2 X3 = +1, and Y-pairs pick up the GHZ minus signs
        y = lambda i: PauliOperator.single(3, i, "Y")
        x = lambda i: PauliOperator.single(3, i, "X")
        coll = multiply(x(0), multiply(y(1), y(2)))
        e = g.expectation(coll)
        assert e.kind == "definite" and e.value == pytest.approx(-1.0)

    def test_register_mismatch(self):
        g = StabilizerGroup([P("i^0 Z0", 2)])
        with pytest.raises(ValueError):
            g.expectation(P("i^0 Z0", 3))


class TestFixSector:
    def test_logical_becomes_definite(self):
        g = StabilizerGroup([P("i^0 Z0 Z1", 2)])
        xx = P("i^0 X0 X1", 2)
        assert g.expectation(xx).kind == "logical"
        fixed = g.fix_sector([xx])
        assert fixed.expectation(xx).is_definite(0)
        assert fixed.ground_space_log_dim() == 0

    def test_fix_to_minus_one(self):
        g = StabilizerGroup([P("i^0 Z0 Z1", 2)])
        fixed = g.fix_sector([P("i^2 X0 X1", 2)])
        e = fixed.expectation(P("i^0 X0 X1", 2))
        assert e.value == pytest.approx(-1.0)

    def test_anticommuting_fixer_raises(self):
        g = StabilizerGroup([P("i^0 Z0", 2)])
        with pytest.raises(ValueError):
            g.fix_sector([P("i^0 X0", 2)])

    def test_nothing_fixed_stays_logical(self):
        g = StabilizerGroup([P("i^0 Z0 Z1", 2)])
        assert g.fix_sector([]).expectation(P("i^0 X0 X1", 2)).kind == "logical"


class TestQuditGroups:
    def test_bell_pair_group(self):
        # X (x) X^dag and Z (x) Z stabilize the qudit Bell state sum_q |qq>
        d = 4
        x0 = WeylOperator.single(d, 2, 0, 1, 0)
        x1d = dagger(WeylOperator.single(d, 2, 1, 1, 0))
        z0 = WeylOperator.single(d, 2, 0, 0, 1)
        z1 = WeylOperator.single(d, 2, 1, 0, 1)
        g = StabilizerGroup([w_multiply(x0, x1d), w_multiply(z0, z1)])
        assert g.ground_space_dim() == 1
        e = g.expectation(w_multiply(z0, z1))
        assert e.is_definite(0)

    def test_howell_order_independent(self):
        rng = random.Random(12)
        d, n = 4, 3
        gens = [
            WeylOperator(d, n, (2, 0, 0), (0, 0, 0), 0),
            WeylOperator(d, n, (0, 0, 0), (0, 1, 0), 0),
            WeylOperator(d, n, (2, 0, 0), (0, 2, 2), 0),
        ]
        base = StabilizerGroup(gens)
        want = [(r.x, r.z, r.phase) for r in base.rows]
        for _ in range(6):
            rng.shuffle(gens)
            assert [(r.x, r.z, r.phase) for r in StabilizerGroup(gens).rows] == want

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(qubit_cases())
    @example((1, [P("i^0 X0", 1), P("i^0 Z0", 1)], [P("i^0 X0", 1)]))  # non-commuting
    @example((1, [P("i^0 Z0", 1), P("i^2 Z0", 1)], [P("i^0 Z0", 1)]))  # -I
    @example((1, [P("i^1 Z0", 1)], [P("i^0 Z0", 1)]))  # non-Hermitian i*Z0
    def test_pauli_and_weyl_paths_agree_at_d2(self, case):
        n, cands, probes = case
        assert_paths_agree(cands, n, probes)
        # grow a valid group greedily, as the reference path decides
        gens = []
        for cand in cands:
            if not cand.is_hermitian():
                cand = cand.scale_i(1)
            if build([WeylOperator.from_pauli(g) for g in gens + [cand]], n) is not None:
                gens.append(cand)
        member = PauliOperator.identity(n)
        for g in gens[::2]:
            member = multiply(member, g)
        assert_paths_agree(gens, n, probes + [member, member.scale_i(2)])

    def test_toric_code_packed_rows_match_weyl_path(self):
        gens = list(toric2d(6).group.generators)
        star_plaquette = multiply(gens[0], gens[-1])
        assert_paths_agree(gens, 72, [star_plaquette, P("i^0 X0", 72), P("i^0 Z0 Z1", 72)])


def test_text_round_trip():
    g = ghz_group(4)
    g2 = StabilizerGroup.import_text(g.export_text(), 2, 4)
    assert [(r.x, r.z, r.phase) for r in g.rows] == [(r.x, r.z, r.phase) for r in g2.rows]
