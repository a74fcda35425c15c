"""Stabilizer-group canonicalization, membership and expectation tests."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabgames.codes import toric2d
from stabgames.pauli import PauliOperator, commutes, multiply
from stabgames.tableau import Expectation, StabilizerGroup
from stabgames.weyl import WeylOperator, commutation_phase, dagger, w_multiply, w_power
from tests_matrix_helpers import stabilizer_generators


def P(text, n):
    return PauliOperator.from_text(text, n)


def paulis(n):
    """Random n-qubit Pauli operators with any i-power phase."""
    bits = st.integers(0, (1 << n) - 1)
    return st.builds(PauliOperator, st.just(n), bits, bits, st.integers(0, 3))


@st.composite
def qubit_cases(draw):
    """(n, candidate generators, probe operators) on 1..5 qubits; the
    candidates are random Paulis or the generators of a random group."""
    n = draw(st.integers(1, 5))
    gens = draw(st.lists(paulis(n), max_size=2 * n) | stabilizer_generators(n))
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


def canonical_reduce(group, op):
    """Reduction by the canonical rows: op times every row whose pivot bit
    op carries.  Each canonical row carries no other row's pivot bit, so the
    bits are read once, from op."""
    cur = op
    for (col, _), row in zip(group.pivots, group.rows):
        if ((op.x | op.z << op.n) >> col) & 1:
            cur = multiply(cur, row)
    return cur


def canonical_expectation(group, op):
    """(kind, phase) of <op>, by canonical reduction."""
    if not all(commutes(op, row) for row in group.rows):
        return "zero", 0
    r = canonical_reduce(group, op)
    return ("logical", 0) if r.x or r.z else ("definite", r.phase)


def assert_paths_agree(gens, n, probes):
    """The packed PauliOperator path and the WeylOperator d=2 path agree on
    acceptance, canonical rows, pivots, expectations and reductions; and the
    packed path, which reduces by its echelon rows, agrees with a reduction
    by the canonical rows."""
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
        assert gq.reduce(probe) == canonical_reduce(gq, probe)
        assert (eq.kind, eq.phase_exp) == canonical_expectation(gq, probe)


# -- reference Weyl kernel: one WeylOperator per row operation ---------------
#
# The former per-operator Howell elimination, kept as the reference the
# row kernel is tested against.  Powers are taken by repeated squaring
# (negative ones through the adjoint), not by the closed form the library uses.


def _reference_power(p, m):
    if m < 0:
        return _reference_power(dagger(p), -m)
    acc, base = WeylOperator.identity(p.d, p.n), p
    while m:
        if m & 1:
            acc = w_multiply(acc, base)
        base = w_multiply(base, base)
        m >>= 1
    return acc


def _reference_canonical_rows(gens, d, n):
    """(canonical rows, pivots) of Weyl generators, or the ValueError message."""
    for i, g in enumerate(gens):
        for h in gens[i + 1 :]:
            if commutation_phase(g, h) != 0:
                return "generators do not commute"
    rows, pivots, pending = [], [], list(gens)
    for col in range(2 * n):
        zside, j = col >= n, col % n
        best, best_gcd = None, d
        for idx, r in enumerate(pending):
            e = (r.z if zside else r.x)[j]
            if e and math.gcd(e, d) < best_gcd:
                best, best_gcd = idx, math.gcd(e, d)
                if best_gcd == 1:
                    break
        if best is None:
            continue
        piv = pending.pop(best)
        e = (piv.z if zside else piv.x)[j]
        if best_gcd == 1:
            piv = _reference_power(piv, pow(e, -1, d))
            pval = 1
            if _reference_power(piv, d).phase != 0:
                return "inconsistent group: nontrivial scalar generated"
        else:
            pval = best_gcd
            scale = pow(e // pval, -1, d // pval)
            if scale != 1:
                piv = _reference_power(piv, scale)
            extra = _reference_power(piv, d // pval)
            if not extra.is_scalar():
                pending.append(extra)
            elif extra.phase != 0:
                return "inconsistent group: nontrivial scalar generated"
        for rs in (pending, rows):
            for i, r in enumerate(rs):
                q = (r.z if zside else r.x)[j] // pval
                if q:
                    rs[i] = w_multiply(r, _reference_power(piv, -q))
        rows.append(piv)
        pivots.append((col, pval))
    for r in pending:
        if not r.is_scalar():
            return "canonicalization failed to clear a row"
        if r.phase != 0:
            return "inconsistent group: nontrivial scalar generated"
    return rows, pivots


def _reference_reduce(rows, pivots, op):
    n = op.n
    for (col, pval), row in zip(pivots, rows):
        e = op.x[col] if col < n else op.z[col - n]
        if e % pval == 0 and e // pval:
            op = w_multiply(op, _reference_power(row, -(e // pval)))
    return op


def _reference_expectation(rows, pivots, op):
    if any(commutation_phase(row, op) != 0 for row in rows):
        return ("zero", 0)
    red = _reference_reduce(rows, pivots, op)
    return ("definite", red.phase) if red.is_scalar() else ("logical", 0)


def weyl_ops(d, n):
    """Random Weyl operators on n qudits; when d = p^k with k > 1, about half
    of them have only exponents divisible by p, which makes zero-divisor
    pivots (at d = 8, pivot values 2 and 4)."""
    p = next(p for p in range(2, d + 1) if d % p == 0)

    def build(divisible, x, z, phase):
        k = p if divisible and p < d else 1
        return WeylOperator(d, n, tuple(k * v for v in x), tuple(k * v for v in z), phase)

    exps = st.lists(st.integers(0, d - 1), min_size=n, max_size=n)
    return st.builds(build, st.booleans(), exps, exps, st.integers(0, 2 * d - 1))


def _unit_power(op):
    """op times a phase that makes op^d = I, when one w-step suffices."""
    return op if w_power(op, op.d).phase == 0 else op.scale_w(1)


def _grow_group(cands, d, n):
    """A valid group grown greedily from the candidates, as the reference
    decides."""
    gens = []
    for cand in map(_unit_power, cands):
        if not isinstance(_reference_canonical_rows(gens + [cand], d, n), str):
            gens.append(cand)
    return gens


@st.composite
def weyl_cases(draw):
    """(d, n, candidate generators, probe operators) at d = 2, 3, 4, 8, 9."""
    d = draw(st.sampled_from([2, 3, 4, 8, 9]))
    n = draw(st.integers(1, 4))
    gens = draw(st.lists(weyl_ops(d, n), max_size=2 * n))
    return d, n, gens, draw(st.lists(weyl_ops(d, n), min_size=1, max_size=4))


def _as_w(op):
    # an empty generator list builds a packed qubit group at d = 2
    return WeylOperator.from_pauli(op) if isinstance(op, PauliOperator) else op


def _weyl_group(gens, d, n):
    """The library's group and its (rows, pivots), or the ValueError message."""
    try:
        g = StabilizerGroup(gens, d=d, n=n)
    except ValueError as exc:
        return None, str(exc)
    return g, ([_as_w(r) for r in g.rows], g.pivots)


def assert_matches_reference(gens, d, n, probes):
    """The library's row kernel and the reference agree on acceptance and its
    error message, rows, phases, pivots, reduce and expectation."""
    want = _reference_canonical_rows(gens, d, n)
    group, got = _weyl_group(gens, d, n)
    assert got == want
    if group is None:
        return
    rows, pivots = want
    for probe in probes:
        assert _as_w(group.reduce(probe)) == _reference_reduce(rows, pivots, probe)
        e = group.expectation(probe)
        assert (e.kind, e.phase_exp) == _reference_expectation(rows, pivots, probe)


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
        g2 = StabilizerGroup(g.rows, d=g.d, n=g.n)
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

    @pytest.mark.parametrize("d", [2, 4])
    def test_negative_register_raises(self, d):
        # an empty group with n = -1 was built, with rank 0
        with pytest.raises(ValueError, match="negative register size"):
            StabilizerGroup([], d=d, n=-1)


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


    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 9])
    def test_prime_power_dimensions_build(self, d):
        # X^2 and X^3 generate <X> for every d
        gens = [WeylOperator(d, 1, (2,), (0,), 0), WeylOperator(d, 1, (3,), (0,), 0)]
        assert StabilizerGroup(gens).rank == 1

    @pytest.mark.parametrize("d", [6, 12])
    def test_other_dimensions_refused(self, d):
        gens = [WeylOperator(d, 1, (2,), (0,), 0), WeylOperator(d, 1, (3,), (0,), 0)]
        with pytest.raises(ValueError, match=f"d = {d} is not a prime power"):
            StabilizerGroup(gens)
        with pytest.raises(ValueError, match=f"d = {d} is not a prime power"):
            StabilizerGroup([], d=d, n=1)


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
        # every query, on the packed and the Weyl path, checks the register
        qubits = StabilizerGroup([P("i^0 Z0", 2)])
        ququarts = StabilizerGroup([WeylOperator.single(4, 2, 0, 0, 1)])
        for g, op in ((qubits, P("i^0 Z0", 3)), (ququarts, WeylOperator.single(4, 3, 0, 0, 1))):
            for query in (g.expectation, g.reduce, lambda o: g.fix_sector([o])):
                with pytest.raises(ValueError, match="register mismatch"):
                    query(op)

    def test_dimension_mismatch(self):
        # a query of another d is rejected, not read as an operator of the group's d
        qubits = StabilizerGroup([P("i^0 Z0", 1)])
        ququarts = StabilizerGroup([WeylOperator(4, 1, (1,), (0,), 0)])
        qutrits = StabilizerGroup([WeylOperator(3, 1, (1,), (0,), 0)])
        cases = [
            (ququarts, WeylOperator(3, 1, (1,), (0,), 0)),
            (ququarts, P("i^0 X0", 1)),
            (qutrits, WeylOperator(4, 1, (1,), (0,), 0)),
            (qubits, WeylOperator(3, 1, (0,), (1,), 0)),
        ]
        for g, op in cases:
            for query in (g.expectation, g.reduce, lambda o: g.fix_sector([o])):
                with pytest.raises(ValueError, match="dimension mismatch"):
                    query(op)


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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 5).flatmap(
        lambda n: st.tuples(st.just(n), stabilizer_generators(n), st.lists(paulis(n), max_size=3))))
    def test_matches_rebuild_on_qubits(self, case):
        # fixing a sector extends the group's echelon by the fixers; a build
        # from the generators and the fixers must give the same group, or fail
        # with the same message
        n, gens, probes = case
        base = StabilizerGroup(gens, d=2, n=n)
        fixers = [p if p.is_hermitian() else p.scale_i(1) for p in probes]
        fixers = [p for p in fixers if base.expectation(p).kind != "zero"]
        try:
            fixed = base.fix_sector(fixers)
        except ValueError as exc:
            got = str(exc)
            if "sector fixer" in got:  # rejected by the pre-checks
                assert build(gens + fixers, n) is None
                return
        else:
            assert fixed.generators == tuple(gens + fixers)
            got = (fixed.rows, fixed.pivots)
        try:
            rebuilt = StabilizerGroup(gens + fixers, d=2, n=n)
        except ValueError as exc:
            assert got == str(exc)
            return
        assert got == (rebuilt.rows, rebuilt.pivots)
        for probe in probes:
            assert fixed.reduce(probe) == rebuilt.reduce(probe)
            assert fixed.expectation(probe) == rebuilt.expectation(probe)

    @pytest.mark.parametrize("weyl", [False, True], ids=["packed", "weyl"])
    def test_anticommuting_fixers_raise(self, weyl):
        # X0X1 and Z0 each commute with Z0Z1, but not with each other
        conv = WeylOperator.from_pauli if weyl else (lambda op: op)
        g = StabilizerGroup([conv(P("i^0 Z0 Z1", 2))])
        with pytest.raises(ValueError, match="generators do not commute"):
            g.fix_sector([conv(P("i^0 X0 X1", 2)), conv(P("i^0 Z0", 2))])

    @pytest.mark.parametrize("weyl", [False, True], ids=["packed", "weyl"])
    def test_parent_and_siblings_are_untouched(self, weyl):
        conv = WeylOperator.from_pauli if weyl else (lambda op: op)
        zz, xx, z0 = (conv(P(f"i^0 {t}", 2)) for t in ("Z0 Z1", "X0 X1", "Z0"))
        g = StabilizerGroup([zz])
        fixed = g.fix_sector([xx])
        assert g.expectation(z0).kind == "logical" and g.expectation(xx).kind == "logical"
        assert fixed.expectation(z0).kind == "zero" and fixed.expectation(xx).is_definite(0)
        # sectors fixed from one group share no rows with each other or with it
        minus = g.fix_sector([conv(P("i^2 X0 X1", 2))])
        g.fix_sector([z0])
        assert fixed.expectation(xx).is_definite(0) and minus.expectation(xx).is_definite(2)
        assert g.rows == StabilizerGroup([zz]).rows and g.rank == 1


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


def _w(d, n, x, z, phase=0):
    return WeylOperator(d, n, tuple(x), tuple(z), phase)


class TestWeylKernel:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(weyl_cases())
    @example((3, 1, [_w(3, 1, [1], [0]), _w(3, 1, [0], [1])], [_w(3, 1, [1], [1])]))  # non-commuting
    @example((4, 1, [_w(4, 1, [0], [1]), _w(4, 1, [0], [1], 2)], [_w(4, 1, [0], [1])]))  # scalar w^2
    @example((4, 2, [_w(4, 2, [2, 0], [0, 2]), _w(4, 2, [0, 2], [2, 0])], [_w(4, 2, [2, 2], [2, 2])]))
    @example((4, 1, [_w(4, 1, [2], [0], 1)], [_w(4, 1, [2], [0])]))  # (w X^2)^2 = w^2: zero divisor
    def test_matches_reference(self, case):
        d, n, cands, probes = case
        assert_matches_reference(cands, d, n, probes)
        gens = _grow_group(cands, d, n)
        member = WeylOperator.identity(d, n)
        for g in gens[::2]:
            member = w_multiply(member, g)
        assert_matches_reference(gens, d, n, probes + [member, member.scale_w(2)])
        # fixing a sector extends the canonical rows; a rebuild from the
        # generators must give the same group, or fail with the same message
        base, _ = _weyl_group(gens, d, n)
        fixers = [p for p in map(_unit_power, probes) if base.expectation(p).kind != "zero"]
        try:
            fixed = base.fix_sector(fixers)
        except ValueError as exc:
            got = str(exc)
            if "sector fixer" in got:
                return  # rejected by the pre-checks, before any build
        else:
            assert list(map(_as_w, fixed.generators)) == gens + fixers
            got = ([_as_w(r) for r in fixed.rows], fixed.pivots)
        rebuilt, want = _weyl_group(gens + fixers, d, n)
        assert got == want
        if rebuilt is not None:
            for probe in probes:
                assert fixed.expectation(probe) == rebuilt.expectation(probe)

    def test_fix_sector_extends_canonical_rows_on_double_semion(self):
        from stabgames.codes import double_semion, ds_winding_fixers

        code = double_semion(4, 4)
        fixers = ds_winding_fixers(code)
        fixed = code.group.fix_sector(fixers)
        rows, pivots = _reference_canonical_rows(list(code.group.generators) + fixers, 4, code.n)
        assert fixed.rows == rows and fixed.pivots == pivots
        assert fixed.export_text() == "\n".join(
            g.to_text() for g in list(code.group.generators) + fixers
        )

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(weyl_cases())
    def test_queries_on_unread_rows_match_reference(self, case):
        # expectation and fix_sector reduce against the echelon rows; a member
        # and its phase do not depend on the basis, so they match the
        # reference's canonical rows while the group's own are never built
        d, n, cands, probes = case
        gens = _grow_group(cands, d, n)
        group = StabilizerGroup(gens, d=d, n=n)
        rows, pivots = _reference_canonical_rows(gens, d, n)
        member = WeylOperator.identity(d, n)
        for g in gens[1::2]:
            member = w_multiply(member, g)
        for probe in probes + [member, member.scale_w(3)]:
            e = group.expectation(probe)
            assert (e.kind, e.phase_exp) == _reference_expectation(rows, pivots, probe)
        fixers = [p for p in map(_unit_power, probes) if group.expectation(p).kind != "zero"]
        want = _reference_canonical_rows(gens + fixers, d, n)
        try:
            fixed = group.fix_sector(fixers)
        except ValueError as exc:
            # the pre-checks refuse a fixer in the group with another phase,
            # which the reference refuses as a nontrivial scalar
            assert isinstance(want, str)
            assert str(exc) == want or "sector fixer" in str(exc)
        else:
            assert fixed._canon is None
            assert ([_as_w(r) for r in fixed.rows], fixed.pivots) == want
        assert group._canon is None and group._rows is None

    def test_fix_sector_leaves_the_canonical_rows_unbuilt(self):
        # a build, expectations and fix_sector keep the echelon rows only;
        # the canonical rows are back-substituted when rows or reduce first
        # needs them
        from stabgames.codes import double_semion, ds_string, ds_winding_fixers

        code = double_semion(4, 4)
        group = code.group
        loop = ds_string(code, "s", [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)])
        probes = [*group.generators[:3], loop, w_multiply(group.generators[0], loop)]
        fixed = group.fix_sector(ds_winding_fixers(code))
        kinds = [(group.expectation(p).kind, fixed.expectation(p).kind) for p in probes]
        assert ("definite", "definite") in kinds
        assert group._canon is None and fixed._canon is None
        assert group._rows is None and fixed._rows is None
        fixed.reduce(loop)
        assert fixed._canon is not None and group._canon is None

    def test_parent_rows_do_not_leak_into_a_fixed_group(self):
        from stabgames.codes import double_semion, ds_winding_fixers

        code = double_semion(4, 4)
        fixers = ds_winding_fixers(code)
        gens = list(code.group.generators)
        parent_rows = code.group.rows  # back-substitutes the parent's rows first
        fixed = code.group.fix_sector(fixers)
        assert fixed._canon is None and fixed._rows is None
        assert (fixed.rows, fixed.pivots) == _reference_canonical_rows(gens + fixers, 4, code.n)
        assert code.group.rows == parent_rows == StabilizerGroup(gens).rows


@pytest.mark.parametrize("weyl", [False, True], ids=["packed", "weyl"])
def test_rows_are_built_once_and_read_as_a_new_list(weyl):
    gens = list(toric2d(3).group.generators)
    if weyl:
        gens = [WeylOperator.from_pauli(g) for g in gens]
    g = StabilizerGroup(gens)
    first = g.rows
    want = list(first)
    first.clear()  # changes the caller's list, not the group
    again = g.rows
    assert again == want and again is not g.rows
    assert all(a is b for a, b in zip(again, g.rows))
