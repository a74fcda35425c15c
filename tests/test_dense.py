"""Dense oracle tests: projector construction, expectations, deformations."""

import os
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import stabgames
from stabgames.codes import toric2d, toric2d_winding_z_fixers
from stabgames.dense import (
    DenseState,
    _coordinate_state,
    _counts,
    _cyclotomic,
    _orbit_state,
    _plane_counts,
    _row_order,
    apply_operator,
    deform,
    dense_expectation,
    exact_expectation,
    state_from_group,
)
from stabgames.pauli import PauliOperator, multiply, ordered_product
from stabgames.strategies import ghz_ops
from stabgames.tableau import Expectation, StabilizerGroup, _as_weyl
from stabgames.weyl import WeylOperator, w_multiply, w_power


def P(text, n):
    return PauliOperator.from_text(text, n)


def random_commuting_group(rng, n, d=2, max_rank=None):
    gens = []
    limit = max_rank if max_rank is not None else n
    attempts = 0
    while len(gens) < limit and attempts < 40 * n:
        attempts += 1
        if d == 2:
            cand = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n), 0)
            if cand.x == 0 and cand.z == 0:
                continue
            if not cand.is_hermitian():
                cand = cand.scale_i(1)
            if rng.random() < 0.5:
                cand = cand.scale_i(2)
        else:
            cand = WeylOperator(
                d,
                n,
                tuple(rng.randrange(d) for _ in range(n)),
                tuple(rng.randrange(d) for _ in range(n)),
                0,
            )
            if cand.is_scalar():
                continue
            # rescale so the candidate has a +1 eigenspace (cand^d == 1)
            c = w_power(cand, d).phase
            if c % (2 * d) == 0:
                pass
            elif c % d == 0:
                cand = cand.scale_w(1)
            else:
                continue
        try:
            StabilizerGroup(gens + [cand])
            gens.append(cand)
        except ValueError:
            continue
    return StabilizerGroup(gens, d=d, n=n) if gens else None


class TestStateFromGroup:
    def test_computational_state(self):
        g = StabilizerGroup([P("i^0 Z0", 2), P("i^0 Z1", 2)])
        s = state_from_group(g)
        assert np.allclose(s.amps, [1, 0, 0, 0])

    def test_ghz_state(self):
        gens = [PauliOperator.from_support(3, "X", range(3))]
        gens += [PauliOperator.from_support(3, "Z", [i, i + 1]) for i in range(2)]
        s = state_from_group(StabilizerGroup(gens))
        want = np.zeros(8)
        want[0] = want[7] = 1 / np.sqrt(2)
        # global phase free
        assert abs(abs(np.vdot(want, s.amps)) - 1.0) < 1e-12

    def test_generators_have_unit_expectation(self):
        rng = random.Random(19)
        for _ in range(20):
            n = rng.randrange(2, 7)
            g = random_commuting_group(rng, n)
            if g is None or g.ground_space_dim() != 1:
                continue
            s = state_from_group(g)
            for gen in g.generators:
                assert dense_expectation(s, gen) == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_group_rejected(self):
        g = StabilizerGroup([P("i^0 Z0 Z1", 2)])
        with pytest.raises(ValueError):
            state_from_group(g)

    @pytest.mark.parametrize("d, n", [(2, 23), (4, 12), (3, 14), (2, 10**4)])
    def test_register_beyond_the_dense_bound_rejected(self, d, n):
        # refused before the ground space or any plane is built
        with pytest.raises(ValueError, match="exceeds the dense bound"):
            state_from_group(StabilizerGroup([], d=d, n=n))


class TestExpectationAgainstTableau:
    def test_qubit_agreement(self):
        rng = random.Random(23)
        checked = 0
        while checked < 400:
            n = rng.randrange(2, 7)
            g = random_commuting_group(rng, n)
            if g is None:
                continue
            full = g
            if full.ground_space_dim() != 1:
                # fix a sector with random commuting logicals
                extras = []
                tries = 0
                while StabilizerGroup(list(full.generators) + extras, d=2, n=n).ground_space_dim() != 1 and tries < 200:
                    tries += 1
                    cand = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n), 0)
                    if not cand.is_hermitian():
                        cand = cand.scale_i(1)
                    try:
                        StabilizerGroup(list(full.generators) + extras + [cand], d=2, n=n)
                        extras.append(cand)
                    except ValueError:
                        continue
                full = StabilizerGroup(list(full.generators) + extras, d=2, n=n)
                if full.ground_space_dim() != 1:
                    continue
            s = state_from_group(full)
            for _ in range(10):
                op = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n), rng.randrange(4))
                tab = full.expectation(op)
                dns = dense_expectation(s, op)
                if tab.kind == "definite":
                    assert dns == pytest.approx(tab.value, abs=1e-10)
                else:
                    assert abs(dns) < 1e-10
                checked += 1

    def test_qudit_agreement(self):
        rng = random.Random(29)
        checked = 0
        while checked < 80:
            n = rng.randrange(1, 4)
            g = random_commuting_group(rng, n, d=4)
            if g is None or g.ground_space_dim() != 1:
                continue
            s = state_from_group(g)
            for _ in range(8):
                op = WeylOperator(
                    4,
                    n,
                    tuple(rng.randrange(4) for _ in range(n)),
                    tuple(rng.randrange(4) for _ in range(n)),
                    2 * rng.randrange(4),
                )
                tab = g.expectation(op)
                dns = dense_expectation(s, op)
                if tab.kind == "definite":
                    assert dns == pytest.approx(tab.value, abs=1e-10)
                else:
                    assert abs(dns) < 1e-10
                checked += 1


class TestApplyOperator:
    def test_matches_matrix_action(self):
        rng = random.Random(31)
        from tests_matrix_helpers import pauli_matrix

        for _ in range(50):
            n = rng.randrange(1, 5)
            op = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n), rng.randrange(4))
            v = rng.random()
            amps = np.array([rng.random() + 1j * rng.random() for _ in range(1 << n)])
            amps /= np.linalg.norm(amps)
            got = apply_operator(DenseState(2, n, amps), op).amps
            want = pauli_matrix(op) @ amps
            assert np.allclose(got, want, atol=1e-12)


class TestDeform:
    def setup_method(self):
        gens = [PauliOperator.from_support(3, "X", range(3))]
        gens += [PauliOperator.from_support(3, "Z", [i, i + 1]) for i in range(2)]
        self.state = state_from_group(StabilizerGroup(gens))

    def test_theta_zero_is_identity(self):
        out = deform(self.state, "z", 0.0)
        assert np.allclose(out.amps, self.state.amps)

    def test_stays_normalized(self):
        out = deform(self.state, "z", 0.3)
        assert out.norm() == pytest.approx(1.0)
        out = deform(self.state, "x", 0.3)
        assert out.norm() == pytest.approx(1.0)

    def test_large_z_field_approaches_product_state(self):
        out = deform(self.state, "z", 8.0)
        want = np.zeros(8)
        want[0] = 1.0
        assert abs(abs(np.vdot(want, out.amps)) - 1.0) < 1e-6

    def test_first_order_derivative_matches_perturbation_formula(self):
        # d<M>/dtheta at 0 equals <{A, M}> - 2<A><M> for deformation exp(theta A)
        n = 3
        m = multiply(
            PauliOperator.single(n, 0, "X"),
            multiply(PauliOperator.single(n, 1, "X"), PauliOperator.single(n, 2, "X")),
        )
        a_sites = [0, 1, 2]
        step = 1e-4
        up = dense_expectation(deform(self.state, "z", step), m).real
        dn = dense_expectation(deform(self.state, "z", -step), m).real
        fd = (up - dn) / (2 * step)
        exp_m = dense_expectation(self.state, m).real
        exp_a = sum(
            dense_expectation(self.state, PauliOperator.single(n, j, "Z")).real for j in a_sites
        )
        # <{A,M}> with A = sum_j Z_j
        anti = 0.0
        for j in a_sites:
            zj = PauliOperator.single(n, j, "Z")
            anti += dense_expectation(self.state, multiply(zj, m)).real
            anti += dense_expectation(self.state, multiply(m, zj)).real
        assert fd == pytest.approx(anti - 2 * exp_a * exp_m, abs=1e-6)

    @pytest.mark.parametrize("family", ["z", "x"])
    @pytest.mark.parametrize("site", [-1, -3, 3, 7])
    def test_site_outside_the_register_is_refused(self, family, site):
        # -1 used to deform site n - 1 (Z) or fail on a negative shift (X),
        # and n or more an index or reshape error
        with pytest.raises(ValueError, match=rf"site {site} outside register of size 3"):
            deform(self.state, family, 0.3, sites=[0, site])

    @pytest.mark.parametrize("family", ["z", "x"])
    @pytest.mark.parametrize("site", [True, False, 1.0, "1", np.float64(1)])
    def test_site_that_is_no_integer_is_refused(self, family, site):
        # True used to deform site 1, and 1.0 failed with a TypeError
        with pytest.raises(ValueError, match=re.escape(f"site {site!r} is not an integer")):
            deform(self.state, family, 0.3, sites=[0, site])

    @pytest.mark.parametrize("family", ["z", "x"])
    def test_numpy_integer_site_is_a_site(self, family):
        want = deform(self.state, family, 0.3, sites=[1])
        assert np.array_equal(deform(self.state, family, 0.3, sites=[np.int64(1)]).amps, want.amps)


def _reference_z_deform(state, theta, sites):
    """The Z-field deformation with the weights summed in one full-register
    pass per site, scaled like deform's by the largest exponent on the support."""
    n = state.n
    weights = np.zeros(1 << n)
    for j in sites:
        bit = (np.arange(1 << n) >> (n - 1 - j)) & 1
        weights += 1.0 - 2.0 * bit
    expo = theta * weights
    expo -= expo[state.amps != 0].max()
    cur = state.amps * np.exp(np.minimum(expo, 0))
    return cur / np.linalg.norm(cur)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_z_field_matches_reference(data):
    n = data.draw(st.integers(0, 10))
    # None deforms every site; a list may repeat a site
    site_lists = st.lists(st.integers(0, n - 1), max_size=2 * n) if n else st.just([])
    sites = data.draw(st.none() | site_lists)
    theta = data.draw(st.floats(-2.0, 2.0))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    state = DenseState(2, n, amps / np.linalg.norm(amps))
    want = _reference_z_deform(state, theta, range(n) if sites is None else sites)
    assert np.array_equal(deform(state, "z", theta, sites).amps, want)


def test_z_field_matches_reference_on_18_qubits():
    rng = np.random.default_rng(18)
    amps = rng.normal(size=1 << 18) + 1j * rng.normal(size=1 << 18)
    state = DenseState(2, 18, amps / np.linalg.norm(amps))
    for theta in (0.2, -0.35):
        want = _reference_z_deform(state, theta, range(18))
        assert np.array_equal(deform(state, "z", theta).amps, want)


def _reference_x_deform(state, theta, sites):
    """The former X-field deformation: one apply_operator per site."""
    ch, sh = np.cosh(theta), np.sinh(theta)
    work = DenseState(2, state.n, state.amps)
    for j in sites:
        flipped = apply_operator(work, PauliOperator.single(state.n, j, "X"))
        work = DenseState(2, state.n, ch * work.amps + sh * flipped.amps)
    return work.amps / np.linalg.norm(work.amps)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_x_field_matches_reference(data):
    n = data.draw(st.integers(0, 10))
    # None deforms every site; a list may repeat a site
    site_lists = st.lists(st.integers(0, n - 1), max_size=2 * n) if n else st.just([])
    sites = data.draw(st.none() | site_lists)
    theta = data.draw(st.floats(-2.0, 2.0))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    state = DenseState(2, n, amps / np.linalg.norm(amps))
    before = state.amps.copy()
    want = _reference_x_deform(state, theta, range(n) if sites is None else sites)
    got = deform(state, "x", theta, sites).amps
    assert np.abs(got - want).max() <= 1e-12
    assert np.array_equal(state.amps, before)  # the update works on a copy


@pytest.mark.parametrize("family", ["z", "x"])
@pytest.mark.parametrize("theta", [50.0, 400.0, -400.0])
def test_deformation_stays_finite_at_large_angles(family, theta):
    # exp(theta * weight) and cosh(theta)^n overflow here: deform scales
    # them first, so the state is finite and of unit norm, with no
    # RuntimeWarning (which the test configuration turns into an error)
    code = toric2d(2)
    wz1, wz2 = toric2d_winding_z_fixers(code)
    base = state_from_group(code.group.fix_sector([wz1, wz2.scale_i(2)]))
    out = deform(base, family, theta)
    assert np.isfinite(out.amps).all()
    assert out.norm() == pytest.approx(1.0, abs=1e-12)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            deform(base, family, bad)


@st.composite
def weyl_operators(draw):
    d = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(1, 3))
    exps = st.lists(st.integers(0, d - 1), min_size=n, max_size=n)
    return WeylOperator(d, n, tuple(draw(exps)), tuple(draw(exps)), draw(st.integers(0, 2 * d - 1)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(weyl_operators())
def test_row_order_matches_repeated_multiplication(op):
    k, power = 1, op
    while not power.is_identity():
        power = w_multiply(power, op)
        k += 1
    assert _row_order(op, op.d) == k


def _reference_apply(state, op):
    """The former per-site kernel: one roll per X factor, one broadcast
    multiply per Z factor, then the global phase."""
    w = _as_weyl(op)
    d, n = state.d, state.n
    amps = state.amps.reshape((d,) * n if n else (1,))
    for j in range(n):
        a, b = w.x[j], w.z[j]
        if b:
            omega = np.exp(2j * np.pi * b / d)
            phases = omega ** np.arange(d)
            shape = [1] * n
            shape[j] = d
            amps = amps * phases.reshape(shape)
        if a:
            amps = np.roll(amps, a, axis=j)
    flat = amps.reshape(-1) * np.exp(1j * np.pi * w.phase / d)
    return DenseState(d, n, flat)


@st.composite
def kernel_cases(draw):
    """(state, operator, site factors or None) on 0..9 qubits, 0..6 qutrits
    and 0..5 ququarts, so the kernel's two halves come equal, unequal and
    empty; for qubits the operator is the ordered product of the site factors."""
    d = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(0, {2: 9, 3: 6, 4: 5}[d]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
    state = DenseState(d, n, amps / np.linalg.norm(amps))
    if d == 2:
        sites = st.integers(0, n - 1) if n else st.nothing()
        factors = draw(st.lists(st.tuples(sites, st.sampled_from("XYZ")), max_size=2 * n))
        return state, ordered_product(factors, n), factors
    exps = st.lists(st.integers(0, d - 1), min_size=n, max_size=n)
    op = WeylOperator(d, n, tuple(draw(exps)), tuple(draw(exps)), draw(st.integers(0, 2 * d - 1)))
    return state, op, None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kernel_cases())
def test_apply_operator_matches_reference(case):
    state, op, factors = case
    got = apply_operator(state, op)
    assert (got.d, got.n) == (state.d, state.n)
    assert np.allclose(got.amps, _reference_apply(state, op).amps, rtol=0, atol=1e-12)
    if factors is not None:
        # a factor list is their ordered product: the first factor acts first
        cur = state
        for site, letter in factors:
            cur = apply_operator(cur, PauliOperator.single(state.n, site, letter))
        assert abs(dense_expectation(state, factors) - np.vdot(state.amps, cur.amps)) < 1e-12


def test_apply_operator_rejects_other_register():
    state = DenseState(2, 2, np.array([1, 0, 0, 0], dtype=complex))
    with pytest.raises(ValueError, match="operator register mismatch"):
        apply_operator(state, PauliOperator.single(3, 0, "X"))
    with pytest.raises(ValueError, match="operator register mismatch"):
        apply_operator(state, WeylOperator.single(4, 2, 0, 1, 0))


@st.composite
def far_support_groups(draw):
    """A random stabilizer group with a unique state whose support misses the
    basis states 0..63: qubits on 7 or 8 sites, ququarts on 4 or 5.

    The high sites (those above the last 64 amplitudes' digits) carry no X in
    any generator, so their digits are the same on the whole support; the
    group is then conjugated by an X^a that makes them nonzero."""
    d, n = draw(st.sampled_from([(2, 7), (2, 8), (4, 4), (4, 5)]))
    high = n - {2: 6, 4: 3}[d]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    gens, group = [], None
    for _ in range(60 * n):
        if group is not None and group.ground_space_dim() == 1:
            break
        xs = [0] * high + [rng.randrange(d) for _ in range(n - high)]
        cand = WeylOperator(d, n, tuple(xs), tuple(rng.randrange(d) for _ in range(n)), 0)
        if cand.is_scalar():
            continue
        # a phase that gives the candidate a +1 eigenspace, if there is one
        c = w_power(cand, d).phase
        if c % d:
            continue
        cand = cand.scale_w(c // d + 2 * rng.randrange(d))
        try:
            group = StabilizerGroup(gens + [cand])
        except ValueError:
            continue
        gens.append(cand)
    assume(group is not None and group.ground_space_dim() == 1)
    some = np.flatnonzero(np.abs(state_from_group(group).amps) > 1e-9)[0]
    digits = [(int(some) // d ** (n - 1 - j)) % d for j in range(n)]
    target = [rng.randrange(d) for _ in range(high)]
    if not any(target):
        target[0] = 1
    a = [t - c for t, c in zip(target, digits)] + [rng.randrange(d) for _ in range(n - high)]
    # X^a (w^f X^x Z^z) X^-a = w^(f - 2 z.a) X^x Z^z
    shifted = [g.scale_w(-2 * sum(zj * aj for zj, aj in zip(g.z, a))) for g in gens]
    if d == 2:
        shifted = [g.to_pauli() for g in shifted]
    return StabilizerGroup(shifted)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(far_support_groups())
def test_default_seed_lies_in_the_support(group):
    state = state_from_group(group)
    assert np.flatnonzero(np.abs(state.amps) > 1e-9).min() >= 64
    assert state.norm() == pytest.approx(1.0)
    for gen in group.generators:
        assert dense_expectation(state, gen) == pytest.approx(1.0, abs=1e-10)


def _reference_state_from_group(group, seeds):
    """The former full-register projection: from |seed>, each canonical row's
    sum over its powers, one apply_operator per power, normalised after every
    row; the first seed whose projection does not vanish wins."""
    d, n = group.d, group.n
    rows = [_as_weyl(r) for r in group.rows]
    for seed in seeds:
        amps = np.zeros(d**n, dtype=complex)
        amps[seed] = 1.0
        state = DenseState(d, n, amps)
        for row in rows:
            power = apply_operator(state, row)
            acc = power.amps
            for _ in range(_row_order(row, d) - 2):
                power = apply_operator(power, row)
                acc += power.amps
            acc += state.amps
            nrm = np.linalg.norm(acc)
            if nrm < 1e-9:
                break
            state = DenseState(d, n, acc / nrm)
        else:
            return state
    raise ValueError("projector annihilated every seed state tried")


def _conjugated_z_group(rng, n):
    """The Z-basis group on n qubits after n*n random H, S and CNOT gates on
    the generators' x/z bits, with random Hermitian signs: gates keep the
    generators commuting and independent, so any signs fix a unique state."""
    xs, zs = [0] * n, [1 << j for j in range(n)]
    for _ in range(n * n):
        gate, a = rng.randrange(3 if n > 1 else 2), rng.randrange(n)
        bit = 1 << a
        for k in range(n):
            if gate == 0 and bool(xs[k] & bit) != bool(zs[k] & bit):  # H
                xs[k] ^= bit
                zs[k] ^= bit
            elif gate == 1:  # S
                zs[k] ^= xs[k] & bit
        if gate == 2:  # CNOT a -> b
            b = (a + 1 + rng.randrange(n - 1)) % n
            for k in range(n):
                xs[k] ^= ((xs[k] >> a) & 1) << b
                zs[k] ^= ((zs[k] >> b) & 1) << a
    gens = [PauliOperator(n, x, z, (bin(x & z).count("1") + 2 * rng.randrange(2)) % 4)
            for x, z in zip(xs, zs)]
    return StabilizerGroup(gens)


def _sampled_ququart_group(rng, n):
    """Random commuting Weyl generators on n ququarts, each given a phase with
    a +1 eigenspace, until the group fixes a unique state (or None).  Unlike
    a conjugated Z-basis group, it can hold order-2 rows such as X^2 Z^2."""
    gens, group = [], None
    for _ in range(100 * n):
        if group is not None and group.ground_space_dim() == 1:
            return group
        cand = WeylOperator(4, n, tuple(rng.randrange(4) for _ in range(n)),
                            tuple(rng.randrange(4) for _ in range(n)), 0)
        c = w_power(cand, 4).phase
        if cand.is_scalar() or c % 4:
            continue
        cand = cand.scale_w(c // 4 + 2 * rng.randrange(4))
        try:
            group = StabilizerGroup(gens + [cand])
        except ValueError:
            continue
        gens.append(cand)
    return None


@st.composite
def seeded_groups(draw):
    """(group, seeds): a random stabilizer group with a unique state, qubits
    on 1..10 sites or ququarts on 1..4, and seeds whose first 1..3 entries
    miss the state's support, where anything does, and whose last one lies
    in it."""
    d = draw(st.sampled_from([2, 4]))
    n = draw(st.sampled_from(range(1, 11 if d == 2 else 5)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    group = _conjugated_z_group(rng, n) if d == 2 else _sampled_ququart_group(rng, n)
    assume(group is not None)
    want = _reference_state_from_group(group, range(d**n))
    inside = np.abs(want.amps) > 1e-9
    misses = np.flatnonzero(~inside).tolist()
    seeds = rng.sample(misses, min(len(misses), draw(st.integers(1, 3))))
    return group, seeds + [rng.choice(np.flatnonzero(inside).tolist())]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seeded_groups())
def test_state_from_group_matches_full_register_projection(case):
    group, seeds = case
    got = state_from_group(group, seeds)
    want = _reference_state_from_group(group, seeds)
    # the same seed gives the same global phase, so no phase is divided out
    assert np.allclose(got.amps, want.amps, rtol=0, atol=1e-12)


def _query_ops(rng, group, count=12):
    """Operators on the group's register, alternating products of random
    powers of the generators times a random power of w (definite on the
    state) with uniformly random ones (mostly zero); Pauli operators for
    qubits."""
    d, n = group.d, group.n
    gens = [_as_weyl(g) for g in group.generators]
    ops = []
    for i in range(count):
        if i % 2 == 0:
            op = WeylOperator.identity(d, n)
            for g in gens:
                op = w_multiply(op, w_power(g, rng.randrange(d)))
            op = op.scale_w(rng.randrange(2 * d))
        else:
            op = WeylOperator(d, n, [rng.randrange(d) for _ in range(n)],
                              [rng.randrange(d) for _ in range(n)], rng.randrange(2 * d))
        ops.append(op.to_pauli() if d == 2 else op)
    return ops


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seeded_groups(), st.integers(0, 2**32 - 1))
def test_exact_expectation_matches_tableau(case, seed):
    # no tolerance: Expectation records compare kind, d and phase exponent
    group, seeds = case
    state = state_from_group(group, seeds)
    floats = DenseState(group.d, group.n, state.amps)  # the same state without planes
    for op in _query_ops(random.Random(seed), group):
        want = group.expectation(op)
        assert exact_expectation(state, op) == want
        assert abs(dense_expectation(state, op) - want.value) < 1e-12
        assert abs(dense_expectation(floats, op) - want.value) < 1e-10


def test_exact_expectation_matches_tableau_on_18_qubits():
    # the oracle benchmark's largest register: 2^18-bit planes, with
    # definite, zero and empty-overlap queries among the 24
    group = _conjugated_z_group(random.Random(18), 18)
    state = state_from_group(group)
    kinds, empty = set(), 0
    for op in _query_ops(random.Random(30), group, count=24):
        want = group.expectation(op)
        assert exact_expectation(state, op) == want
        assert abs(dense_expectation(state, op) - want.value) < 1e-12
        kinds.add(want.kind)
        empty += _counts(state, op) == [0, 0, 0, 0]
    assert kinds == {"definite", "zero"} and empty


@st.composite
def coordinate_states(draw):
    """(group, state): a random stabilizer group on 1..10 qubits, as Pauli or
    as Weyl generators, and its state projected from a random order of
    every basis state, so q0 is any basis state of the support."""
    n = draw(st.integers(1, 10))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    group = _conjugated_z_group(rng, n)
    if draw(st.booleans()):
        group = StabilizerGroup([_as_weyl(g) for g in group.generators])
    return group, state_from_group(group, rng.sample(range(1 << n), 1 << n))


def _coordinate_planes(state):
    """The planes read off a qubit state's coset coordinates: coordinate u
    is basis index q0 ^ sum_l u_l x_l, site 0 most significant, at phase
    B0[u] + 2 B1[u]."""
    q0, _, _, _, xs, b0, b1 = state._coords
    n = state.n
    flips = [sum(1 << n - 1 - j for j in range(n) if x >> j & 1) for x in xs]
    planes = [0] * 4
    for u in range(1 << len(xs)):
        q = q0
        for l, flip in enumerate(flips):
            if u >> l & 1:
                q ^= flip
        planes[(b0 >> u & 1) + 2 * (b1 >> u & 1)] |= 1 << q
    return tuple(planes)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_coordinate_counts_match_plane_counts(data):
    group, state = data.draw(coordinate_states())
    n = group.n
    x_rows = [_as_weyl(r) for (col, _), r in zip(group.pivots, group.rows) if col < n]
    planes = _orbit_state(2, n, state._coords[0], x_rows).planes
    assert _coordinate_planes(state) == planes and state.planes == planes
    assert state.support == sum(plane.bit_count() for plane in planes)
    bits = st.integers(0, (1 << n) - 1)
    for _ in range(6):
        kind = data.draw(st.sampled_from(["identity", "x", "z", "y-heavy", "any", "span"]))
        x = data.draw(bits) if kind in ("x", "y-heavy", "any") else 0
        z = data.draw(bits) if kind in ("z", "any", "span") else 0
        if kind == "y-heavy":
            z = x | data.draw(bits)  # Y on every X site
        if kind == "span":  # x in the span of the X rows, z arbitrary
            for row in x_rows:
                if data.draw(st.booleans()):
                    x ^= row.to_pauli().x
        for phase in range(4):
            op = PauliOperator(n, x, z, phase)
            assert _counts(state, op) == _plane_counts(2, n, planes, _as_weyl(op))


def test_qubit_state_is_chosen_by_d_not_by_operator_type():
    # one group through the packed tableau and through the Weyl tableau: the
    # same coordinate state, the same planes and the same exact expectations
    rng = random.Random(41)
    for n in (1, 4, 7, 10):
        pauli = _conjugated_z_group(rng, n)
        weyl = StabilizerGroup([_as_weyl(g) for g in pauli.generators])
        assert all(isinstance(r, WeylOperator) for r in weyl.rows)
        a, b = state_from_group(pauli), state_from_group(weyl)
        assert a._coords is not None and b._coords is not None
        assert a == b and a.planes == b.planes and a.support == b.support
        for op in _query_ops(rng, pauli, count=16):
            want = pauli.expectation(op)
            for query in (op, _as_weyl(op)):
                assert exact_expectation(a, query) == exact_expectation(b, query) == want


def test_coordinate_state_needs_fully_reduced_x_rows():
    # X0 X1 and X1 are independent, but X0 X1 has a 1 at X1's pivot site 1
    x01 = WeylOperator(2, 2, (1, 1), (0, 0), 0)
    x1 = WeylOperator(2, 2, (0, 1), (0, 0), 0)
    with pytest.raises(ValueError, match="not fully reduced"):
        _coordinate_state(2, 0, [0, 0], [x01, x1], [0, 1])
    state = _coordinate_state(2, 0, [0, 0], [WeylOperator(2, 2, (1, 0), (0, 0), 0), x1], [0, 1])
    assert state.support == 4 and state.planes == (0b1111, 0, 0, 0)


def test_exact_expectation_on_qutrits():
    # Phi_6 = x^2 - x + 1 is not x^d + 1: the reduction is the general one
    rng = random.Random(37)
    kinds = set()
    for _ in range(60):
        g = random_commuting_group(rng, rng.randrange(1, 5), d=3)
        if g is None or g.ground_space_dim() != 1:
            continue
        state = state_from_group(g)
        for op in _query_ops(rng, g):
            want = g.expectation(op)
            assert exact_expectation(state, op) == want
            assert abs(dense_expectation(state, op) - want.value) < 1e-12
            kinds.add(want.kind)
    assert kinds == {"definite", "zero"}


def test_cyclotomic_polynomials():
    assert _cyclotomic(4) == [1, 0, 1]
    assert _cyclotomic(6) == [1, -1, 1]
    assert _cyclotomic(8) == [1, 0, 0, 0, 1]
    assert _cyclotomic(12) == [1, 0, -1, 0, 1]
    assert _cyclotomic(18) == [1, 0, 0, -1, 0, 0, 1]


def test_states_compare_without_raising():
    # two states with planes compared their amplitude arrays elementwise, which
    # raised "truth value of an array ... is ambiguous"; now they compare planes
    group = ghz_ops(3).resource
    a, b = state_from_group(group), state_from_group(group)
    assert a == b and not a != b
    assert a._amps is None and b._amps is None  # no amplitudes were built
    assert a != state_from_group(ghz_ops(4).resource)
    assert a != state_from_group(StabilizerGroup([P(f"i^0 Z{j}", 3) for j in range(3)]))
    # any other pair compares amplitudes
    assert a == DenseState(2, 3, b.amps.copy()) and DenseState(2, 3, b.amps.copy()) == a
    assert a != deform(a, "z", 0.3) and deform(a, "z", 0.3) == deform(b, "z", 0.3)
    assert a != DenseState(4, 3, b.amps.copy()) and a != DenseState(2, 3, b.amps[:4].copy())


def test_zero_is_decided_after_the_cyclotomic_reduction():
    # every basis state overlaps, at phases that cancel: <+|Z|+> on a qubit,
    # <Z> and <Z^2> on the ququart state fixed by X
    plus = state_from_group(StabilizerGroup([P("i^0 X0", 1)]))
    z = P("i^0 Z0", 1)
    assert _counts(plus, z) == [1, 0, 1, 0]
    assert exact_expectation(plus, z) == Expectation("zero", 2)
    assert dense_expectation(plus, z) == 0
    fourier = state_from_group(StabilizerGroup([WeylOperator(4, 1, (1,), (0,), 0)]))
    for b, counts in ((1, [1, 0, 1, 0, 1, 0, 1, 0]), (2, [2, 0, 0, 0, 2, 0, 0, 0])):
        op = WeylOperator(4, 1, (0,), (b,), 0)
        assert _counts(fourier, op) == counts
        assert exact_expectation(fourier, op) == Expectation("zero", 4)
        assert dense_expectation(fourier, op) == 0


def test_exact_expectation_needs_phase_planes():
    plus = state_from_group(StabilizerGroup([P("i^0 X0", 1)]))
    with pytest.raises(ValueError, match="phase planes"):
        exact_expectation(DenseState(2, 1, plus.amps), P("i^0 Z0", 1))
    deformed = deform(plus, "z", 0.1)
    assert deformed.planes is None
    with pytest.raises(ValueError, match="phase planes"):
        exact_expectation(deformed, P("i^0 Z0", 1))


def test_orbit_refuses_a_basis_state_with_two_phases():
    # X and -X cannot both fix a state: |1> is reached as +|1> and as -|1>
    x = WeylOperator(2, 1, (1,), (0,), 0)
    assert _orbit_state(2, 1, 0, [x]).planes == (0b11, 0, 0, 0)
    with pytest.raises(ValueError, match="two phases"):
        _orbit_state(2, 1, 0, [x, x.scale_w(2)])


@pytest.mark.parametrize("seeds, bad", [([-1], -1), ([8], 8), ([3, 8], 8), ([1 << 40], 1 << 40),
                                        ([0.0], r"0\.0"), (["0"], "'0'"), ([True], "True"),
                                        ([False], "False")])
def test_seed_outside_the_register_is_refused(seeds, bad):
    # a bool is no basis state index, though True == 1 and False == 0
    gens = [PauliOperator.from_support(3, "X", range(3))]
    gens += [PauliOperator.from_support(3, "Z", [i, i + 1]) for i in range(2)]
    with pytest.raises(ValueError, match=rf"seed {bad} .*range\(8\)"):
        state_from_group(StabilizerGroup(gens), seeds)


@pytest.mark.parametrize("d, n", [(2, 15), (2, 16), (4, 8), (3, 10), (2, 5), (4, 3)])
def test_blocked_kernel_matches_full_vector(d, n):
    """On random states, grids of several row blocks (3^10 ends in a partial
    block) and of one: apply_operator equals the per-site reference, and
    the blocked expectation equals the vdot of the whole applied vector."""
    rng = np.random.default_rng(100 * d + n)
    amps = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
    state = DenseState(d, n, amps / np.linalg.norm(amps))
    for _ in range(4):
        xs, zs = rng.integers(0, d, size=(2, n)).tolist()
        op = WeylOperator(d, n, tuple(xs), tuple(zs), int(rng.integers(2 * d)))
        if d == 2:
            op = op.to_pauli()
        applied = apply_operator(state, op).amps
        assert np.allclose(applied, _reference_apply(state, op).amps, rtol=0, atol=1e-12)
        assert abs(dense_expectation(state, op) - np.vdot(state.amps, applied)) < 1e-12


def test_exact_oracle_loads_no_numpy():
    # states from state_from_group and their expectations are Python ints
    # only: an 18-qubit cluster state (support: the whole register) and a
    # 6-ququart one, 25 random queries each
    script = """
        import random, sys
        from stabgames.dense import dense_expectation, exact_expectation, state_from_group
        from stabgames.tableau import StabilizerGroup
        from stabgames.weyl import WeylOperator

        rng = random.Random(5)
        for d, n in ((2, 18), (4, 6)):
            gens = []
            for j in range(n):
                z = [0] * n
                z[(j - 1) % n] = z[(j + 1) % n] = 1
                x = [int(k == j) for k in range(n)]
                gens.append(WeylOperator(d, n, x, z, 0))
            group = StabilizerGroup([g.to_pauli() for g in gens] if d == 2 else gens)
            state = state_from_group(group)
            for _ in range(25):
                op = WeylOperator(d, n, [rng.randrange(d) for _ in range(n)],
                                  [rng.randrange(d) for _ in range(n)], rng.randrange(2 * d))
                op = op.to_pauli() if d == 2 else op
                want = group.expectation(op)
                assert exact_expectation(state, op) == want
                assert abs(dense_expectation(state, op) - want.value) < 1e-12
        assert "numpy" not in sys.modules
    """
    src = str(Path(stabgames.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
