"""Weyl algebra tests against a dense d^n x d^n matrix oracle."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabgames.pauli import PauliOperator, multiply
from stabgames.weyl import (
    WeylOperator,
    commutation_phase,
    dagger,
    ordered_w_product,
    w_multiply,
    w_power,
)


def shift_clock(d):
    """Single-qudit shift X (X|q> = |q+1>) and clock Z (Z|q> = omega^q |q>)."""
    x = np.zeros((d, d), dtype=complex)
    for q in range(d):
        x[(q + 1) % d, q] = 1.0
    omega = np.exp(2j * np.pi / d)
    z = np.diag([omega**q for q in range(d)])
    return x, z


def to_matrix(p: WeylOperator) -> np.ndarray:
    x1, z1 = shift_clock(p.d)
    m = np.array([[1.0 + 0j]])
    for j in range(p.n):
        s = np.linalg.matrix_power(x1, p.x[j]) @ np.linalg.matrix_power(z1, p.z[j])
        m = np.kron(m, s)
    return np.exp(1j * np.pi * p.phase / p.d) * m


def random_weyl(rng, d, n):
    return WeylOperator(
        d,
        n,
        tuple(rng.randrange(d) for _ in range(n)),
        tuple(rng.randrange(d) for _ in range(n)),
        rng.randrange(2 * d),
    )


class TestMultiply:
    def test_zx_relation_at_d4(self):
        # Z X = i X Z for ququarts
        x = WeylOperator.single(4, 1, 0, 1, 0)
        z = WeylOperator.single(4, 1, 0, 0, 1)
        zx = w_multiply(z, x)
        ixz = w_multiply(x, z).scale_w(2)  # w^2 = i at d=4
        assert zx == ixz

    def test_x_xdag_is_identity(self):
        x = WeylOperator.single(4, 1, 0, 1, 0)
        assert w_multiply(x, dagger(x)).is_identity()

    def test_d2_reproduces_pauli_multiply(self):
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randrange(1, 5)
            p = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n), rng.randrange(4))
            q = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n), rng.randrange(4))
            wp, wq = WeylOperator.from_pauli(p), WeylOperator.from_pauli(q)
            assert w_multiply(wp, wq).to_pauli() == multiply(p, q)

    def test_against_matrix_oracle(self):
        rng = random.Random(41)
        for d, n, reps in ((4, 1, 60), (4, 2, 60), (4, 3, 20), (3, 2, 40)):
            for _ in range(reps):
                p, q = random_weyl(rng, d, n), random_weyl(rng, d, n)
                assert np.allclose(
                    to_matrix(w_multiply(p, q)), to_matrix(p) @ to_matrix(q), atol=1e-10
                )

    def test_mismatch_raises(self):
        with pytest.raises(ValueError):
            w_multiply(WeylOperator.identity(4, 2), WeylOperator.identity(2, 2))


class TestCommutationPhase:
    def test_z_vs_x_same_site(self):
        z = WeylOperator.single(4, 2, 1, 0, 1)
        x = WeylOperator.single(4, 2, 1, 1, 0)
        assert commutation_phase(z, x) == 1

    def test_disjoint_sites(self):
        z = WeylOperator.single(4, 2, 0, 0, 1)
        x = WeylOperator.single(4, 2, 1, 1, 0)
        assert commutation_phase(z, x) == 0

    def test_self_is_zero(self):
        rng = random.Random(2)
        for _ in range(50):
            p = random_weyl(rng, 4, 3)
            assert commutation_phase(p, p) == 0

    def test_definition_holds(self):
        rng = random.Random(9)
        for _ in range(300):
            d = rng.choice((2, 3, 4))
            n = rng.randrange(1, 4)
            p, q = random_weyl(rng, d, n), random_weyl(rng, d, n)
            k = commutation_phase(p, q)
            assert w_multiply(p, q) == w_multiply(q, p).scale_w(2 * k)


class TestDaggerPower:
    def test_dagger_x_is_cube(self):
        x = WeylOperator.single(4, 1, 0, 1, 0)
        assert dagger(x) == w_power(x, 3)
        assert w_multiply(x, w_power(x, 3)).is_identity()

    def test_z_fourth_power(self):
        z = WeylOperator.single(4, 1, 0, 0, 1)
        assert w_power(z, 4).is_identity()

    def test_unitarity_by_oracle(self):
        rng = random.Random(77)
        for _ in range(80):
            p = random_weyl(rng, 4, 2)
            m, md = to_matrix(p), to_matrix(dagger(p))
            assert np.allclose(m @ md, np.eye(16), atol=1e-10)

    def test_ixz_dagger_times_self(self):
        y = w_multiply(
            WeylOperator.single(4, 1, 0, 1, 0), WeylOperator.single(4, 1, 0, 0, 1)
        ).scale_w(2)
        assert w_multiply(dagger(y), y).is_identity()

    def test_power_matches_oracle(self):
        rng = random.Random(123)
        for _ in range(60):
            p = random_weyl(rng, 4, 2)
            m = rng.randrange(-3, 8)
            want = np.linalg.matrix_power(to_matrix(p), m) if m >= 0 else np.linalg.matrix_power(
                np.linalg.inv(to_matrix(p)), -m
            )
            assert np.allclose(to_matrix(w_power(p, m)), want, atol=1e-9)


class TestOrderedProduct:
    def test_matches_matrix_oracle(self):
        rng = random.Random(55)
        for _ in range(100):
            d, n = 4, 2
            seq = [
                (rng.randrange(n), rng.randrange(d), rng.randrange(d))
                for _ in range(rng.randrange(1, 7))
            ]
            m = np.eye(d**n, dtype=complex)
            for site, a, b in seq:
                m = to_matrix(WeylOperator.single(d, n, site, a, b)) @ m
            assert np.allclose(to_matrix(ordered_w_product(seq, d, n)), m, atol=1e-10)


def _reference_ordered_w_product(seq, d, n):
    """The former step-by-step fold: one full multiply per factor."""
    acc = WeylOperator.identity(d, n)
    for site, a, b in seq:
        acc = w_multiply(WeylOperator.single(d, n, site, a, b), acc)
    return acc


@st.composite
def factor_sequences(draw):
    d = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(1, 5))
    # few sites and long sequences, so most draws repeat a site
    factor = st.tuples(st.integers(0, n - 1), st.integers(-d, 2 * d), st.integers(-d, 2 * d))
    return d, n, draw(st.lists(factor, max_size=12))


class TestOrderedProductOnePass:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(factor_sequences())
    def test_matches_step_by_step_fold(self, case):
        d, n, seq = case
        assert ordered_w_product(seq, d, n) == _reference_ordered_w_product(seq, d, n)

    @pytest.mark.parametrize("site", [-1, 3, 7])
    def test_site_outside_register_raises(self, site):
        with pytest.raises(ValueError, match="outside register"):
            ordered_w_product([(0, 1, 0), (site, 1, 1)], 4, 3)


class TestMagicSquareUnitaries:
    """U1 = Z^dag, U2 = X^2, U3 = XZX on one ququart satisfy the target algebra."""

    def setup_method(self):
        x = WeylOperator.single(4, 1, 0, 1, 0)
        z = WeylOperator.single(4, 1, 0, 0, 1)
        self.us = {
            1: to_matrix(dagger(z)),
            2: to_matrix(w_power(x, 2)),
            3: to_matrix(w_multiply(x, w_multiply(z, x))),
        }

    def test_commutators(self):
        eps = {(1, 2): 3, (2, 3): 1, (3, 1): 2, (2, 1): -3, (3, 2): -1, (1, 3): -2}
        for (i, j), k in eps.items():
            sign = 1 if k > 0 else -1
            uk = self.us[abs(k)]
            lhs = self.us[i] @ self.us[j] - self.us[j] @ self.us[i]
            assert np.allclose(lhs, 2j * sign * uk.conj().T, atol=1e-10)

    def test_anticommutators(self):
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                lhs = self.us[i] @ self.us[j] + self.us[j] @ self.us[i]
                want = 2 * self.us[i] @ self.us[i] if i == j else np.zeros((4, 4))
                assert np.allclose(lhs, want, atol=1e-10)

    def test_row_column_scalars(self):
        u1, u2, u3 = self.us[1], self.us[2], self.us[3]
        assert np.allclose(u1 @ u2 @ u3, 1j * np.eye(4), atol=1e-10)
        assert np.allclose(u2 @ u1 @ u3, -1j * np.eye(4), atol=1e-10)
