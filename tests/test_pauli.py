"""Tests for the exact Pauli algebra, checked against a dense matrix oracle."""

import random

import numpy as np
import pytest

from stabgames.pauli import (
    PauliOperator,
    commutes,
    make_y_composite,
    multiply,
    ordered_product,
    twist_product,
)

I2 = np.eye(2)
MX = np.array([[0, 1], [1, 0]], dtype=complex)
MZ = np.array([[1, 0], [0, -1]], dtype=complex)
MY = 1j * MX @ MZ  # the canonical-form Y


def to_matrix(p: PauliOperator) -> np.ndarray:
    """Dense oracle: i^phase * kron of per-site X^x Z^z (site 0 = leftmost factor)."""
    m = np.array([[1.0 + 0j]])
    for j in range(p.n):
        s = I2
        if (p.x >> j) & 1:
            s = MX
        if (p.z >> j) & 1:
            s = s @ MZ
        m = np.kron(m, s)
    return (1j ** p.phase) * m


def random_pauli(rng, n):
    return PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n), rng.randrange(4))


class TestMultiply:
    def test_x_times_z_is_canonical_xz(self):
        x = PauliOperator.single(1, 0, "X")
        z = PauliOperator.single(1, 0, "Z")
        assert multiply(x, z) == PauliOperator(1, 1, 1, 0)

    def test_z_times_x_picks_up_minus(self):
        x = PauliOperator.single(1, 0, "X")
        z = PauliOperator.single(1, 0, "Z")
        assert multiply(z, x) == PauliOperator(1, 1, 1, 2)

    def test_y_squares_to_identity(self):
        y = PauliOperator(1, 1, 1, 1)  # i XZ
        assert multiply(y, y) == PauliOperator.identity(1)

    def test_register_mismatch_raises(self):
        with pytest.raises(ValueError):
            multiply(PauliOperator.identity(2), PauliOperator.identity(3))

    def test_against_matrix_oracle(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randrange(1, 5)
            p, q = random_pauli(rng, n), random_pauli(rng, n)
            got = to_matrix(multiply(p, q))
            want = to_matrix(p) @ to_matrix(q)
            assert np.allclose(got, want, atol=1e-12)

    def test_associativity_with_phase(self):
        rng = random.Random(7)
        for _ in range(500):
            n = rng.randrange(1, 7)
            p, q, r = (random_pauli(rng, n) for _ in range(3))
            assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))


class TestCommutes:
    def test_same_site_anticommute(self):
        assert not commutes(PauliOperator.single(2, 0, "X"), PauliOperator.single(2, 0, "Z"))

    def test_disjoint_commute(self):
        assert commutes(PauliOperator.single(2, 0, "X"), PauliOperator.single(2, 1, "Z"))

    def test_two_overlaps_commute(self):
        # star and plaquette sharing two sites
        a = PauliOperator.from_support(4, "Z", [0, 1])
        b = PauliOperator.from_support(4, "X", [0, 1, 2, 3])
        assert commutes(a, b)

    def test_commutes_matches_product_phase_offset(self):
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randrange(1, 6)
            p, q = random_pauli(rng, n), random_pauli(rng, n)
            pq, qp = multiply(p, q), multiply(q, p)
            assert (pq.x, pq.z) == (qp.x, qp.z)
            offset = (pq.phase - qp.phase) % 4
            assert offset in (0, 2)
            assert commutes(p, q) == (offset == 0)


class TestOrderedProduct:
    def test_zx_order_on_one_site(self):
        # apply X first, then Z: matrix product Z*X = -XZ
        assert ordered_product([(0, "X"), (0, "Z")], 1) == PauliOperator(1, 1, 1, 2)

    def test_disjoint_sites_order_independent(self):
        seq = [(0, "X"), (2, "Z"), (1, "Y")]
        rng = random.Random(0)
        want = ordered_product(seq, 3)
        for _ in range(5):
            shuffled = seq[:]
            rng.shuffle(shuffled)
            assert ordered_product(shuffled, 3) == want

    def test_against_matrix_oracle(self):
        rng = random.Random(21)
        for _ in range(200):
            n = rng.randrange(1, 5)
            seq = [(rng.randrange(n), rng.choice("XYZ")) for _ in range(rng.randrange(1, 9))]
            m = np.eye(2**n, dtype=complex)
            for site, letter in seq:
                m = to_matrix(PauliOperator.single(n, site, letter)) @ m
            assert np.allclose(to_matrix(ordered_product(seq, n)), m, atol=1e-12)

    def test_invalid_site_raises(self):
        with pytest.raises(ValueError):
            ordered_product([(5, "X")], 3)


class TestTwistProduct:
    def test_star_plaquette_twist_sign(self):
        # Z-star on sites {0,1} of a 4-site plaquette {0,1,2,3}: plain product
        # commutes, twisting one shared site through flips the sign.
        star = PauliOperator.from_support(4, "Z", [0, 1])
        plaq = PauliOperator.from_support(4, "X", [0, 1, 2, 3])
        plain = multiply(star, plaq)
        twisted = twist_product(star, plaq, [0])
        assert twisted == plain.scale_i(2)

    def test_matches_matrix_oracle(self):
        star = PauliOperator.from_support(4, "Z", [0, 1])
        plaq = PauliOperator.from_support(4, "X", [0, 1, 2, 3])
        head = to_matrix(PauliOperator.from_support(4, "Z", [0]))
        tail = to_matrix(PauliOperator.from_support(4, "Z", [1]))
        want = tail @ to_matrix(plaq) @ head
        assert np.allclose(to_matrix(twist_product(star, plaq, [0])), want, atol=1e-12)


class TestYComposite:
    def test_single_site(self):
        x = PauliOperator.single(1, 0, "X")
        z = PauliOperator.single(1, 0, "Z")
        assert make_y_composite(x, z) == PauliOperator(1, 1, 1, 1)

    def test_absorbs_phase_on_overlap_site(self):
        x = PauliOperator.from_support(3, "X", [0, 1])
        z = PauliOperator.from_support(3, "Z", [1, 2])
        y = make_y_composite(x, z)
        assert y == PauliOperator.from_text("i^0 X0 Y1 Z2", 3)
        assert y.is_hermitian()

    def test_squares_to_identity(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randrange(2, 8)
            shared = rng.randrange(n)
            xs = {shared} | {s for s in range(n) if rng.random() < 0.4}
            zs = {shared} | {s for s in range(n) if s not in xs and rng.random() < 0.4}
            x = PauliOperator.from_support(n, "X", sorted(xs))
            z = PauliOperator.from_support(n, "Z", sorted(zs))
            y = make_y_composite(x, z)
            assert multiply(y, y) == PauliOperator.identity(n)

    def test_bad_overlap_raises(self):
        x = PauliOperator.from_support(2, "X", [0, 1])
        z = PauliOperator.from_support(2, "Z", [0, 1])
        with pytest.raises(ValueError):
            make_y_composite(x, z)


class TestText:
    def test_round_trip(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randrange(1, 9)
            p = random_pauli(rng, n)
            assert PauliOperator.from_text(p.to_text(), n) == p

    def test_example(self):
        p = PauliOperator.from_text("i^2 X0 Y3 Z7", 8)
        assert p.to_text() == "i^2 X0 Y3 Z7"

    @pytest.mark.parametrize("text, match", [
        ("X0 X0", "site 0 given twice"),  # would read as X0, not the identity
        ("Z0 X0", "site 0 given twice"),  # would read as X0 Z0, though ZX = -XZ
        ("i^1 X1 Y1", "site 1 given twice"),
        ("Q0", "must be X, Y or Z"),  # a KeyError before
        ("X0 I1", "must be X, Y or Z"),
        ("X2", "outside register"),
    ])
    def test_refuses_what_it_would_misread(self, text, match):
        with pytest.raises(ValueError, match=match):
            PauliOperator.from_text(text, 2)

    @pytest.mark.parametrize("build", [
        lambda: PauliOperator.single(2, 0, "Q"),
        lambda: PauliOperator.from_support(2, "Q", [0, 1]),
    ], ids=["single", "from_support"])
    def test_constructors_refuse_an_unknown_letter(self, build):
        # both raised KeyError: 'Q', where from_text raises ValueError
        with pytest.raises(ValueError, match="'Q': the letter must be X, Y or Z"):
            build()


@pytest.mark.parametrize("x, z", [(8, 0), (0, 8), (-1, 0), (0, -4), (1 << 70, 0), (0, 7 | 1 << 64)])
def test_bits_outside_the_register_are_refused(x, z):
    # a negative int has every bit above the register set
    with pytest.raises(ValueError, match="support outside register"):
        PauliOperator(3, x, z, 0)
    PauliOperator(3, x & 7, z & 7, 0)  # the bits inside the register are accepted


def test_hermiticity_criterion_matches_oracle():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randrange(1, 5)
        p = random_pauli(rng, n)
        m = to_matrix(p)
        assert p.is_hermitian() == np.allclose(m, m.conj().T, atol=1e-12)
        assert np.allclose(to_matrix(p.dagger()), m.conj().T, atol=1e-12)
