"""Shared dense matrix oracles and random stabilizer groups for the test suite."""

import numpy as np
from hypothesis import strategies as st

from stabgames.pauli import PauliOperator, commutes
from stabgames.tableau import StabilizerGroup
from stabgames.weyl import WeylOperator

_I2 = np.eye(2)
_MX = np.array([[0, 1], [1, 0]], dtype=complex)
_MZ = np.array([[1, 0], [0, -1]], dtype=complex)


def pauli_matrix(p: PauliOperator) -> np.ndarray:
    m = np.array([[1.0 + 0j]])
    for j in range(p.n):
        s = _I2
        if (p.x >> j) & 1:
            s = _MX
        if (p.z >> j) & 1:
            s = s @ _MZ
        m = np.kron(m, s)
    return (1j ** p.phase) * m


def weyl_matrix(p: WeylOperator) -> np.ndarray:
    d = p.d
    x1 = np.zeros((d, d), dtype=complex)
    for q in range(d):
        x1[(q + 1) % d, q] = 1.0
    z1 = np.diag([np.exp(2j * np.pi * q / d) for q in range(d)])
    m = np.array([[1.0 + 0j]])
    for j in range(p.n):
        s = np.linalg.matrix_power(x1, p.x[j]) @ np.linalg.matrix_power(z1, p.z[j])
        m = np.kron(m, s)
    return np.exp(1j * np.pi * p.phase / d) * m


@st.composite
def stabilizer_generators(draw, n):
    """Generators of a random stabilizer group on n qubits, of any rank from
    0 to n: Hermitian Paulis with random signs, each kept when it commutes
    with those kept so far and enlarges the group."""
    rank = draw(st.integers(0, n))
    bits = st.integers(0, (1 << n) - 1)
    gens = []
    for x, z, minus in draw(st.lists(st.tuples(bits, bits, st.booleans()), max_size=4 * n)):
        cand = PauliOperator(n, x, z, (x & z).bit_count() + 2 * minus)
        if len(gens) == rank or not all(commutes(cand, g) for g in gens):
            continue
        try:
            if StabilizerGroup(gens + [cand], d=2, n=n).rank > len(gens):
                gens.append(cand)
        except ValueError:  # -I: already in the group with the other sign
            continue
    return gens
