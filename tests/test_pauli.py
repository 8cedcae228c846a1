"""Tests for the Pauli/superoperator core.

The matrix exponential and transfer-matrix routines are checked against
slow, independently written oracles (Taylor series with scaling and
squaring; explicit trace formula loops) rather than against the
implementations themselves.
"""

import itertools

import numpy as np
import pytest

from rbsim import pauli


def _matexp_taylor(m, tol=1e-16):
    """exp(m) by scaling-and-squaring plus Taylor summation."""
    m = np.asarray(m, dtype=complex)
    norm = np.linalg.norm(m)
    s = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    ms = m / (2 ** s)
    total = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, 60):
        term = term @ ms / k
        total = total + term
        if np.linalg.norm(term) < tol:
            break
    for _ in range(s):
        total = total @ total
    return total


def _ptm_by_trace(u):
    """Transfer matrix via the trace formula, written with plain loops."""
    d = u.shape[0]
    n = 1 if d == 2 else 2
    singles = [pauli.I2, pauli.SIGMA_X, pauli.SIGMA_Y, pauli.SIGMA_Z]
    if n == 1:
        paulis = singles
    else:
        paulis = [np.kron(a, b) for a in singles for b in singles]
    r = np.zeros((d * d, d * d))
    for i in range(d * d):
        for j in range(d * d):
            val = np.trace(paulis[i] @ u @ paulis[j] @ u.conj().T) / d
            assert abs(val.imag) < 1e-12
            r[i, j] = val.real
    return r


def _random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def test_pauli_labels_order():
    labels = pauli.pauli_labels(2)
    assert len(labels) == 16
    assert labels[0] == "II"
    assert labels[1] == "IX"
    assert labels[4] == "XI"
    assert labels[15] == "ZZ"
    # index = 4a + b
    for a, b in itertools.product(range(4), repeat=2):
        name = pauli.PAULI_1Q_NAMES[a] + pauli.PAULI_1Q_NAMES[b]
        assert labels[4 * a + b] == name


def test_pauli_matrices_consistent_with_labels():
    mats = pauli.pauli_matrices(2)
    singles = {"I": pauli.I2, "X": pauli.SIGMA_X, "Y": pauli.SIGMA_Y,
               "Z": pauli.SIGMA_Z}
    for idx, label in enumerate(pauli.pauli_labels(2)):
        expect = np.kron(singles[label[0]], singles[label[1]])
        np.testing.assert_array_equal(mats[idx], expect)


def test_matexp_against_taylor_oracle():
    rng = np.random.default_rng(7)
    for d in (2, 4):
        for _ in range(5):
            h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = h + h.conj().T
            t = rng.uniform(-2.0, 2.0)
            got = pauli.matexp_hermitian_generator(h, t)
            expect = _matexp_taylor(-1j * t * h)
            np.testing.assert_allclose(got, expect, atol=1e-12)


def test_matexp_x90_closed_form():
    got = pauli.matexp_hermitian_generator(pauli.SIGMA_X, np.pi / 4)
    expect = np.array([[1, -1j], [-1j, 1]]) / np.sqrt(2)
    np.testing.assert_allclose(got, expect, atol=1e-14)


def test_matexp_result_is_unitary_for_long_times():
    h = pauli.SIGMA_Z + 0.3 * pauli.SIGMA_X
    u = pauli.matexp_hermitian_generator(h, 1e6)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)


def test_matexp_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        pauli.matexp_hermitian_generator(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_unitary_to_ptm_against_trace_oracle():
    rng = np.random.default_rng(11)
    for d in (2, 4):
        for _ in range(4):
            u = _random_unitary(rng, d)
            np.testing.assert_allclose(
                pauli.unitary_to_ptm(u), _ptm_by_trace(u), atol=1e-12
            )


def test_unitary_to_ptm_cnot_is_signed_permutation():
    r = pauli.unitary_to_ptm(CNOT)
    np.testing.assert_allclose(r, _ptm_by_trace(CNOT), atol=1e-12)
    np.testing.assert_allclose(np.abs(r).sum(axis=0), np.ones(16), atol=1e-12)
    np.testing.assert_allclose(np.abs(r).sum(axis=1), np.ones(16), atol=1e-12)
    assert np.all(np.isin(np.round(r, 12), [-1.0, 0.0, 1.0]))
    labels = pauli.pauli_labels(2)
    # spot-check the textbook conjugations XI -> XX, IZ -> ZZ, IX -> IX
    assert r[labels.index("XX"), labels.index("XI")] == 1.0
    assert r[labels.index("ZZ"), labels.index("IZ")] == 1.0
    assert r[labels.index("IX"), labels.index("IX")] == 1.0


def test_unitary_to_ptm_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        pauli.unitary_to_ptm(np.diag([1.0, 2.0]))


def test_ptm_factorizes_over_kron():
    rng = np.random.default_rng(3)
    u1 = _random_unitary(rng, 2)
    u2 = _random_unitary(rng, 2)
    got = pauli.unitary_to_ptm(np.kron(u1, u2))
    expect = np.kron(pauli.unitary_to_ptm(u1), pauli.unitary_to_ptm(u2))
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_kraus_to_ptm_matches_unitary_path():
    rng = np.random.default_rng(5)
    u = _random_unitary(rng, 4)
    np.testing.assert_allclose(
        pauli.kraus_to_ptm([u]), pauli.unitary_to_ptm(u), atol=1e-12
    )


def test_kraus_to_ptm_amplitude_damping_closed_form():
    gamma = 0.23
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]])
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
    r = pauli.kraus_to_ptm([k0, k1])
    expect = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, np.sqrt(1 - gamma), 0.0, 0.0],
            [0.0, 0.0, np.sqrt(1 - gamma), 0.0],
            [gamma, 0.0, 0.0, 1.0 - gamma],
        ]
    )
    np.testing.assert_allclose(r, expect, atol=1e-12)


def test_ptm_compose_order():
    rx = pauli.unitary_to_ptm(
        pauli.matexp_hermitian_generator(pauli.SIGMA_X, np.pi / 4)
    )
    rz = pauli.unitary_to_ptm(
        pauli.matexp_hermitian_generator(pauli.SIGMA_Z, np.pi / 4)
    )
    u = pauli.matexp_hermitian_generator(pauli.SIGMA_Z, np.pi / 4) @ \
        pauli.matexp_hermitian_generator(pauli.SIGMA_X, np.pi / 4)
    # applying rx, then rz, is the transfer-matrix product rz @ rx
    np.testing.assert_allclose(rz @ rx, pauli.unitary_to_ptm(u), atol=1e-12)


def test_choi_of_identity_is_rank_one():
    chi = pauli.choi_from_ptm(np.eye(16))
    evals = np.linalg.eigvalsh(chi)
    np.testing.assert_allclose(evals[:-1], np.zeros(15), atol=1e-12)
    np.testing.assert_allclose(evals[-1], 1.0, atol=1e-12)
    assert pauli.choi_tp_residual(chi) < 1e-12


def test_choi_roundtrip_random_unitary():
    rng = np.random.default_rng(17)
    r = pauli.unitary_to_ptm(_random_unitary(rng, 4))
    np.testing.assert_allclose(
        pauli.ptm_from_choi(pauli.choi_from_ptm(r)), r, atol=1e-12
    )


def test_choi_of_cp_channel_is_psd_and_tp():
    gamma = 0.4
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]])
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
    r1 = pauli.kraus_to_ptm([k0, k1])
    r = np.kron(r1, np.eye(4))
    chi = pauli.choi_from_ptm(r)
    assert np.linalg.eigvalsh(chi).min() > -1e-12
    assert pauli.choi_tp_residual(chi) < 1e-12
    np.testing.assert_allclose(np.trace(chi).real, 1.0, atol=1e-12)


def test_choi_is_hermitian():
    rng = np.random.default_rng(23)
    r = pauli.unitary_to_ptm(_random_unitary(rng, 4))
    chi = pauli.choi_from_ptm(r)
    np.testing.assert_allclose(chi, chi.conj().T, atol=1e-14)


def test_avg_gate_fidelity_endpoints():
    ident = np.eye(16)
    assert pauli.avg_gate_fidelity(ident, ident) == pytest.approx(1.0)
    depol = np.diag([1.0] + [0.0] * 15)
    assert pauli.avg_gate_fidelity(depol, ident) == pytest.approx(0.25)
    alpha = 0.9
    partial = np.diag([1.0] + [alpha] * 15)
    assert pauli.avg_gate_fidelity(partial, ident) == pytest.approx(
        0.25 + 0.75 * alpha
    )


def test_is_trace_preserving():
    assert pauli.is_trace_preserving(np.eye(16))
    bad = np.eye(16)
    bad[0, 3] = 1e-6
    assert not pauli.is_trace_preserving(bad)


def test_state_00_and_outcomes():
    x = pauli.state_00()
    labels = pauli.pauli_labels(2)
    assert x[labels.index("II")] == 1.0
    assert x[labels.index("IZ")] == 1.0
    assert x[labels.index("ZI")] == 1.0
    assert x[labels.index("ZZ")] == 1.0
    assert np.count_nonzero(x) == 4
    np.testing.assert_allclose(
        pauli.outcome_probabilities(x), [1.0, 0.0, 0.0, 0.0], atol=1e-14
    )


def test_outcomes_after_bit_flip():
    x = pauli.state_00()
    r = pauli.unitary_to_ptm(np.kron(pauli.SIGMA_X, pauli.I2))
    np.testing.assert_allclose(
        pauli.outcome_probabilities(r @ x), [0.0, 0.0, 1.0, 0.0], atol=1e-14
    )


def test_outcomes_thermal_population():
    x = pauli.state_00(thermal_pop_1=0.03, thermal_pop_2=0.05)
    p = pauli.outcome_probabilities(x)
    np.testing.assert_allclose(
        p, [0.97 * 0.95, 0.97 * 0.05, 0.03 * 0.95, 0.03 * 0.05], atol=1e-14
    )


def test_outcomes_sum_to_one_under_evolution():
    rng = np.random.default_rng(29)
    x = pauli.state_00()
    for _ in range(5):
        x = pauli.unitary_to_ptm(_random_unitary(rng, 4)) @ x
        p = pauli.outcome_probabilities(x)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p > -1e-12)
