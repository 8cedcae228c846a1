"""Device-model tests: drive Hamiltonian, echo refocusing, decoherence.

The echo cancellation is checked against the analytic closed form (and
a deliberately wrong sign convention is checked to fail); the Kraus
channels are checked against the closed-form single-qubit transfer
matrix they must produce.
"""

import dataclasses
import math

import numpy as np
import pytest

from rbsim import device, pauli, rb
from rbsim.cliffords import (ZX_LAYER_ID, ZX_UNITARY, Layer, clifford_table,
                             gate_unitary, zx_perm)
from rbsim.device import DeviceParams, SpamModel

NOISELESS = DeviceParams(
    t1_1_us=math.inf, t1_2_us=math.inf, t2_1_us=math.inf, t2_2_us=math.inf
)


def test_hamiltonian_matches_hand_built():
    p = DeviceParams(cr_m=0.8, cr_mu=0.07, cr_eta=0.3, cr_epsilon=0.02)
    expect = 0.02 * (
        0.8 * np.kron(pauli.I2, pauli.SIGMA_X)
        - 0.07 * np.kron(pauli.SIGMA_Z, pauli.SIGMA_X)
        + 0.3 * np.kron(pauli.SIGMA_Z, pauli.I2)
    )
    np.testing.assert_allclose(device.cr_hamiltonian(p, +1), expect, atol=1e-15)


def test_hamiltonian_zero_amplitude():
    p = DeviceParams(cr_epsilon=0.0)
    np.testing.assert_array_equal(device.cr_hamiltonian(p), np.zeros((4, 4)))


def test_hamiltonian_terms_commute():
    for a in (device.IX, device.ZX, device.ZI):
        for b in (device.IX, device.ZX, device.ZI):
            np.testing.assert_allclose(a @ b - b @ a, np.zeros((4, 4)), atol=0)


def test_hamiltonian_sign_convention():
    p = DeviceParams(cr_m=1.1, cr_mu=0.2, cr_eta=0.4, cr_epsilon=0.03)
    h_plus = device.cr_hamiltonian(p, +1)
    h_minus = device.cr_hamiltonian(p, -1)
    # the Stark term survives the sum, the driven terms survive the difference
    np.testing.assert_allclose(
        h_plus + h_minus, 2 * 0.03 * 0.4 * device.ZI, atol=1e-15
    )
    np.testing.assert_allclose(
        h_plus - h_minus,
        2 * 0.03 * (1.1 * device.IX - 0.2 * device.ZX),
        atol=1e-15,
    )
    with pytest.raises(ValueError):
        device.cr_hamiltonian(p, 0)


def test_rabi_branches_closed_form():
    p = DeviceParams(cr_m=1.0, cr_mu=0.1, cr_eta=0.25, cr_epsilon=0.04)
    taus = np.linspace(0.0, 300.0, 61)
    ground = device.cr_rabi_sweep(p, taus, control_excited=False)
    excited = device.cr_rabi_sweep(p, taus, control_excited=True)
    # commuting terms make the target evolution a pure X rotation whose
    # angle is eps*(m -+ mu)*tau; eta only dephases the control
    np.testing.assert_allclose(
        ground, np.cos(0.04 * 0.9 * taus) ** 2, atol=1e-12
    )
    np.testing.assert_allclose(
        excited, np.cos(0.04 * 1.1 * taus) ** 2, atol=1e-12
    )


def test_rabi_frequency_ratio_by_fft():
    p = DeviceParams(cr_m=1.0, cr_mu=0.1, cr_eta=0.0, cr_epsilon=0.05)
    dt = 2.0
    taus = np.arange(0, 8192) * dt
    freqs = []
    for excited in (False, True):
        trace = device.cr_rabi_sweep(p, taus, control_excited=excited)
        spectrum = np.abs(np.fft.rfft(trace - trace.mean()))
        freqs.append(np.fft.rfftfreq(len(taus), d=dt)[np.argmax(spectrum)])
    assert freqs[0] / freqs[1] == pytest.approx(0.9 / 1.1, rel=0.02)


def test_rabi_mu_zero_branches_coincide():
    p = DeviceParams(cr_m=1.0, cr_mu=0.0, cr_eta=0.2, cr_epsilon=0.03)
    taus = np.linspace(0.0, 200.0, 41)
    np.testing.assert_allclose(
        device.cr_rabi_sweep(p, taus, False),
        device.cr_rabi_sweep(p, taus, True),
        atol=1e-12,
    )


def test_rabi_pure_stark_is_flat():
    p = DeviceParams(cr_m=0.0, cr_mu=0.0, cr_eta=0.7, cr_epsilon=0.05)
    taus = np.linspace(0.0, 200.0, 41)
    np.testing.assert_allclose(
        device.cr_rabi_sweep(p, taus, False), np.ones(41), atol=1e-12
    )


def _zx_rotation(theta):
    """exp(+i*theta*ZX)."""
    return pauli.matexp_hermitian_generator(device.ZX, -theta)


def test_echo_reduces_to_pure_zx():
    rng = np.random.default_rng(41)
    x_pi = np.kron(gate_unitary("X180"), pauli.I2)
    for _ in range(200):
        m, mu, eta = rng.uniform(0.0, 2.0, size=3)
        eps = rng.uniform(0.005, 0.05)
        tau2 = rng.uniform(10.0, 400.0)
        p = DeviceParams(
            cr_m=m, cr_mu=mu, cr_eta=eta, cr_epsilon=eps, tau2_ns=tau2
        )
        u = device.echoed_cr_unitary(p)
        theta = 2.0 * eps * mu * tau2
        np.testing.assert_allclose(
            x_pi.conj().T @ u, _zx_rotation(theta), atol=1e-10
        )


def test_echo_special_case_single_term():
    p = DeviceParams(cr_m=0.0, cr_mu=0.3, cr_eta=0.0, cr_epsilon=0.02,
                     tau2_ns=100.0)
    x_pi = np.kron(gate_unitary("X180"), pauli.I2)
    expect = x_pi @ _zx_rotation(2.0 * 0.02 * 0.3 * 100.0)
    np.testing.assert_allclose(device.echoed_cr_unitary(p), expect, atol=1e-12)


def test_echo_fails_if_stark_flips_with_drive():
    # negative control pinning the sign convention: if eta flipped with
    # the drive sign, the ZI term would survive the echo
    p = DeviceParams(cr_m=1.0, cr_mu=0.15, cr_eta=0.5, cr_epsilon=0.03,
                     tau2_ns=120.0)
    x_pi = np.kron(gate_unitary("X180"), pauli.I2)

    def bad_hamiltonian(sign):
        return p.cr_epsilon * (
            sign * p.cr_m * device.IX
            - sign * p.cr_mu * device.ZX
            + sign * p.cr_eta * device.ZI
        )

    u = (
        pauli.matexp_hermitian_generator(bad_hamiltonian(-1), p.tau2_ns)
        @ x_pi
        @ pauli.matexp_hermitian_generator(bad_hamiltonian(+1), p.tau2_ns)
    )
    theta = 2.0 * p.cr_epsilon * p.cr_mu * p.tau2_ns
    residual = np.max(np.abs(x_pi.conj().T @ u - _zx_rotation(theta)))
    assert residual > 1e-6


def test_zx_layer_is_calibrated_by_default():
    p = DeviceParams()
    assert p.zx_angle == pytest.approx(np.pi / 4, abs=1e-14)
    assert p.zx_gate_ns == pytest.approx(420.0)
    assert device.calibrated_tau2(p) == pytest.approx(178.0, abs=1e-9)
    np.testing.assert_allclose(
        device.zx_layer_unitary(p), _zx_rotation(np.pi / 4), atol=1e-12
    )


def test_with_calibration_solves_for_epsilon():
    p = DeviceParams().with_calibration(tau2_ns=90.0)
    assert p.tau2_ns == 90.0
    assert p.zx_angle == pytest.approx(np.pi / 4, abs=1e-14)


def test_echoed_rabi_branches_coincide():
    p = DeviceParams()
    taus = np.linspace(0.0, 400.0, 81)
    ground = device.echoed_rabi_sweep(p, taus, False)
    excited = device.echoed_rabi_sweep(p, taus, True)
    expect = np.cos(2.0 * p.cr_epsilon * p.cr_mu * taus) ** 2
    np.testing.assert_allclose(ground, expect, atol=1e-12)
    np.testing.assert_allclose(excited, expect, atol=1e-12)


def test_device_params_validation():
    with pytest.raises(ValueError):
        DeviceParams(t2_1_us=30.0)  # exceeds 2*T1 = 23.2
    with pytest.raises(ValueError):
        DeviceParams(t1_2_us=-1.0)
    with pytest.raises(ValueError):
        DeviceParams(tau2_ns=-5.0)
    with pytest.raises(ValueError):
        DeviceParams(t_single_ns=0.0)


def test_single_qubit_decoherence_ptm_closed_form():
    t1, t2, t = 11.6, 7.1, 420.0
    kraus = device._qubit_decoherence_kraus(t1, t2, t)
    gamma = 1.0 - math.exp(-t / (t1 * 1e3))
    decay_xy = math.exp(-t / (t2 * 1e3))
    expect = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, decay_xy, 0.0, 0.0],
            [0.0, 0.0, decay_xy, 0.0],
            [gamma, 0.0, 0.0, 1.0 - gamma],
        ]
    )
    np.testing.assert_allclose(pauli.kraus_to_ptm(kraus), expect, atol=1e-12)
    assert round(gamma, 4) == 0.0356


def test_decoherence_channel_trace_preserving():
    ch = device.decoherence_channel(11.6, 7.1, 420.0)
    total = sum(k.conj().T @ k for k in ch.kraus)
    np.testing.assert_allclose(total, np.eye(4), atol=1e-10)
    assert pauli.is_trace_preserving(ch.ptm(), atol=1e-10)


def test_decoherence_identity_limits():
    ident = np.eye(16)
    np.testing.assert_allclose(
        device.decoherence_channel(11.6, 7.1, 0.0).ptm(), ident, atol=1e-12
    )
    np.testing.assert_allclose(
        device.decoherence_channel(math.inf, math.inf, 420.0).ptm(),
        ident,
        atol=1e-12,
    )


def test_decoherence_rejects_unphysical_t2():
    with pytest.raises(ValueError):
        device.decoherence_channel(5.0, 10.1, 100.0)


def test_decoherence_semigroup():
    p = DeviceParams()
    a = device.device_decoherence_channel(p, 150.0).ptm()
    b = device.device_decoherence_channel(p, 270.0).ptm()
    c = device.device_decoherence_channel(p, 420.0).ptm()
    np.testing.assert_allclose(b @ a, c, atol=1e-10)


def test_two_qubit_zz_decay():
    p = DeviceParams()
    r = device.device_decoherence_channel(p, 420.0).ptm()
    zz = r[15, 15]
    assert zz < 1.0
    expect = math.exp(-420.0 / 11.6e3) * math.exp(-420.0 / 9.1e3)
    assert zz == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("params", [
    DeviceParams(),
    NOISELESS,
    DeviceParams(t2_1_us=2 * 11.6, t2_2_us=2 * 9.1),
], ids=["default", "infinite", "t2_at_2t1"])
def test_decoherence_ptm_closed_form_matches_kraus(params):
    # default T1/T2 differ between the qubits, so a swapped Kronecker
    # order (qubit 1 must be the slow index) shows up here
    for duration in (0.0, 32.0, 64.0, 420.0, params.zx_gate_ns):
        got = device.decoherence_ptm(params.t1_1_us, params.t2_1_us,
                                     params.t1_2_us, params.t2_2_us, duration)
        kraus = device.device_decoherence_channel(params, duration).ptm()
        np.testing.assert_allclose(got, kraus, rtol=0, atol=1e-14)
        assert not got.flags.writeable


def test_decoherence_ptm_rejects_unphysical_input():
    with pytest.raises(ValueError, match="exceeds 2\\*T1"):
        device.decoherence_ptm(11.6, 7.1, 5.0, 10.1, 100.0)
    with pytest.raises(ValueError, match="exceeds 2\\*T1"):
        device.decoherence_ptm(5.0, 10.1, 11.6, 7.1, 100.0)
    with pytest.raises(ValueError, match="duration"):
        device.decoherence_ptm(11.6, 7.1, 9.1, 5.6, -1.0)


def _ideal_unitary(layer):
    """Unitary of a layer: its pulse pairs in time order, or the ideal
    entangling primitive."""
    if layer.kind == "zx":
        return ZX_UNITARY
    u = np.eye(4, dtype=complex)
    for g1, g2 in layer.pulses:
        u = np.kron(gate_unitary(g1), gate_unitary(g2)) @ u
    return u


def _kraus_unitary_gate_channel(layer, p):
    """Layer channel built the long way: the Kraus-operator decoherence
    PTM times the PTM of the layer's unitary."""
    if layer.kind == "zx":
        u = device.zx_layer_unitary(p)
    else:
        u = _ideal_unitary(layer)
    decay = device.device_decoherence_channel(
        p, device.layer_duration_ns(layer, p)).ptm()
    return decay @ pauli.unitary_to_ptm(u)


@pytest.mark.parametrize("t1_limited", [False, True])
def test_gate_channel_matches_kraus_construction_on_every_layer(t1_limited):
    p = DeviceParams()
    if t1_limited:
        p = rb.decoherence_only_params(p, t1_limited=True)
    layers = {layer for circuit in clifford_table().circuits
              for layer in circuit}
    assert len(layers) > 500
    worst = max(
        np.max(np.abs(device.gate_channel(layer, p)
                      - _kraus_unitary_gate_channel(layer, p)))
        for layer in layers
    )
    assert worst < 1e-12


# parameter sets whose channels must match the gate_channel reference
# bit for bit: default, T1-limited, coherent error, tau2 -> 0 limit
REFERENCE_PARAMS = {
    "default": DeviceParams(),
    "t1_limited": rb.decoherence_only_params(DeviceParams(), t1_limited=True),
    "residual_ix": DeviceParams(residual_ix=0.01),
    "tau2_zero": DeviceParams().with_calibration(1e-9),
}


@pytest.mark.parametrize("p", REFERENCE_PARAMS.values(),
                         ids=REFERENCE_PARAMS.keys())
def test_layer_channels_equal_gate_channel_bit_for_bit(p):
    """Rows 1-575 of the pulse-layer stack are the gate_channel of their
    layer; row 0 (no layer) is the identity."""
    table = clifford_table()
    stack = device.pulse_layer_channels(p, table)
    assert stack.shape == (len(table.layers), 16, 16)
    assert not stack.flags.writeable
    assert stack[0].tobytes() == np.eye(16).tobytes()
    for i, layer in enumerate(table.layers[1:ZX_LAYER_ID], start=1):
        assert stack[i].tobytes() == device.gate_channel(layer, p).tobytes()


def test_gate_channel_noiseless_equals_exact_perm():
    layers = [
        Layer("1q", (("X90", "Y-90"), ("I", "X180"))),
        Layer("zx"),
    ]
    for layer in layers:
        got = device.gate_channel(layer, NOISELESS)
        np.testing.assert_allclose(
            got, pauli.unitary_to_ptm(_ideal_unitary(layer)), atol=1e-12)


def test_gate_channel_identity_layer_is_pure_decoherence():
    p = DeviceParams()
    layer = Layer("1q", (("I", "I"),))
    r = device.gate_channel(layer, p)
    np.testing.assert_allclose(
        r, device.device_decoherence_channel(p, 32.0).ptm(), atol=1e-12
    )
    assert pauli.is_trace_preserving(r, atol=1e-10)


def test_gate_channel_coherent_error_knob():
    p = dataclasses.replace(NOISELESS, residual_ix=0.02, residual_zi=0.01)
    r = device.gate_channel(Layer("zx"), p)
    ideal = zx_perm().to_ptm()
    assert np.max(np.abs(r - ideal)) > 1e-3
    assert pauli.is_trace_preserving(r, atol=1e-10)
    # fidelity loss is second order in the small angles
    f = pauli.avg_gate_fidelity(r, ideal)
    assert 0.99 < f < 1.0


def test_noise_channel_validates_trace_preservation():
    with pytest.raises(ValueError):
        device.NoiseChannel((np.eye(4) * 0.9,))


def test_spam_identity_passthrough():
    spam = SpamModel.ideal()
    probs = np.array([0.7, 0.1, 0.15, 0.05])
    np.testing.assert_array_equal(device.apply_spam(probs, spam), probs)
    assert spam.is_ideal


def test_spam_uniform_confusion_erases_information():
    spam = SpamModel(confusion=np.full((4, 4), 0.25))
    out = device.apply_spam(np.array([0.9, 0.1, 0.0, 0.0]), spam)
    np.testing.assert_allclose(out, [0.25] * 4, atol=1e-15)


def test_spam_two_percent_example():
    spam = SpamModel.symmetric(thermal=0.0, misassignment=0.02)
    out = device.apply_spam(np.array([1.0, 0.0, 0.0, 0.0]), spam)
    np.testing.assert_allclose(out, [0.9604, 0.0196, 0.0196, 0.0004], atol=1e-12)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_spam_thermal_initial_state():
    spam = SpamModel(thermal_pop_1=0.03, thermal_pop_2=0.01)
    probs = pauli.outcome_probabilities(spam.initial_state())
    np.testing.assert_allclose(probs[0], 0.97 * 0.99, atol=1e-12)


def test_spam_validation():
    with pytest.raises(ValueError):
        SpamModel(confusion=np.eye(4) * 1.1)
    with pytest.raises(ValueError):
        SpamModel(confusion=-np.eye(4))
    with pytest.raises(ValueError):
        SpamModel(thermal_pop_1=0.7)
