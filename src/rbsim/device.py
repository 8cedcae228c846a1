"""Two-transmon device model.

Covers the physics layer: the cross-resonance drive Hamiltonian
H/hbar = eps*(sign*m*IX - sign*mu*ZX + eta*ZI), the echoed entangling
sequence that refocuses it to a pure ZX rotation, amplitude-damping and
dephasing channels derived from T1/T2, per-layer noisy gate channels,
and the readout/preparation (SPAM) model.

Time is in nanoseconds throughout; drive amplitudes in rad/ns.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import pauli
from .cliffords import ZX_LAYER_ID, CliffordTable, Layer, gate_unitary

IX = np.kron(pauli.I2, pauli.SIGMA_X)
ZX = np.kron(pauli.SIGMA_Z, pauli.SIGMA_X)
ZI = np.kron(pauli.SIGMA_Z, pauli.I2)

# Factory default: the entangling pulse is calibrated, 4*eps*mu*tau2 = pi/2.
_DEFAULT_MU = 0.05
_DEFAULT_TAU2 = 178.0


@dataclass(frozen=True)
class DeviceParams:
    """Fixed-frequency two-transmon parameters.

    ``omega*_ghz`` and ``anharm*_mhz`` are carried for bookkeeping only;
    the qubits are simulated as two-level systems in the rotating frame.
    ``cr_m``, ``cr_mu``, ``cr_eta`` are the dimensionless IX / ZX / ZI
    coefficients of the drive Hamiltonian; ``cr_epsilon`` the drive
    amplitude in rad/ns.  The residual_* angles are an optional coherent
    error applied per entangling layer (a stand-in for the short-pulse
    imperfections a two-level model cannot produce microscopically).
    """

    omega1_ghz: float = 3.2324
    omega2_ghz: float = 3.2945
    anharm1_mhz: float = -331.0
    anharm2_mhz: float = -216.0
    t1_1_us: float = 11.6
    t1_2_us: float = 9.1
    t2_1_us: float = 7.1
    t2_2_us: float = 5.6
    t_single_ns: float = 32.0
    sigma_ns: float = 8.0
    tau2_ns: float = _DEFAULT_TAU2
    cr_m: float = 1.0
    cr_mu: float = _DEFAULT_MU
    cr_eta: float = 0.1
    cr_epsilon: float = math.pi / (8.0 * _DEFAULT_TAU2 * _DEFAULT_MU)
    residual_ix: float = 0.0
    residual_zi: float = 0.0

    def __post_init__(self):
        for t1, t2, q in (
            (self.t1_1_us, self.t2_1_us, 1),
            (self.t1_2_us, self.t2_2_us, 2),
        ):
            if t1 <= 0 or t2 <= 0:
                raise ValueError(f"qubit {q}: T1 and T2 must be positive")
            if t2 > 2 * t1 + 1e-12:
                raise ValueError(f"qubit {q}: T2 = {t2} exceeds 2*T1 = {2 * t1}")
        if self.t_single_ns <= 0:
            raise ValueError("single-qubit gate length must be positive")
        if self.tau2_ns < 0:
            raise ValueError("tau2 must be nonnegative")

    @property
    def zx_gate_ns(self) -> float:
        """Wall-clock length of the echoed gate: 2*tau2 + 2 pulse slots."""
        return 2.0 * self.tau2_ns + 2.0 * self.t_single_ns

    @property
    def zx_angle(self) -> float:
        """theta in the refocused two-qubit factor exp(+i*theta*ZX)."""
        return 2.0 * self.cr_epsilon * self.cr_mu * self.tau2_ns

    def with_calibration(self, tau2_ns: float | None = None) -> "DeviceParams":
        """Copy with the drive amplitude solving 4*eps*mu*tau2 = pi/2."""
        tau2 = self.tau2_ns if tau2_ns is None else tau2_ns
        if tau2 <= 0 or self.cr_mu == 0:
            raise ValueError("calibration needs tau2 > 0 and mu != 0")
        eps = math.pi / (8.0 * self.cr_mu * tau2)
        return dataclasses.replace(self, tau2_ns=tau2, cr_epsilon=eps)


def calibrated_tau2(p: DeviceParams) -> float:
    """Segment length at which the current amplitudes give ZX_-pi/2."""
    return math.pi / (8.0 * p.cr_epsilon * p.cr_mu)


def cr_hamiltonian(p: DeviceParams, sign: int = +1) -> np.ndarray:
    """Drive Hamiltonian (rad/ns): eps*(sign*m*IX - sign*mu*ZX + eta*ZI).

    The Stark-like eta*ZI term is even in the drive sign; only the IX
    and ZX terms flip when the pulse is inverted.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    return p.cr_epsilon * (
        sign * p.cr_m * IX - sign * p.cr_mu * ZX + p.cr_eta * ZI
    )


def cr_pulse_unitary(p: DeviceParams, tau_ns: float, sign: int = +1) -> np.ndarray:
    return pauli.matexp_hermitian_generator(cr_hamiltonian(p, sign), tau_ns)


def echoed_cr_unitary(p: DeviceParams) -> np.ndarray:
    """Three-segment echo: exp(-i*tau2*H-) (X_pi x I) exp(-i*tau2*H+).

    Because the three Pauli terms commute, this equals
    (X_pi x I) * exp(+2i*eps*mu*tau2*ZX) exactly: the IX and ZI
    contributions cancel between the segments.
    """
    x_pi = np.kron(gate_unitary("X180"), pauli.I2)
    return (
        cr_pulse_unitary(p, p.tau2_ns, -1)
        @ x_pi
        @ cr_pulse_unitary(p, p.tau2_ns, +1)
    )


def zx_layer_unitary(p: DeviceParams) -> np.ndarray:
    """Net unitary of the full entangling layer, echo frame stripped.

    A closing pi pulse on qubit 1 undoes the embedded echo pulse, so
    the layer implements exp(+2i*eps*mu*tau2*ZX) exactly (including
    phase, the frame is stripped with the adjoint pulse); at
    calibration this is ZX_-pi/2 = exp(+i*pi*ZX/4).  The layer occupies
    2*tau2 plus the two single-qubit pulse slots.
    """
    x_pi = np.kron(gate_unitary("X180"), pauli.I2)
    return x_pi.conj().T @ echoed_cr_unitary(p)


def cr_rabi_sweep(
    p: DeviceParams, taus_ns, control_excited: bool = False
) -> np.ndarray:
    """Qubit-2 ground-state population after one CR pulse of length tau.

    Models the single-pulse drive experiment: optionally flip qubit 1,
    drive for tau, optionally flip qubit 1 back, read out qubit 2.  The
    two control branches oscillate at angular frequencies 2*eps*(m -+ mu).
    """
    x_pi = np.kron(gate_unitary("X180"), pauli.I2)
    out = np.empty(len(taus_ns))
    for k, tau in enumerate(taus_ns):
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        if control_excited:
            psi = x_pi @ psi
        psi = cr_pulse_unitary(p, float(tau), +1) @ psi
        if control_excited:
            psi = x_pi @ psi
        probs = np.abs(psi) ** 2
        out[k] = probs[0] + probs[2]  # qubit 2 in |0>
    return out


def echoed_rabi_sweep(
    p: DeviceParams, taus_ns, control_excited: bool = False
) -> np.ndarray:
    """Qubit-2 ground population vs segment length for the echoed pulse.

    Both control branches collapse onto cos^2(2*eps*mu*tau): the echo
    removes the control-state dependence of the oscillation frequency.
    """
    x_pi = np.kron(gate_unitary("X180"), pauli.I2)
    out = np.empty(len(taus_ns))
    for k, tau in enumerate(taus_ns):
        seg = dataclasses.replace(p, tau2_ns=float(tau))
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        if control_excited:
            psi = x_pi @ psi
        psi = x_pi @ echoed_cr_unitary(seg) @ psi  # close the echo frame
        if control_excited:
            psi = x_pi @ psi
        probs = np.abs(psi) ** 2
        out[k] = probs[0] + probs[2]
    return out


# --- decoherence -----------------------------------------------------------

@dataclass(frozen=True)
class NoiseChannel:
    """A CPTP map as a tuple of Kraus operators (validated on creation)."""

    kraus: tuple

    def __post_init__(self):
        ops = [np.asarray(k, dtype=complex) for k in self.kraus]
        d = ops[0].shape[0]
        total = sum(k.conj().T @ k for k in ops)
        if np.max(np.abs(total - np.eye(d))) > 1e-10:
            raise ValueError("Kraus operators do not preserve trace")

    def ptm(self) -> np.ndarray:
        return pauli.kraus_to_ptm(list(self.kraus))


def _qubit_decoherence_kraus(t1_us: float, t2_us: float, duration_ns: float):
    """Kraus list for relaxation plus pure dephasing over one duration."""
    if duration_ns < 0:
        raise ValueError("duration must be nonnegative")
    if t2_us > 2 * t1_us + 1e-12:
        raise ValueError(f"T2 = {t2_us} exceeds 2*T1 = {2 * t1_us}")
    t1 = t1_us * 1e3
    t2 = t2_us * 1e3
    gamma = 1.0 - math.exp(-duration_ns / t1)
    # pure dephasing rate: what is left of 1/T2 after the T1 contribution
    lam = 1.0 - math.exp(-2.0 * duration_ns * (1.0 / t2 - 1.0 / (2.0 * t1)))
    damp = [
        np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex),
        np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex),
    ]
    deph = [
        np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - lam)]], dtype=complex),
        np.array([[0.0, 0.0], [0.0, math.sqrt(lam)]], dtype=complex),
    ]
    ops = [dk @ ak for dk in deph for ak in damp]
    return [k for k in ops if np.max(np.abs(k)) > 0.0]


def decoherence_channel(
    t1_us: float, t2_us: float, duration_ns: float
) -> NoiseChannel:
    """Two-qubit channel with the same T1/T2 acting on each qubit."""
    ops = _qubit_decoherence_kraus(t1_us, t2_us, duration_ns)
    return NoiseChannel(tuple(np.kron(a, b) for a in ops for b in ops))


def device_decoherence_channel(p: DeviceParams, duration_ns: float) -> NoiseChannel:
    """Two-qubit channel from the device's per-qubit T1/T2 values."""
    ops1 = _qubit_decoherence_kraus(p.t1_1_us, p.t2_1_us, duration_ns)
    ops2 = _qubit_decoherence_kraus(p.t1_2_us, p.t2_2_us, duration_ns)
    return NoiseChannel(tuple(np.kron(a, b) for a in ops1 for b in ops2))


def _qubit_decoherence_ptm(t1_us: float, t2_us: float,
                           duration_ns: float) -> np.ndarray:
    """Closed-form transfer matrix of relaxation plus dephasing on one
    qubit: X and Y decay as exp(-t/T2), Z relaxes towards +1 as
    exp(-t/T1).  Equal to the PTM of :func:`_qubit_decoherence_kraus`."""
    if duration_ns < 0:
        raise ValueError("duration must be nonnegative")
    if t2_us > 2 * t1_us + 1e-12:
        raise ValueError(f"T2 = {t2_us} exceeds 2*T1 = {2 * t1_us}")
    decay_xy = math.exp(-duration_ns / (t2_us * 1e3))
    decay_z = math.exp(-duration_ns / (t1_us * 1e3))
    return np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, decay_xy, 0.0, 0.0],
        [0.0, 0.0, decay_xy, 0.0],
        [1.0 - decay_z, 0.0, 0.0, decay_z],
    ])


@functools.lru_cache(maxsize=1024)
def decoherence_ptm(
    t1_1_us: float, t2_1_us: float, t1_2_us: float, t2_2_us: float,
    duration_ns: float,
) -> np.ndarray:
    """Two-qubit T1/T2 transfer matrix over one duration, closed form.

    The channel acts on each qubit independently, so its PTM is the
    Kronecker product of the one-qubit matrices (qubit 1 is the slow
    index).  Layers take only a few distinct durations, so the result
    is cached by the five numbers and returned read-only.
    """
    r = np.kron(_qubit_decoherence_ptm(t1_1_us, t2_1_us, duration_ns),
                _qubit_decoherence_ptm(t1_2_us, t2_2_us, duration_ns))
    r.setflags(write=False)
    return r


def layer_duration_ns(layer: Layer, p: DeviceParams) -> float:
    if layer.kind == "zx":
        return p.zx_gate_ns
    return layer.n_slots * p.t_single_ns


@functools.lru_cache(maxsize=4096)
def _pulse_layer_perm(layer: Layer) -> np.ndarray:
    """Exact ideal action of a pulse layer, independent of the device,
    as one int8 array of rows (perm, sign): Pauli j goes to sign[j]
    times Pauli perm[j].  One small array per layer keeps the cache
    compact."""
    elem = layer.perm()
    return np.array((elem.perm, elem.sign), dtype=np.int8)


@functools.lru_cache(maxsize=8192)
def gate_channel(layer: Layer, p: DeviceParams) -> np.ndarray:
    """Noisy transfer matrix of one circuit layer.

    The ideal layer is followed by the per-qubit decoherence channel
    over the layer's wall-clock duration, and the result is the product
    of two cached parts.  The decoherence part is the closed-form
    :func:`decoherence_ptm`, shared by every layer of the same duration
    and T1/T2 values.  For a pulse layer the ideal part is its exact
    signed permutation, which depends on the layer alone; the
    entangling layer uses the device's actual refocused unitary at the
    current calibration, including the residual_ix/residual_zi
    coherent-error knob.  The returned array is cached and read-only.
    """
    decay = decoherence_ptm(p.t1_1_us, p.t2_1_us, p.t1_2_us, p.t2_2_us,
                            layer_duration_ns(layer, p))
    if layer.kind == "zx":
        u = zx_layer_unitary(p)
        if p.residual_ix != 0.0 or p.residual_zi != 0.0:
            err = pauli.matexp_hermitian_generator(
                p.residual_ix * IX + p.residual_zi * ZI, 1.0
            )
            u = err @ u
        noisy = decay @ pauli.unitary_to_ptm(u)
    else:
        # times a signed permutation matrix: column j of the product is
        # column perm[j] of the decoherence part, times sign[j]
        perm, sign = _pulse_layer_perm(layer)
        noisy = decay[:, perm] * sign
    noisy.setflags(write=False)
    return noisy


# layers gathered at a time, which keeps the gather's temporary small
_LAYER_BLOCK = 64


def layer_channels(p: DeviceParams, table: CliffordTable) -> np.ndarray:
    """Noisy transfer matrices of every layer id of ``table``, stacked.

    Row i is :func:`gate_channel` of ``table.layers[i]``, bit for bit;
    row 0 (no layer) is the identity.  A pulse layer's exact action is
    table row i, so the pulse rows of each pulse-slot count are one
    gather from that count's decoherence part, columns permuted and
    signed by those rows, 64 layers at a time.  Only the entangling
    layer goes through :func:`gate_channel`.  The stack is read-only.
    """
    slots = np.array([0 if layer is None else layer.n_slots
                      for layer in table.layers[:ZX_LAYER_ID]])
    stack = np.empty((ZX_LAYER_ID + 1, 16, 16))
    for n in range(slots.max() + 1):
        decay = decoherence_ptm(p.t1_1_us, p.t2_1_us, p.t1_2_us, p.t2_2_us,
                                n * p.t_single_ns)
        ids = np.flatnonzero(slots == n)
        for start in range(0, len(ids), _LAYER_BLOCK):
            block = ids[start:start + _LAYER_BLOCK]
            # decay[:, perm] * sign of each layer; the gather is
            # (row, layer, column), the stack (layer, row, column)
            gathered = decay[:, table.perm_array[block]]
            stack[block] = (gathered.transpose(1, 0, 2)
                            * table.sign_array[block, None, :])
    stack[ZX_LAYER_ID] = gate_channel(Layer("zx"), p)
    stack.setflags(write=False)
    return stack


# --- SPAM ------------------------------------------------------------------

@dataclass
class SpamModel:
    """Thermal preparation error plus a readout confusion matrix.

    ``confusion[true, reported]`` is the probability of reporting an
    outcome given the true one (rows sum to one).  Outcomes are ordered
    00, 01, 10, 11.
    """

    thermal_pop_1: float = 0.0
    thermal_pop_2: float = 0.0
    confusion: np.ndarray | None = None

    def __post_init__(self):
        if self.confusion is None:
            self.confusion = np.eye(4)
        self.confusion = np.asarray(self.confusion, dtype=float)
        if self.confusion.shape != (4, 4):
            raise ValueError("confusion matrix must be 4x4")
        if np.any(self.confusion < 0):
            raise ValueError("confusion matrix entries must be nonnegative")
        if np.max(np.abs(self.confusion.sum(axis=1) - 1.0)) > 1e-9:
            raise ValueError("confusion matrix rows must sum to 1")
        for pop in (self.thermal_pop_1, self.thermal_pop_2):
            if not 0.0 <= pop <= 0.5:
                raise ValueError("thermal populations must lie in [0, 0.5]")

    @classmethod
    def ideal(cls) -> "SpamModel":
        return cls()

    @classmethod
    def symmetric(cls, thermal: float, misassignment: float) -> "SpamModel":
        """Same thermal population and symmetric per-qubit misassignment."""
        e = misassignment
        c1 = np.array([[1.0 - e, e], [e, 1.0 - e]])
        return cls(thermal, thermal, np.kron(c1, c1))

    def initial_state(self) -> np.ndarray:
        return pauli.state_00(self.thermal_pop_1, self.thermal_pop_2)

    @property
    def is_ideal(self) -> bool:
        return (
            self.thermal_pop_1 == 0.0
            and self.thermal_pop_2 == 0.0
            and np.array_equal(self.confusion, np.eye(4))
        )


def apply_spam(probs: np.ndarray, spam: SpamModel) -> np.ndarray:
    """Mix outcome probabilities through the confusion matrix."""
    return spam.confusion.T @ np.asarray(probs)
