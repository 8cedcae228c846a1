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
from .cliffords import (ZX_LAYER_ID, CliffordTable, Layer, gate_unitary,
                        layer_rows)

IX = np.kron(pauli.I2, pauli.SIGMA_X)
ZX = np.kron(pauli.SIGMA_Z, pauli.SIGMA_X)
ZI = np.kron(pauli.SIGMA_Z, pauli.I2)
X_PI_1 = np.kron(gate_unitary("X180"), pauli.I2)  # pi pulse on qubit 1

# Factory default: the entangling pulse is calibrated, 4*eps*mu*tau2 = pi/2.
_DEFAULT_MU = 0.05
_DEFAULT_TAU2 = 178.0
_COHERENCE_TIMES = ("t1_1_us", "t2_1_us", "t1_2_us", "t2_2_us")


@dataclass(frozen=True)
class DeviceParams:
    """Fixed-frequency two-transmon parameters.

    The qubits are simulated as two-level systems in the rotating frame,
    so no qubit frequency, anharmonicity or pulse shape is a parameter.
    ``cr_m``, ``cr_mu``, ``cr_eta`` are the dimensionless IX / ZX / ZI
    coefficients of the drive Hamiltonian; ``cr_epsilon`` the drive
    amplitude in rad/ns.  The residual_* angles are an optional coherent
    error applied per entangling layer (a stand-in for the short-pulse
    imperfections a two-level model cannot produce microscopically).
    """

    t1_1_us: float = 11.6
    t1_2_us: float = 9.1
    t2_1_us: float = 7.1
    t2_2_us: float = 5.6
    t_single_ns: float = 32.0
    tau2_ns: float = _DEFAULT_TAU2
    cr_m: float = 1.0
    cr_mu: float = _DEFAULT_MU
    cr_eta: float = 0.1
    cr_epsilon: float = math.pi / (8.0 * _DEFAULT_TAU2 * _DEFAULT_MU)
    residual_ix: float = 0.0
    residual_zi: float = 0.0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if math.isnan(value):
                raise ValueError(f"{f.name} must be a number, got {value}")
            # an infinite T1 or T2 is the decoherence-free limit
            if math.isinf(value) and f.name not in _COHERENCE_TIMES:
                raise ValueError(f"{f.name} must be finite, got {value}")
        for name in (*_COHERENCE_TIMES, "t_single_ns"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        for q in (1, 2):
            t1 = getattr(self, f"t1_{q}_us")
            t2 = getattr(self, f"t2_{q}_us")
            if t2 > 2 * t1 + 1e-12:
                raise ValueError(f"t2_{q}_us = {t2} exceeds 2*T1 = {2 * t1}"
                                 f" (t1_{q}_us = {t1})")
        if self.tau2_ns < 0:
            raise ValueError(f"tau2_ns must be non-negative, got {self.tau2_ns}")

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
        if tau2 <= 0:
            raise ValueError(f"calibration needs tau2_ns > 0, got {tau2}")
        if self.cr_mu == 0:
            raise ValueError(f"calibration needs cr_mu != 0, got {self.cr_mu}")
        eps = math.pi / (8.0 * self.cr_mu * tau2)
        return dataclasses.replace(self, tau2_ns=tau2, cr_epsilon=eps)


def calibrated_tau2(p: DeviceParams) -> float:
    """Segment length at which the current amplitudes give ZX_-pi/2;
    ValueError for a zero drive, which no segment length calibrates."""
    for name in ("cr_epsilon", "cr_mu"):
        if getattr(p, name) == 0:
            raise ValueError(
                f"calibration needs {name} != 0, got {getattr(p, name)}")
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
    return (
        cr_pulse_unitary(p, p.tau2_ns, -1)
        @ X_PI_1
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
    return X_PI_1.conj().T @ echoed_cr_unitary(p)


def _rabi_sweep(pulse, taus_ns, control_excited: bool) -> np.ndarray:
    """Qubit-2 ground-state population after ``pulse(tau)`` from |00>,
    for each tau; with ``control_excited`` qubit 1 is flipped before the
    pulse and flipped back after it."""
    out = np.empty(len(taus_ns))
    for k, tau in enumerate(taus_ns):
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        if control_excited:
            psi = X_PI_1 @ psi
        psi = pulse(float(tau)) @ psi
        if control_excited:
            psi = X_PI_1 @ psi
        probs = np.abs(psi) ** 2
        out[k] = probs[0] + probs[2]  # qubit 2 in |0>
    return out


def cr_rabi_sweep(
    p: DeviceParams, taus_ns, control_excited: bool = False
) -> np.ndarray:
    """Qubit-2 ground-state population after one CR pulse of length tau.

    Models the single-pulse drive experiment: optionally flip qubit 1,
    drive for tau, optionally flip qubit 1 back, read out qubit 2.  The
    two control branches oscillate at angular frequencies 2*eps*(m -+ mu).
    """
    return _rabi_sweep(lambda tau: cr_pulse_unitary(p, tau, +1), taus_ns,
                       control_excited)


def echoed_rabi_sweep(
    p: DeviceParams, taus_ns, control_excited: bool = False
) -> np.ndarray:
    """Qubit-2 ground population vs segment length for the echoed pulse.

    Both control branches collapse onto cos^2(2*eps*mu*tau): the echo
    removes the control-state dependence of the oscillation frequency.
    """
    def pulse(tau):
        # the closing pi pulse strips the echo frame
        return X_PI_1 @ echoed_cr_unitary(dataclasses.replace(p, tau2_ns=tau))

    return _rabi_sweep(pulse, taus_ns, control_excited)


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


def decoherence_ptm(
    t1_1_us: float, t2_1_us: float, t1_2_us: float, t2_2_us: float,
    duration_ns: float,
) -> np.ndarray:
    """Two-qubit T1/T2 transfer matrix over one duration, closed form.

    The channel acts on each qubit independently, so its PTM is the
    Kronecker product of the one-qubit matrices (qubit 1 is the slow
    index).
    """
    return np.kron(_qubit_decoherence_ptm(t1_1_us, t2_1_us, duration_ns),
                   _qubit_decoherence_ptm(t1_2_us, t2_2_us, duration_ns))


def layer_duration_ns(layer: Layer, p: DeviceParams) -> float:
    if layer.kind == "zx":
        return p.zx_gate_ns
    return layer.n_slots * p.t_single_ns


@functools.lru_cache(maxsize=8192)
def gate_channel(layer: Layer, p: DeviceParams) -> np.ndarray:
    """Noisy transfer matrix of one circuit layer.

    The ideal layer is followed by the per-qubit decoherence channel
    over the layer's wall-clock duration, the closed-form
    :func:`decoherence_ptm`.  For a pulse layer the ideal part is its
    exact signed permutation, which depends on the layer alone; the
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
        perm, sign = layer_rows((layer,))
        noisy = decay[:, perm[0]] * sign[0]
    noisy.setflags(write=False)
    return noisy


# layers gathered at a time, which keeps the gather's temporary small
_LAYER_BLOCK = 64


@functools.lru_cache(maxsize=4)
def _pulse_rows(table: CliffordTable, t1_1_us: float, t2_1_us: float,
                t1_2_us: float, t2_2_us: float,
                t_single_ns: float) -> np.ndarray:
    slots = np.array([0 if layer is None else layer.n_slots
                      for layer in table.layers[:ZX_LAYER_ID]])
    stack = np.empty((ZX_LAYER_ID + 1, 16, 16))
    for n in range(slots.max() + 1):
        decay = decoherence_ptm(t1_1_us, t2_1_us, t1_2_us, t2_2_us,
                                n * t_single_ns)
        ids = np.flatnonzero(slots == n)
        for start in range(0, len(ids), _LAYER_BLOCK):
            block = ids[start:start + _LAYER_BLOCK]
            # decay[:, perm] * sign of each layer; the gather is
            # (row, layer, column), the stack (layer, row, column)
            gathered = decay[:, table.perm_array[block]]
            stack[block] = (gathered.transpose(1, 0, 2)
                            * table.sign_array[block, None, :])
    stack[ZX_LAYER_ID] = np.nan
    stack.setflags(write=False)
    return stack


def pulse_layer_channels(p: DeviceParams, table: CliffordTable) -> np.ndarray:
    """Noisy transfer matrices of the layer ids of ``table``, a read-only
    ``(577, 16, 16)`` stack: row i < ZX_LAYER_ID is :func:`gate_channel`
    of ``table.layers[i]`` bit for bit, row 0 (no layer) is the identity
    and row ZX_LAYER_ID is left NaN.

    Pulse layers depend only on the T1/T2 values and the pulse length,
    so the rows are made once per (T1, T2, t_single) set, for the last
    four sets used, and shared by every caller with those values.  A
    pulse layer's exact action is table row i, so the rows of each
    pulse-slot count are one gather from that count's decoherence part,
    columns permuted and signed by those rows, 64 layers at a time.
    """
    return _pulse_rows(table, p.t1_1_us, p.t2_1_us, p.t1_2_us, p.t2_2_us,
                       p.t_single_ns)


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
        for name in ("thermal_pop_1", "thermal_pop_2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if not 0.0 <= value <= 0.5:
                raise ValueError(f"{name} must lie in [0, 0.5], got {value}")
        bad = self.confusion[~np.isfinite(self.confusion)]
        if bad.size:
            raise ValueError(
                f"confusion matrix entries must be finite, got {bad[0]}")
        if self.confusion.shape != (4, 4):
            raise ValueError("confusion matrix must be 4x4")
        if np.any(self.confusion < 0):
            raise ValueError("confusion matrix entries must be nonnegative, "
                             f"got {self.confusion.min()}")
        if np.max(np.abs(self.confusion.sum(axis=1) - 1.0)) > 1e-9:
            raise ValueError("confusion matrix rows must sum to 1")

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
