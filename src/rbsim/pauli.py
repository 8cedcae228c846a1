"""Dense complex linear algebra and Pauli-basis superoperator tools.

Conventions used throughout the package:

* Two-qubit Pauli operators are indexed 0..15 with ``index = 4*a + b``
  where ``a`` (first qubit) and ``b`` (second qubit) run over
  I=0, X=1, Y=2, Z=3.  Index 0 is II.
* Paulis are unnormalized, so the transfer matrix of a channel ``E`` is
  ``R[i, j] = Tr(P_i E(P_j)) / d`` with ``d = 2**n``.  Under this
  convention the transfer matrix of any Clifford unitary is a signed
  permutation matrix with entries in {-1, 0, +1}.
* States are carried as length-``d**2`` real vectors of Pauli
  expectation values ``x[i] = Tr(P_i rho)``; ``x[0] = 1`` for unit
  trace.  Channels act by left multiplication with their transfer
  matrix.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

PAULI_1Q_NAMES = ("I", "X", "Y", "Z")

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_PAULIS_1Q = (I2, SIGMA_X, SIGMA_Y, SIGMA_Z)

UNITARY_ATOL = 1e-10
HERMITIAN_ATOL = 1e-10


@functools.lru_cache(maxsize=None)
def pauli_labels(n_qubits: int) -> tuple[str, ...]:
    """Ordered Pauli label strings, e.g. ("II", "IX", ..., "ZZ") for n=2."""
    return tuple(
        "".join(parts)
        for parts in itertools.product(PAULI_1Q_NAMES, repeat=n_qubits)
    )


@functools.lru_cache(maxsize=None)
def pauli_matrices(n_qubits: int) -> np.ndarray:
    """Stack of the 4**n unnormalized Pauli matrices, shape (4**n, d, d)."""
    mats = list(_PAULIS_1Q)
    for _ in range(n_qubits - 1):
        mats = [np.kron(m, s) for m in mats for s in _PAULIS_1Q]
    out = np.array(mats)
    out.setflags(write=False)
    return out


def assert_unitary(u: np.ndarray) -> None:
    """Raise ValueError if ``u`` is not unitary within UNITARY_ATOL (max
    norm)."""
    u = np.asarray(u)
    dev = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if dev > UNITARY_ATOL:
        raise ValueError(f"matrix is not unitary: max |U†U - I| = {dev:.3e}")


def matexp_hermitian_generator(h: np.ndarray, t: float) -> np.ndarray:
    """Return exp(-i*t*h) for Hermitian ``h`` via eigendecomposition.

    The eigenphases are renormalized to unit modulus so the result is
    unitary to machine precision.  Non-Hermitian input is rejected.
    """
    h = np.asarray(h, dtype=complex)
    dev = np.max(np.abs(h - h.conj().T))
    if dev > HERMITIAN_ATOL:
        raise ValueError(f"generator is not Hermitian: max |H - H†| = {dev:.3e}")
    evals, vecs = np.linalg.eigh(h)
    phases = np.exp(-1j * t * evals)
    phases /= np.abs(phases)
    return (vecs * phases) @ vecs.conj().T


def unitary_to_ptm(u: np.ndarray) -> np.ndarray:
    """Pauli transfer matrix R[i,j] = Tr(P_i U P_j U†)/d of a unitary.

    Supports one- (2x2) and two-qubit (4x4) unitaries.  The result is a
    real orthogonal matrix whose first row is (1, 0, ..., 0).
    """
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    if d not in (2, 4):
        raise ValueError("expected a 2x2 or 4x4 unitary")
    assert_unitary(u)
    n = 1 if d == 2 else 2
    paulis = pauli_matrices(n)
    conj = np.einsum("ab,jbc,dc->jad", u, paulis, u.conj())
    return np.real(np.einsum("iab,jba->ij", paulis, conj)) / d


def kraus_to_ptm(kraus: list[np.ndarray] | tuple[np.ndarray, ...]) -> np.ndarray:
    """Pauli transfer matrix of a channel given by Kraus operators."""
    ops = np.asarray(kraus, dtype=complex)
    d = ops.shape[-1]
    n = 1 if d == 2 else 2
    paulis = pauli_matrices(n)
    conj = np.einsum("kab,jbc,kdc->jad", ops, paulis, ops.conj())
    return np.real(np.einsum("iab,jba->ij", paulis, conj)) / d


def choi_from_ptm(r: np.ndarray) -> np.ndarray:
    """Choi matrix chi = (1/16) * sum_ij R[i,j] * (P_j^T kron P_i).

    The first tensor factor is the (transposed) input space and the
    second the output space.  The channel is completely positive iff
    chi >= 0 and trace preserving iff the partial trace over the output
    factor equals I/4.
    """
    r = np.asarray(r, dtype=float)
    paulis = pauli_matrices(2)
    basis = np.einsum("jab,icd->ijacbd", paulis.transpose(0, 2, 1), paulis)
    basis = basis.reshape(16, 16, 16, 16)
    return np.einsum("ij,ijkl->kl", r, basis) / 16.0


def ptm_from_choi(chi: np.ndarray) -> np.ndarray:
    """Inverse of :func:`choi_from_ptm`: R[i,j] = Tr((P_j^T kron P_i) chi)."""
    chi = np.asarray(chi, dtype=complex)
    paulis = pauli_matrices(2)
    basis = np.einsum("jab,icd->ijacbd", paulis.transpose(0, 2, 1), paulis)
    basis = basis.reshape(16, 16, 16, 16)
    return np.real(np.einsum("ijlk,kl->ij", basis, chi))


def choi_tp_residual(chi: np.ndarray) -> float:
    """Max-norm deviation of the Choi partial trace (over output) from I/4."""
    chi = np.asarray(chi).reshape(4, 4, 4, 4)
    pt = np.einsum("akbk->ab", chi)
    return float(np.max(np.abs(pt - np.eye(4) / 4.0)))


def avg_gate_fidelity(r: np.ndarray, r_ideal: np.ndarray) -> float:
    """Two-qubit average gate fidelity F = (Tr(R_ideal^T R) + 4) / 20,
    the d = 4 case of (Tr(R_ideal^T R) + d) / (d**2 + d).

    No clamping is applied; values outside [0, 1] signal an unphysical
    ``r``.
    """
    tr = float(np.trace(np.asarray(r_ideal).T @ np.asarray(r)))
    return (tr + 4.0) / 20.0


def is_trace_preserving(r: np.ndarray, atol: float = 1e-9) -> bool:
    """Check that the first PTM row is (1, 0, ..., 0) within ``atol``."""
    r = np.asarray(r)
    e0 = np.zeros(r.shape[1])
    e0[0] = 1.0
    return bool(np.max(np.abs(r[0] - e0)) <= atol)


# --- Pauli-vector state helpers -------------------------------------------

def state_00(thermal_pop_1: float = 0.0, thermal_pop_2: float = 0.0) -> np.ndarray:
    """Pauli vector of |00> with optional thermal excited-state mixture.

    Each qubit is prepared in (1-p)|0><0| + p|1><1|, so its Z component
    is 1 - 2p; the two-qubit vector is the Kronecker product of the
    single-qubit vectors (1, 0, 0, 1-2p).
    """
    z1 = 1.0 - 2.0 * thermal_pop_1
    z2 = 1.0 - 2.0 * thermal_pop_2
    v1 = np.array([1.0, 0.0, 0.0, z1])
    v2 = np.array([1.0, 0.0, 0.0, z2])
    return np.kron(v1, v2)


# Outcome projectors for joint Z readout, as Pauli-component selectors:
# p(o1 o2) = (x_II + (-1)^o2 x_IZ + (-1)^o1 x_ZI + (-1)^(o1+o2) x_ZZ) / 4.
OUTCOME_MATRIX = np.zeros((4, 16))
for _o1 in (0, 1):
    for _o2 in (0, 1):
        _row = 2 * _o1 + _o2
        OUTCOME_MATRIX[_row, 0] = 1.0
        OUTCOME_MATRIX[_row, 3] = (-1.0) ** _o2      # IZ
        OUTCOME_MATRIX[_row, 12] = (-1.0) ** _o1     # ZI
        OUTCOME_MATRIX[_row, 15] = (-1.0) ** (_o1 + _o2)  # ZZ
OUTCOME_MATRIX /= 4.0
OUTCOME_MATRIX.setflags(write=False)


def outcome_probabilities(x: np.ndarray) -> np.ndarray:
    """Joint-readout probabilities (p00, p01, p10, p11) of a Pauli vector."""
    return OUTCOME_MATRIX @ np.asarray(x)
