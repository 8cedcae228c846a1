"""Quantum process tomography on two qubits.

The settings are fixed: the 36 pairs of one-qubit rotations {I, X180,
X90, X-90, Y90, Y-90}, applied to |00> for preparation and before the
computational-basis readout for measurement.  The 36 x 36 setting pairs
with four outcomes each give a 144 x 36 probability matrix.
Reconstruction is linear inversion of the probability matrix,
optionally followed by a projection onto the completely-positive
trace-preserving set in Choi space (alternating Dykstra projections:
eigenvalue clipping for positivity, an affine shift for trace
preservation).
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass

import numpy as np

from . import device as dev
from . import pauli
from .cliffords import pulse_pair_rows, rows_ptm

ROTATION_NAMES = ("I", "X180", "X90", "X-90", "Y90", "Y-90")
N_SETTINGS = len(ROTATION_NAMES) ** 2

PROJECTION_TOL = 1e-10
PROJECTION_MAX_ITERATIONS = 10_000


@functools.lru_cache(maxsize=None)
def _pair_ptms() -> np.ndarray:
    """Read-only (36, 16, 16) stack of the rotation pairs' transfer
    matrices, the first qubit's rotation varying slowest."""
    out = rows_ptm(*pulse_pair_rows(ROTATION_NAMES))
    out.setflags(write=False)
    return out


def preparation_matrix(spam: dev.SpamModel | None = None) -> np.ndarray:
    """Columns are the prepared Pauli vectors, one per rotation pair."""
    spam = spam or dev.SpamModel.ideal()
    # C order: BLAS rounds the products with a transposed view otherwise
    return np.ascontiguousarray((_pair_ptms() @ spam.initial_state()).T)


def measurement_matrix(spam: dev.SpamModel | None = None) -> np.ndarray:
    """Rows map a Pauli vector to outcome probabilities; the row of
    outcome o under measurement setting m is index 4*m + o."""
    spam = spam or dev.SpamModel.ideal()
    readout = spam.confusion.T @ pauli.OUTCOME_MATRIX
    return (readout @ _pair_ptms()).reshape(4 * N_SETTINGS, 16)


@dataclass
class QptData:
    probabilities: np.ndarray  # shape (144, 36)
    shots: int | None
    seed: int


def simulate_qpt(
    channel: np.ndarray,
    spam: dev.SpamModel | None = None,
    shots: int | None = None,
    seed: int = 1234,
) -> QptData:
    """Outcome probabilities of every (preparation, measurement) pair.

    Exact by default; with ``shots`` each setting pair is sampled from
    a multinomial over the four outcomes, all pairs in one draw,
    measurement setting slowest.
    """
    channel = np.asarray(channel, float)
    probs = measurement_matrix(spam) @ channel @ preparation_matrix(spam)
    if shots is not None:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 777)))
        # (measurement, outcome, preparation) blocks
        blocks = np.clip(probs.reshape(N_SETTINGS, 4, N_SETTINGS), 0.0, None)
        blocks = blocks / blocks.sum(axis=1, keepdims=True)
        counts = rng.multinomial(shots, blocks.transpose(0, 2, 1))
        probs = counts.transpose(0, 2, 1).reshape(probs.shape) / shots
    return QptData(probabilities=probs, shots=shots, seed=seed)


def linear_inversion_ptm(
    data: QptData,
    spam: dev.SpamModel | None = None,
) -> np.ndarray:
    """Least-squares estimate of the transfer matrix.

    ``spam`` here is the model *assumed* by the analysis; passing the
    true one removes preparation and readout bias, passing None (ideal)
    folds any such errors into the channel estimate.
    """
    return (np.linalg.pinv(measurement_matrix(spam)) @ data.probabilities
            @ np.linalg.pinv(preparation_matrix(spam)))


# --- CPTP projection ---------------------------------------------------------

@dataclass
class ProjectionResult:
    ptm: np.ndarray
    choi: np.ndarray
    iterations: int
    converged: bool
    min_eigenvalue: float
    tp_residual: float


def _project_psd(chi: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((chi + chi.conj().T) / 2.0)
    vals = np.clip(vals, 0.0, None)
    return (vecs * vals) @ vecs.conj().T


def _project_tp(chi: np.ndarray) -> np.ndarray:
    partial = np.einsum("akbk->ab", chi.reshape(4, 4, 4, 4))
    excess = partial - np.eye(4) / 4.0
    return chi - np.kron(excess, np.eye(4)) / 4.0


def project_cptp(r: np.ndarray) -> ProjectionResult:
    """Nearest (in the alternating-projection sense) CPTP channel.

    Runs Dykstra's scheme between the positive cone and the affine
    trace-preserving set, with the memory term on the cone step only,
    and stops once an iteration moves the Choi matrix by less than
    PROJECTION_TOL in Frobenius norm, or after
    PROJECTION_MAX_ITERATIONS iterations.  The result always ends on the TP
    projection, so the trace constraint holds to machine precision and
    any residual negativity is bounded by the final step size.
    """
    chi = pauli.choi_from_ptm(np.asarray(r, float))
    chi = (chi + chi.conj().T) / 2.0
    correction = np.zeros_like(chi)
    converged = False
    iterations = 0
    for iterations in range(1, PROJECTION_MAX_ITERATIONS + 1):
        psd = _project_psd(chi + correction)
        correction = chi + correction - psd
        chi_next = _project_tp(psd)
        delta = np.linalg.norm(chi_next - chi)
        chi = chi_next
        if delta < PROJECTION_TOL:
            converged = True
            break
    vals = np.linalg.eigvalsh((chi + chi.conj().T) / 2.0)
    return ProjectionResult(
        ptm=np.real(pauli.ptm_from_choi(chi)),
        choi=chi,
        iterations=iterations,
        converged=converged,
        min_eigenvalue=float(vals.min()),
        tp_residual=pauli.choi_tp_residual(chi),
    )


# --- reporting ---------------------------------------------------------------

@dataclass
class QptReport:
    raw_ptm: np.ndarray
    ptm: np.ndarray
    fidelity_raw: float
    fidelity: float
    projection: ProjectionResult
    seed: int


def qpt_report(
    data: QptData,
    ideal: np.ndarray,
    spam: dev.SpamModel | None = None,
) -> QptReport:
    """Invert, project, and score against the intended channel."""
    raw = linear_inversion_ptm(data, spam)
    projection = project_cptp(raw)
    return QptReport(
        raw_ptm=raw,
        ptm=projection.ptm,
        fidelity_raw=pauli.avg_gate_fidelity(raw, ideal),
        fidelity=pauli.avg_gate_fidelity(projection.ptm, ideal),
        projection=projection,
        seed=data.seed,
    )


# --- persistence -------------------------------------------------------------

QPT_CSV_HEADER = ("prep", "meas", "outcome", "probability", "shots", "seed")


def write_qpt_csv(path, data: QptData) -> None:
    shots = "exact" if data.shots is None else data.shots
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(QPT_CSV_HEADER)
        rows, cols = data.probabilities.shape
        for m in range(rows // 4):
            for o in range(4):
                for s in range(cols):
                    writer.writerow(
                        (s, m, o,
                         repr(float(data.probabilities[4 * m + o, s])),
                         shots, data.seed)
                    )


def read_qpt_csv(path) -> QptData:
    """Rebuild tomography data from :func:`write_qpt_csv` output.

    Every (prep, meas, outcome) cell of the square settings grid must
    appear exactly once and all rows must agree on shots and seed;
    otherwise ValueError names the first offending cell or column.
    """
    cells: dict[tuple[int, int, int], float] = {}
    shots_seen: set = set()
    seeds_seen: set = set()
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        missing = set(QPT_CSV_HEADER) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{path}: missing column(s) "
                             f"{', '.join(sorted(missing))}")
        for rec in reader:
            try:
                cell = (int(rec["prep"]), int(rec["meas"]),
                        int(rec["outcome"]))
                value = float(rec["probability"])
                shots_seen.add(None if rec["shots"] == "exact"
                               else int(rec["shots"]))
                seeds_seen.add(int(rec["seed"]))
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"{path}: line {reader.line_num}: {exc}") from None
            if min(cell) < 0 or cell[2] > 3:
                raise ValueError(f"{path}: line {reader.line_num}: "
                                 f"(prep, meas, outcome) = {cell} out of range")
            if cell in cells:
                raise ValueError(f"{path}: duplicate (prep, meas, outcome) "
                                 f"= {cell}")
            cells[cell] = value
    if not cells:
        raise ValueError(f"{path}: no data rows")
    for column, values in (("shots", shots_seen), ("seed", seeds_seen)):
        if len(values) != 1:
            raise ValueError(f"{path}: rows have inconsistent {column} "
                             f"values {sorted(map(str, values))}")
    n = max(max(s, m) for s, m, _ in cells) + 1
    probs = np.empty((4 * n, n))
    for m in range(n):
        for o in range(4):
            for s in range(n):
                try:
                    probs[4 * m + o, s] = cells[s, m, o]
                except KeyError:
                    raise ValueError(
                        f"{path}: missing row (prep, meas, outcome) = "
                        f"({s}, {m}, {o})") from None
    return QptData(probabilities=probs, shots=shots_seen.pop(),
                   seed=seeds_seen.pop())
