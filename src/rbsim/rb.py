"""Randomized-benchmarking engine.

Covers sequence sampling (with shared-prefix truncations and exact
group inversion), noisy simulation in the Pauli-vector picture, and the
campaign drivers for standard, interleaved, and simultaneous
single-qubit protocols, plus CSV persistence of decay data.

Two noise models are provided: DeviceNoiseModel builds per-Clifford
channels from circuit layers and the device's T1/T2 (the physical
mode), and InjectedNoiseModel composes a fixed error channel with the
ideal Clifford action (the analytic-oracle mode).
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import device as dev
from . import fit, pauli
from .cliffords import (
    CliffordTable,
    Circuit,
    SignedPauliPerm,
    c1_elements,
    circuit_perm,
    single_qubit_layer,
)

DEFAULT_LENGTHS = tuple(range(1, 21))


@dataclass(frozen=True)
class RBConfig:
    lengths: tuple[int, ...] = DEFAULT_LENGTHS
    n_sequences: int = 40
    shots: int | None = 1000  # None = exact probabilities
    seed: int = 1234

    def __post_init__(self):
        if len(self.lengths) == 0 or self.lengths[0] < 1:
            raise ValueError("lengths must be positive integers")
        if any(b <= a for a, b in zip(self.lengths, self.lengths[1:])):
            raise ValueError("lengths must be strictly increasing")
        if self.n_sequences < 1:
            raise ValueError("need at least one sequence per length")
        if self.shots is not None and self.shots < 1:
            raise ValueError("shots must be positive (or None for exact mode)")


@dataclass(frozen=True)
class RBSequence:
    """One truncation: Clifford indices, their exact inverse, and the
    interleaved gate index when applicable."""

    indices: tuple[int, ...]
    inversion: int
    interleaved: int | None = None


@dataclass
class DecayDataset:
    protocol: str
    seed: int
    lengths: tuple[int, ...]
    survivals: np.ndarray  # shape (n_lengths, n_sequences)
    shots: int | None

    def means(self) -> np.ndarray:
        return self.survivals.mean(axis=1)

    def stderr(self) -> np.ndarray:
        n = self.survivals.shape[1]
        if n < 2:
            return np.zeros(len(self.lengths))
        return self.survivals.std(axis=1, ddof=1) / math.sqrt(n)


def fit_dataset(ds: DecayDataset, b0: float = 0.25) -> fit.FitResult:
    """Fit the per-length means with sequence-scatter weights."""
    return fit.fit_decay(
        np.asarray(ds.lengths, dtype=float),
        ds.means(),
        fit.regularize_errors(ds.stderr()),
        b0=b0,
    )


# --- noise models ----------------------------------------------------------

def depolarizing_ptm(p: float, n_qubits: int = 2) -> np.ndarray:
    """diag(1, p, ..., p): the isotropic channel with decay p."""
    n = 4 ** n_qubits
    return np.diag([1.0] + [p] * (n - 1))


class DeviceNoiseModel:
    """Per-Clifford channels from circuit layers and device decoherence.

    A Clifford's channel is the time-ordered product of its layers'
    :func:`device.gate_channel` matrices, built on first use and kept
    for the life of the model.  The layer channels themselves are
    shared across models: the decoherence part is cached by duration
    and T1/T2 and the pulse-layer part by the layer alone, so a model
    for fresh device parameters (one tau2 grid point, say) costs only
    the 16x16 products.
    """

    def __init__(self, params: dev.DeviceParams, table: CliffordTable):
        self.params = params
        self.table = table
        self._cache: dict[int, np.ndarray] = {}
        self._pair_cache: dict[tuple[int, int], np.ndarray] = {}

    def circuit_channel(self, circuit: Circuit) -> np.ndarray:
        r = np.eye(16)
        for layer in circuit:
            r = dev.gate_channel(layer, self.params) @ r
        return r

    def clifford_channel(self, index: int) -> np.ndarray:
        ch = self._cache.get(index)
        if ch is None:
            ch = self.circuit_channel(self.table.circuits[index])
            self._cache[index] = ch
        return ch

    def inversion_channel(self, index: int) -> np.ndarray:
        return self.clifford_channel(index)

    def interleaved_channel(
        self, index: int, circuit: Circuit | None = None
    ) -> np.ndarray:
        """Channel of the fixed gate; an explicit circuit (for gates the
        device implements more directly than their table decomposition)
        must recompose to the same group element."""
        if circuit is None:
            circuit = self.table.circuits[index]
        elif circuit_perm(circuit) != self.table.elements[index]:
            raise ValueError("override circuit does not implement the gate")
        return self.circuit_channel(circuit)

    def pair_channel(self, i: int, j: int) -> np.ndarray:
        """Channel of simultaneous one-qubit Cliffords (i on qubit 1,
        j on qubit 2) played as one zipped pulse layer."""
        ch = self._pair_cache.get((i, j))
        if ch is None:
            _, words = c1_elements()
            layer = single_qubit_layer(words[i], words[j])
            if layer is None:
                ch = np.eye(16)
            else:
                ch = dev.gate_channel(layer, self.params)
            self._pair_cache[i, j] = ch
        return ch


class InjectedNoiseModel:
    """Ideal Clifford action followed by a fixed error channel.

    ``gate_noise`` (default: none) applies to the interleaved gate
    instead of the Clifford noise; ``noisy_inversion=False`` makes the
    closing gate ideal, which is what the closed-form oracles assume.
    """

    def __init__(
        self,
        table: CliffordTable,
        noise: np.ndarray | None = None,
        gate_noise: np.ndarray | None = None,
        noisy_inversion: bool = True,
    ):
        self.table = table
        self.noise = np.eye(16) if noise is None else np.asarray(noise, float)
        self.gate_noise = (
            None if gate_noise is None else np.asarray(gate_noise, float)
        )
        self.noisy_inversion = noisy_inversion
        self._cache: dict[int, np.ndarray] = {}
        self._pair_cache: dict[tuple[int, int], np.ndarray] = {}

    def clifford_channel(self, index: int) -> np.ndarray:
        ch = self._cache.get(index)
        if ch is None:
            ch = self.noise @ self.table.elements[index].to_ptm()
            self._cache[index] = ch
        return ch

    def inversion_channel(self, index: int) -> np.ndarray:
        if self.noisy_inversion:
            return self.clifford_channel(index)
        return self.table.elements[index].to_ptm()

    def interleaved_channel(
        self, index: int, circuit: Circuit | None = None
    ) -> np.ndarray:
        ideal = self.table.elements[index].to_ptm()
        if self.gate_noise is None:
            return ideal
        return self.gate_noise @ ideal

    def pair_channel(self, i: int, j: int) -> np.ndarray:
        ch = self._pair_cache.get((i, j))
        if ch is None:
            c1, _ = c1_elements()
            ch = self.noise @ c1[i].tensor(c1[j]).to_ptm()
            self._pair_cache[i, j] = ch
        return ch


def ideal_noise_model(table: CliffordTable) -> InjectedNoiseModel:
    return InjectedNoiseModel(table)


# --- sequence sampling -----------------------------------------------------

def _family_rng(seed: int, family: int, stream: int = 0) -> np.random.Generator:
    """Derived generator keyed by (seed, family, stream).

    Stream 0 feeds sequence draws and stream 1 shot noise, so results
    do not depend on worker scheduling or on whether sampling and
    simulation happen in the same pass.
    """
    return np.random.default_rng(np.random.SeedSequence((seed, family, stream)))


def sample_sequence_family(
    table: CliffordTable,
    lengths,
    rng: np.random.Generator,
    interleaved: int | None = None,
) -> list[RBSequence]:
    """Truncations of one base draw, with exact inversions.

    All truncations share the prefix of a single uniform i.i.d. draw of
    max(lengths) Cliffords; each truncation's closing gate is the exact
    group inverse of everything before it (including any interleaved
    gate repetitions).
    """
    lengths = list(lengths)
    base = rng.integers(0, len(table), size=lengths[-1]).tolist()
    out = []
    running = table.index_of(SignedPauliPerm.identity(2))
    done = 0
    for target in lengths:
        for k in base[done:target]:
            running = table.compose_indices(k, running)
            if interleaved is not None:
                running = table.compose_indices(interleaved, running)
        done = target
        out.append(
            RBSequence(
                indices=tuple(base[:target]),
                inversion=int(table.inverse_indices[running]),
                interleaved=interleaved,
            )
        )
    return out


@functools.lru_cache(maxsize=16)
def _sample_families(
    table: CliffordTable,
    lengths: tuple[int, ...],
    n_sequences: int,
    seed: int,
    interleaved: int | None,
) -> tuple[tuple[RBSequence, ...], ...]:
    return tuple(
        tuple(sample_sequence_family(
            table, lengths, _family_rng(seed, fam), interleaved
        ))
        for fam in range(n_sequences)
    )


def sample_sequences(
    cfg: RBConfig, table: CliffordTable, interleaved: int | None = None
) -> tuple[tuple[RBSequence, ...], ...]:
    """All sequence families of a campaign, deterministic in cfg.seed.

    The draw depends only on (lengths, n_sequences, seed, interleaved)
    and the table, so it is made once per process and shared: the
    campaigns of a tau2 sweep (device run and both decoherence-only
    limits at every grid point) all reuse one set of families.  The
    result is an immutable tuple of tuples for that reason.
    """
    return _sample_families(table, tuple(cfg.lengths), cfg.n_sequences,
                            cfg.seed, interleaved)


# --- simulation ------------------------------------------------------------

def survival_probability(
    seq: RBSequence,
    noise,
    spam: dev.SpamModel,
) -> float:
    """Exact probability of reading 00 after the sequence plus inversion."""
    x = spam.initial_state()
    gate_ch = None
    if seq.interleaved is not None:
        gate_ch = noise.interleaved_channel(seq.interleaved)
    for k in seq.indices:
        x = noise.clifford_channel(k) @ x
        if gate_ch is not None:
            x = gate_ch @ x
    x = noise.inversion_channel(seq.inversion) @ x
    probs = dev.apply_spam(pauli.outcome_probabilities(x), spam)
    return float(probs[0])


def _family_survivals(
    family: tuple[RBSequence, ...],
    noise,
    spam: dev.SpamModel,
    shots: int | None,
    rng: np.random.Generator,
    gate_circuit: Circuit | None,
) -> np.ndarray:
    """Survival per truncation, propagating the shared prefix once."""
    x = spam.initial_state()
    gate_ch = None
    if family[0].interleaved is not None:
        gate_ch = noise.interleaved_channel(family[0].interleaved, gate_circuit)
    done = 0
    out = np.empty(len(family))
    for row, seq in enumerate(family):
        for k in seq.indices[done:]:
            x = noise.clifford_channel(k) @ x
            if gate_ch is not None:
                x = gate_ch @ x
        done = len(seq.indices)
        y = noise.inversion_channel(seq.inversion) @ x
        probs = dev.apply_spam(pauli.outcome_probabilities(y), spam)
        p = float(probs[0])
        if shots is not None:
            p = rng.binomial(shots, min(max(p, 0.0), 1.0)) / shots
        out[row] = p
    return out


def _run_families(cfg, families, noise, spam, gate_circuit, threads):
    def work(item):
        fam_index, family = item
        rng = _family_rng(cfg.seed, fam_index, stream=1)
        return _family_survivals(
            family, noise, spam, cfg.shots, rng, gate_circuit
        )

    items = list(enumerate(families))
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            columns = list(pool.map(work, items))
    else:
        columns = [work(item) for item in items]
    return np.stack(columns, axis=1)


def run_rb(
    cfg: RBConfig,
    table: CliffordTable,
    noise,
    spam: dev.SpamModel | None = None,
    threads: int = 1,
) -> DecayDataset:
    """Standard two-qubit RB campaign."""
    spam = spam or dev.SpamModel.ideal()
    families = sample_sequences(cfg, table)
    survivals = _run_families(cfg, families, noise, spam, None, threads)
    return DecayDataset("standard", cfg.seed, tuple(cfg.lengths), survivals,
                        cfg.shots)


def run_interleaved(
    cfg: RBConfig,
    table: CliffordTable,
    noise,
    gate,
    spam: dev.SpamModel | None = None,
    gate_circuit: Circuit | None = None,
    threads: int = 1,
) -> DecayDataset:
    """Interleaved campaign; ``gate`` is a table index, a signed
    permutation, or a unitary, and must be a Clifford group element."""
    if isinstance(gate, (int, np.integer)):
        gate_index = int(gate)
        if not 0 <= gate_index < len(table):
            raise ValueError("interleaved gate index out of range")
    else:
        if isinstance(gate, np.ndarray):
            gate = SignedPauliPerm.from_unitary(gate)
        gate_index = table.index_of(gate)
    spam = spam or dev.SpamModel.ideal()
    families = sample_sequences(cfg, table, interleaved=gate_index)
    survivals = _run_families(cfg, families, noise, spam, gate_circuit, threads)
    return DecayDataset("interleaved", cfg.seed, tuple(cfg.lengths),
                        survivals, cfg.shots)


# --- simultaneous single-qubit RB ------------------------------------------

VARIANTS = ("q1", "q2", "both")

# observable rows over (p00, p01, p10, p11): marginals and joint parity
_OBS_Q1 = np.array([1.0, 1.0, 0.0, 0.0])   # qubit 1 ground
_OBS_Q2 = np.array([1.0, 0.0, 1.0, 0.0])   # qubit 2 ground
_OBS_PARITY = np.array([1.0, 0.0, 0.0, 1.0])


@dataclass
class SimultaneousResult:
    """Datasets and fits of the three twirl variants.

    alpha1/alpha2 come from benchmarking one qubit while the other
    idles; the joint variant yields the two marginal decays (alpha_1|2,
    alpha_2|1 from p00+p01 and p00+p10) and the parity decay alpha_12
    (from p00+p11), whose mismatch delta = alpha_12 -
    alpha_1|2*alpha_2|1 measures crosstalk.
    """

    datasets: dict[str, DecayDataset]
    fits: dict[str, fit.FitResult] = field(default_factory=dict)

    def delta_alpha(self) -> tuple[float, float]:
        f12 = self.fits["joint_parity"]
        f1 = self.fits["joint_q1"]
        f2 = self.fits["joint_q2"]
        return fit.delta_alpha(
            f12.alpha, f1.alpha, f2.alpha,
            f12.alpha_sigma, f1.alpha_sigma, f2.alpha_sigma,
        )


def _sample_pair_family(lengths, rng, variant: str) -> np.ndarray:
    n = lengths[-1]
    draws = rng.integers(0, 24, size=(n, 2))
    if variant == "q1":
        draws[:, 1] = 0
    elif variant == "q2":
        draws[:, 0] = 0
    return draws


def _simultaneous_family(
    lengths, draws, noise, spam, shots, rng, observables
) -> np.ndarray:
    c1, _ = c1_elements()
    inv_lookup = {e.key: i for i, e in enumerate(c1)}
    x = spam.initial_state()
    acc1 = SignedPauliPerm.identity(1)
    acc2 = SignedPauliPerm.identity(1)
    done = 0
    out = np.empty((len(lengths), len(observables)))
    for row, target in enumerate(lengths):
        for i, j in draws[done:target]:
            x = noise.pair_channel(int(i), int(j)) @ x
            acc1 = c1[i].compose(acc1)
            acc2 = c1[j].compose(acc2)
        done = target
        inv1 = inv_lookup[acc1.inverse().key]
        inv2 = inv_lookup[acc2.inverse().key]
        y = noise.pair_channel(inv1, inv2) @ x
        probs = dev.apply_spam(pauli.outcome_probabilities(y), spam)
        for col, obs in enumerate(observables):
            p = float(obs @ probs)
            if shots is not None:
                p = rng.binomial(shots, min(max(p, 0.0), 1.0)) / shots
            out[row, col] = p
    return out


def run_simultaneous(
    cfg: RBConfig,
    noise,
    spam: dev.SpamModel | None = None,
    threads: int = 1,
) -> SimultaneousResult:
    """All three simultaneous-RB variants on one config.

    The noise model must provide pair_channel(i, j); the same seed is
    reused per variant so the q1/q2 runs see the same random words as
    the joint run's corresponding qubit.
    """
    spam = spam or dev.SpamModel.ideal()
    lengths = list(cfg.lengths)
    plan = {
        "q1": ("q1", (_OBS_Q1,)),
        "q2": ("q2", (_OBS_Q2,)),
        "both": ("both", (_OBS_Q1, _OBS_Q2, _OBS_PARITY)),
    }
    stacks: dict[str, np.ndarray] = {}
    for variant, (tag, observables) in plan.items():
        def work(fam):
            draws = _sample_pair_family(
                lengths, _family_rng(cfg.seed, fam), variant
            )
            shot_rng = _family_rng(cfg.seed, fam, stream=1)
            return _simultaneous_family(
                lengths, draws, noise, spam, cfg.shots, shot_rng, observables
            )

        fams = range(cfg.n_sequences)
        if threads and threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                blocks = list(pool.map(work, fams))
        else:
            blocks = [work(f) for f in fams]
        stacks[variant] = np.stack(blocks, axis=2)  # (lengths, obs, seq)

    def dataset(tag, block):
        return DecayDataset(tag, cfg.seed, tuple(cfg.lengths), block, cfg.shots)

    datasets = {
        "alpha1": dataset("simultaneous_q1", stacks["q1"][:, 0, :]),
        "alpha2": dataset("simultaneous_q2", stacks["q2"][:, 0, :]),
        "joint_q1": dataset("simultaneous_joint_q1", stacks["both"][:, 0, :]),
        "joint_q2": dataset("simultaneous_joint_q2", stacks["both"][:, 1, :]),
        "joint_parity": dataset(
            "simultaneous_joint_parity", stacks["both"][:, 2, :]
        ),
    }
    result = SimultaneousResult(datasets=datasets)
    for key, ds in datasets.items():
        result.fits[key] = fit_dataset(ds, b0=0.5)
    return result


# --- coherence-limit references ---------------------------------------------

def mean_clifford_duration_ns(params: dev.DeviceParams,
                              table: CliffordTable) -> float:
    total = 0.0
    for circuit in table.circuits:
        total += sum(dev.layer_duration_ns(layer, params) for layer in circuit)
    return total / len(table)


def decoherence_only_params(params: dev.DeviceParams,
                            t1_limited: bool = False) -> dev.DeviceParams:
    """Copy of ``params`` with every coherent imperfection stripped.

    The rotation amplitude is recalibrated to an exact ZX_-pi/2 at the
    same segment length and the residual drive terms are zeroed, so the
    only error left is time decoherence.  With ``t1_limited`` both T2
    values are raised to the 2*T1 ceiling, the best the measured
    relaxation times allow.
    """
    clean = dataclasses.replace(params, residual_ix=0.0, residual_zi=0.0)
    if t1_limited:
        clean = dataclasses.replace(
            clean, t2_1_us=2.0 * clean.t1_1_us, t2_2_us=2.0 * clean.t1_2_us
        )
    return clean.with_calibration()


def coherence_limit_r(
    cfg: RBConfig,
    params: dev.DeviceParams,
    table: CliffordTable,
    t1_limited: bool = False,
    threads: int = 1,
) -> tuple[float, fit.FitResult]:
    """Error per Clifford of exact-probability RB under decoherence alone.

    A closed-form estimate (decay of the transfer-matrix trace over the
    mean circuit duration) is systematically low here: the random frame
    changes between layers mix the fast T2 axes into every Pauli
    direction, so the composed circuits decay faster than a single
    static block of the same length.  Running the actual protocol with
    the stripped-down noise model keeps the limit curve consistent with
    what the simulator reports for a coherently perfect device.
    """
    limit = DeviceNoiseModel(decoherence_only_params(params, t1_limited),
                             table)
    exact_cfg = dataclasses.replace(cfg, shots=None)
    result = fit_dataset(run_rb(exact_cfg, table, limit, threads=threads))
    return fit.error_per_clifford(result.alpha), result


# --- persistence -----------------------------------------------------------

CSV_HEADER = ("protocol", "seed", "length", "seq_index", "p00", "shots")


def write_decay_csv(path, datasets) -> None:
    """Long-format decay table; exact-mode rows carry shots='exact'."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for ds in datasets:
            shots = "exact" if ds.shots is None else ds.shots
            for row, length in enumerate(ds.lengths):
                for col in range(ds.survivals.shape[1]):
                    writer.writerow(
                        (ds.protocol, ds.seed, length, col,
                         repr(float(ds.survivals[row, col])), shots)
                    )


def read_decay_csv(path) -> dict[str, DecayDataset]:
    """Rebuild datasets from a decay CSV (exact float round trip).

    Each protocol must have one row for every (length, seq_index) of
    its grid and one shots and one seed value; otherwise ValueError
    names the first missing cell or the inconsistent column.
    """
    cells: dict[str, dict[tuple[int, int], float]] = {}
    shots_of: dict[str, set] = {}
    seed_of: dict[str, set] = {}
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        missing = set(CSV_HEADER) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{path}: missing column(s) "
                             f"{', '.join(sorted(missing))}")
        for rec in reader:
            proto = rec["protocol"]
            try:
                cell = (int(rec["length"]), int(rec["seq_index"]))
                value = float(rec["p00"])
                shots = None if rec["shots"] == "exact" else int(rec["shots"])
                seed = int(rec["seed"])
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"{path}: line {reader.line_num}: {exc}") from None
            if cell[0] < 1 or cell[1] < 0:
                raise ValueError(f"{path}: line {reader.line_num}: "
                                 f"(length, seq_index) = {cell} out of range")
            by_cell = cells.setdefault(proto, {})
            if cell in by_cell:
                raise ValueError(f"{path}: duplicate {proto} row "
                                 f"(length, seq_index) = {cell}")
            by_cell[cell] = value
            shots_of.setdefault(proto, set()).add(shots)
            seed_of.setdefault(proto, set()).add(seed)
    out = {}
    for proto, by_cell in cells.items():
        for column, values in (("shots", shots_of[proto]),
                               ("seed", seed_of[proto])):
            if len(values) != 1:
                raise ValueError(f"{path}: {proto} rows have inconsistent "
                                 f"{column} values {sorted(map(str, values))}")
        lengths = tuple(sorted({length for length, _ in by_cell}))
        n_seq = max(col for _, col in by_cell) + 1
        grid = np.empty((len(lengths), n_seq))
        for r, length in enumerate(lengths):
            for c in range(n_seq):
                try:
                    grid[r, c] = by_cell[length, c]
                except KeyError:
                    raise ValueError(
                        f"{path}: missing {proto} row (length, seq_index) "
                        f"= ({length}, {c})") from None
        out[proto] = DecayDataset(proto, seed_of[proto].pop(), lengths, grid,
                                  shots_of[proto].pop())
    return out
