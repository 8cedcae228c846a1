"""Randomized-benchmarking engine.

Covers sequence sampling (with shared-prefix truncations and exact
group inversion), noisy simulation in the Pauli-vector picture, and the
campaign drivers for standard, interleaved, and simultaneous
single-qubit protocols, plus CSV persistence of decay data.

All three protocols run on one engine: the truncations of one random
draw share its prefix, which is propagated once; each truncation is
closed by its exact group inverse and read out through one or more rows
over the outcome probabilities (p00, p01, p10, p11).  The families of a
campaign advance together, one batched product per step.  Simultaneous
RB draws from the subgroup C1 x C1, which the table holds at indices
24*i + j (i on qubit 1, j on qubit 2), so it needs nothing beyond the
Clifford channels the other protocols use.

Two noise models are provided: DeviceNoiseModel builds per-Clifford
channels from circuit layers and the device's T1/T2 (the physical
mode), and InjectedNoiseModel composes a fixed error channel with the
ideal Clifford action (the analytic-oracle mode).  Each hands a
campaign three arrays: the stack of the channels its sequences use, the
interleaved gate's channel and the closing gates' channels.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import device as dev
from . import fit, pauli
from .cliffords import CliffordTable, Circuit, SignedPauliPerm, circuit_perm

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


# channels built per batched product: small blocks keep the build's
# temporaries from adding to a command's peak memory
_BUILD_BLOCK = 64


class _ChannelStack:
    """Clifford channels of a noise model, built on first use.

    A campaign asks for the channels of all its indices at once
    (:meth:`channel_stack`) and gets them built in batches into one
    read-only stack, which the model keeps until a campaign asks for
    another set.  Single channels (:meth:`clifford_channel`) are kept
    for the model's life.  Subclasses provide ``_channels(indices,
    out=None)``: the channels of an index array, written to ``out`` if
    given, or the one channel of a single index, bit for bit as in any
    batch.
    """

    def __init__(self, table: CliffordTable):
        self.table = table
        self._cache: dict[int, np.ndarray] = {}
        self._stack: tuple[np.ndarray, np.ndarray] | None = None

    def clifford_channel(self, index: int) -> np.ndarray:
        ch = self._cache.get(index)
        if ch is None:
            ch = self._channels(index)
            ch.setflags(write=False)
            self._cache[index] = ch
        return ch

    def channel_stack(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """Channels of the distinct ``indices``, stacked in index order,
        and the row of each index (shaped like ``indices``)."""
        unique, rows = np.unique(indices, return_inverse=True)
        rows = rows.reshape(np.shape(indices))
        if self._stack is not None and np.array_equal(self._stack[0], unique):
            return self._stack[1], rows
        self._stack = None  # let the old stack go before the new is built
        stack = np.empty((len(unique), 16, 16))
        for start in range(0, len(unique), _BUILD_BLOCK):
            block = slice(start, start + _BUILD_BLOCK)
            self._channels(unique[block], out=stack[block])
        stack.setflags(write=False)
        self._stack = (unique, stack)
        return stack, rows

    def stacks(self, draws, inversions):
        """(stack, draw rows, inversion stack, inversion rows) of a
        campaign: its Clifford and closing-gate channels.  Closing gates
        are noisy Cliffords, so both come from one stack."""
        stack, rows = self.channel_stack(
            np.concatenate((np.ravel(draws), np.ravel(inversions))))
        split = np.size(draws)
        return (stack, rows[:split].reshape(np.shape(draws)),
                stack, rows[split:].reshape(np.shape(inversions)))


def _time_ordered_product(channels) -> np.ndarray:
    """channels[-1] @ ... @ channels[0], a new C-ordered array."""
    if not channels:
        return np.eye(16)
    r = channels[0]
    for ch in channels[1:]:
        r = ch @ r
    # A one-layer circuit gets a copy of its layer channel, like every
    # product; adding +0.0 turns its -0.0 entries into +0.0, as a
    # product with np.eye(16) would.
    return r if len(channels) > 1 else np.add(r, 0.0, order="C")


class DeviceNoiseModel(_ChannelStack):
    """Per-Clifford channels from circuit layers and device decoherence.

    A Clifford's channel is the time-ordered product of its layers'
    noisy transfer matrices.  The model makes the matrix of every layer
    id once (:func:`device.layer_channels`), then the product of each of
    the table's few distinct circuit heads (``table.head_split``: each
    circuit without its last layer), so every channel is one product,
    its last layer's matrix times its head's.  Only the channels a
    campaign needs are built.  The result is bit for bit
    :meth:`circuit_channel` of the element's circuit.
    """

    def __init__(self, params: dev.DeviceParams, table: CliffordTable):
        super().__init__(table)
        self.params = params
        self._layers: np.ndarray | None = None
        self._heads: np.ndarray | None = None

    def circuit_channel(self, circuit: Circuit) -> np.ndarray:
        """Product of the circuit's :func:`device.gate_channel` matrices,
        the reference for the channels the model builds."""
        return _time_ordered_product(
            [dev.gate_channel(layer, self.params) for layer in circuit])

    def _layer_channels(self) -> np.ndarray:
        if self._layers is None:
            self._layers = dev.layer_channels(self.params, self.table)
        return self._layers

    def _head_channels(self) -> np.ndarray:
        """Channel of each distinct head, folded over its layer ids with
        one batched product per layer position.  Padding is the identity
        layer, and a product with it changes no bit but -0.0 into +0.0,
        as _time_ordered_product does for one-layer circuits."""
        if self._heads is None:
            layers = self._layer_channels()
            heads = self.table.head_split[0]
            acc = layers[heads[:, 0]]
            for column in heads.T[1:]:
                acc = np.matmul(layers[column], acc)
            self._heads = acc
        return self._heads

    def _channels(self, indices, out=None) -> np.ndarray:
        _, head_of, last = self.table.head_split
        return np.matmul(self._layer_channels()[last[indices]],
                         self._head_channels()[head_of[indices]], out=out)

    def interleaved_channel(
        self, index: int, circuit: Circuit | None = None
    ) -> np.ndarray:
        """Channel of the fixed gate; an explicit circuit (for gates the
        device implements more directly than their table decomposition)
        must recompose to the same group element."""
        if circuit is None:
            return self.clifford_channel(index)
        if circuit_perm(circuit) != self.table.elements[index]:
            raise ValueError("override circuit does not implement the gate")
        return self.circuit_channel(circuit)

    def pair_channel(self, i: int, j: int) -> np.ndarray:
        """Channel of simultaneous one-qubit Cliffords (i on qubit 1,
        j on qubit 2): the table element 24*i + j."""
        return self.clifford_channel(24 * i + j)


class InjectedNoiseModel(_ChannelStack):
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
        super().__init__(table)
        self.noise = np.eye(16) if noise is None else np.asarray(noise, float)
        self.gate_noise = (
            None if gate_noise is None else np.asarray(gate_noise, float)
        )
        self.noisy_inversion = noisy_inversion

    def _channels(self, indices, out=None) -> np.ndarray:
        return np.matmul(self.noise, self.table.ptm(indices), out=out)

    def stacks(self, draws, inversions):
        if self.noisy_inversion:
            return super().stacks(draws, inversions)
        stack, rows = self.channel_stack(draws)
        unique, inv_rows = np.unique(inversions, return_inverse=True)
        return (stack, rows, self.table.ptm(unique),
                inv_rows.reshape(np.shape(inversions)))

    def interleaved_channel(
        self, index: int, circuit: Circuit | None = None
    ) -> np.ndarray:
        ideal = self.table.ptm(index)
        if self.gate_noise is None:
            return ideal
        return self.gate_noise @ ideal


# --- sequence sampling -----------------------------------------------------

def _family_rng(seed: int, family: int, stream: int = 0) -> np.random.Generator:
    """Derived generator keyed by (seed, family, stream).

    Stream 0 feeds sequence draws and stream 1 shot noise, so results
    do not depend on whether sampling and simulation happen in the same
    pass.
    """
    return np.random.default_rng(np.random.SeedSequence((seed, family, stream)))


def _inversions(
    table: CliffordTable,
    lengths,
    bases: np.ndarray,
    interleaved: int | None = None,
) -> np.ndarray:
    """Closing gate of every truncation of each row of ``bases`` (one
    family's draw of max(lengths) table indices per row), shape
    (families, lengths).

    All truncations of a family share the prefix of its draw; each
    truncation's closing gate is the exact group inverse of everything
    before it (including any interleaved gate repetitions).  The
    running products of all families advance together, one composition
    per step.
    """
    steps = (bases if interleaved is None
             else table.compose_indices(interleaved, bases))
    running = np.full(len(bases), table.index_of(SignedPauliPerm.identity(2)))
    inversions = np.empty((len(bases), len(lengths)), dtype=np.intp)
    done = 0
    for col, target in enumerate(lengths):
        for t in range(done, target):
            running = table.compose_indices(steps[:, t], running)
        done = target
        inversions[:, col] = table.inverse_indices[running]
    return inversions


def _truncations(
    table: CliffordTable,
    lengths,
    bases: np.ndarray,
    interleaved: int | None = None,
) -> list[tuple[RBSequence, ...]]:
    """The truncations of each row of ``bases`` as RBSequence families
    (see :func:`_inversions`)."""
    inversions = _inversions(table, lengths, bases, interleaved)
    return [
        tuple(RBSequence(tuple(draw[:target]), inv, interleaved)
              for target, inv in zip(lengths, invs))
        for draw, invs in zip(bases.tolist(), inversions.tolist())
    ]


def sample_sequence_family(
    table: CliffordTable,
    lengths,
    rng: np.random.Generator,
    interleaved: int | None = None,
) -> list[RBSequence]:
    """Truncations of one uniform i.i.d. draw of max(lengths) Cliffords."""
    lengths = list(lengths)
    base = rng.integers(0, len(table), size=lengths[-1])
    return list(_truncations(table, lengths, base[None], interleaved)[0])


@functools.lru_cache(maxsize=16)
def _sample_families(
    table: CliffordTable,
    lengths: tuple[int, ...],
    n_sequences: int,
    seed: int,
    interleaved: int | None,
) -> tuple[tuple[RBSequence, ...], ...]:
    bases = np.stack([
        _family_rng(seed, fam).integers(0, len(table), size=lengths[-1])
        for fam in range(n_sequences)
    ])
    return tuple(_truncations(table, lengths, bases, interleaved))


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

# readout rows over (p00, p01, p10, p11)
_P00 = np.array([1.0, 0.0, 0.0, 0.0])      # two-qubit survival
_OBS_Q1 = np.array([1.0, 1.0, 0.0, 0.0])   # qubit 1 ground
_OBS_Q2 = np.array([1.0, 0.0, 1.0, 0.0])   # qubit 2 ground
_OBS_PARITY = np.array([1.0, 0.0, 0.0, 1.0])


def _run_families(cfg, draws, inversions, noise, spam, gate=None,
                  gate_circuit=None, readout=(_P00,)) -> np.ndarray:
    """Readouts of every family, shape (lengths, rows, sequences).

    ``draws`` holds each family's Clifford indices (families, max
    length) and ``inversions`` its closing gates (families, lengths);
    ``gate`` is the interleaved gate's index, if any.  The states of all
    families advance together, one batched product per step, and every
    truncation is closed and read out through ``readout``, rows over
    (p00, p01, p10, p11).  With shots, each entry is one binomial draw,
    family by family, truncation by truncation and row by row.
    """
    stack, draw_rows, inv_stack, inv_rows = noise.stacks(draws, inversions)
    gate_ch = (None if gate is None
               else noise.interleaved_channel(gate, gate_circuit))
    # (families, 16, 1) columns: each product is the matrix-vector
    # product of one family, as in a per-family loop
    x = np.tile(spam.initial_state()[:, None], (len(draws), 1, 1))
    y = np.empty((len(draws), len(cfg.lengths), 16, 1))
    done = 0
    for col, target in enumerate(cfg.lengths):
        for t in range(done, target):
            x = np.matmul(stack[draw_rows[:, t]], x)
            if gate_ch is not None:
                x = np.matmul(gate_ch, x)
        done = target
        y[:, col] = np.matmul(inv_stack[inv_rows[:, col]], x)
    probs = dev.apply_spam(pauli.outcome_probabilities(y), spam)
    out = probs[..., 0] @ np.array(readout).T
    if cfg.shots is not None:
        for fam in range(len(out)):
            rng = _family_rng(cfg.seed, fam, stream=1)
            out[fam] = rng.binomial(cfg.shots,
                                    np.clip(out[fam], 0.0, 1.0)) / cfg.shots
    return np.ascontiguousarray(out.transpose(1, 2, 0))


def _family_arrays(families) -> tuple[np.ndarray, np.ndarray]:
    """(draws, inversions) arrays of sampled families."""
    return (np.array([family[-1].indices for family in families]),
            np.array([[seq.inversion for seq in family]
                      for family in families]))


def run_rb(
    cfg: RBConfig,
    table: CliffordTable,
    noise,
    spam: dev.SpamModel | None = None,
) -> DecayDataset:
    """Standard two-qubit RB campaign."""
    spam = spam or dev.SpamModel.ideal()
    families = sample_sequences(cfg, table)
    survivals = _run_families(cfg, *_family_arrays(families), noise,
                              spam)[:, 0, :]
    return DecayDataset("standard", cfg.seed, tuple(cfg.lengths), survivals,
                        cfg.shots)


def run_interleaved(
    cfg: RBConfig,
    table: CliffordTable,
    noise,
    gate,
    spam: dev.SpamModel | None = None,
    gate_circuit: Circuit | None = None,
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
    survivals = _run_families(cfg, *_family_arrays(families), noise, spam,
                              gate_index, gate_circuit)[:, 0, :]
    return DecayDataset("interleaved", cfg.seed, tuple(cfg.lengths),
                        survivals, cfg.shots)


# --- simultaneous single-qubit RB ------------------------------------------

# twirl variant -> (mask on the (qubit 1, qubit 2) draws, readout rows)
_VARIANTS = {
    "q1": ((1, 0), (_OBS_Q1,)),
    "q2": ((0, 1), (_OBS_Q2,)),
    "both": ((1, 1), (_OBS_Q1, _OBS_Q2, _OBS_PARITY)),
}


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


def run_simultaneous(
    cfg: RBConfig,
    noise,
    spam: dev.SpamModel | None = None,
) -> SimultaneousResult:
    """All three simultaneous-RB variants on one config.

    Each step draws a pair (i, j) of one-qubit Cliffords, the table
    element 24*i + j; the idle qubit's draw is zeroed (the identity)
    in the one-qubit variants.  The same seed is reused per variant so
    the q1/q2 runs see the same random words as the joint run's
    corresponding qubit.  The table is the noise model's.
    """
    spam = spam or dev.SpamModel.ideal()
    stacks: dict[str, np.ndarray] = {}
    for variant, (mask, readout) in _VARIANTS.items():
        draws = np.stack([
            _family_rng(cfg.seed, fam).integers(
                0, 24, size=(cfg.lengths[-1], 2)) * mask
            for fam in range(cfg.n_sequences)
        ])
        bases = 24 * draws[..., 0] + draws[..., 1]
        stacks[variant] = _run_families(
            cfg, bases, _inversions(noise.table, cfg.lengths, bases), noise,
            spam, readout=readout)

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
    noise: DeviceNoiseModel,
    t1_limited: bool = False,
) -> tuple[float, fit.FitResult]:
    """Error per Clifford of exact-probability RB under decoherence alone,
    for the device of ``noise``.

    A closed-form estimate (decay of the transfer-matrix trace over the
    mean circuit duration) is systematically low here: the random frame
    changes between layers mix the fast T2 axes into every Pauli
    direction, so the composed circuits decay faster than a single
    static block of the same length.  Running the actual protocol with
    the stripped-down noise model keeps the limit curve consistent with
    what the simulator reports for a coherently perfect device.

    When stripping changes nothing (a calibrated device without residual
    drive terms, at the measured T2), ``noise`` itself is reused with
    the channels it has already built.
    """
    params = decoherence_only_params(noise.params, t1_limited)
    limit = (noise if params == noise.params
             else DeviceNoiseModel(params, noise.table))
    exact_cfg = dataclasses.replace(cfg, shots=None)
    result = fit_dataset(run_rb(exact_cfg, noise.table, limit))
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
