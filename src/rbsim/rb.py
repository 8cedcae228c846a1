"""Randomized-benchmarking engine.

Covers sequence sampling (with shared-prefix truncations and exact
group inversion), noisy simulation in the Pauli-vector picture, and the
campaign drivers for standard, interleaved, and simultaneous
single-qubit protocols, plus CSV persistence of decay data.

All three protocols run on one engine: the truncations of one random
draw share its prefix, which is propagated once; each truncation is
closed by its exact group inverse and read out through one or more rows
over the outcome probabilities (p00, p01, p10, p11).  The families of a
campaign advance together, one batched product per step.  Propagation
and read-out are two steps, so one chain's closed states can be read
out again: a tau2 sweep point reads its measured-T2 limit out of the
device campaign's chain when the two are the same.  Simultaneous
RB draws from the subgroup C1 x C1, which the table holds at indices
24*i + j (i on qubit 1, j on qubit 2), so it needs nothing beyond the
Clifford channels the other protocols use.

Two noise models are provided: DeviceNoiseModel builds per-Clifford
channels from circuit layers and the device's T1/T2 (the physical
mode), and InjectedNoiseModel composes a fixed error channel with the
ideal Clifford action (the analytic-oracle mode).  A campaign asks a
model for the channels of one step of all its families at a time, one
batched product each, and likewise for each length's closing gates,
which are noisy Cliffords like any other; it keeps none of them.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import device as dev
from . import fit, pauli
from .cliffords import (ZX_LAYER_ID, CliffordTable, Circuit, Layer,
                        SignedPauliPerm, _RowView)

DEFAULT_LENGTHS = tuple(range(1, 21))


@dataclass(frozen=True)
class RBConfig:
    lengths: tuple[int, ...] = DEFAULT_LENGTHS
    n_sequences: int = 40
    shots: int | None = 1000  # None = exact probabilities
    seed: int = 1234

    def __post_init__(self):
        if len(self.lengths) == 0 or self.lengths[0] < 1:
            raise ValueError(
                f"lengths must be positive integers, got {self.lengths}")
        if any(b <= a for a, b in zip(self.lengths, self.lengths[1:])):
            raise ValueError(
                f"lengths must be strictly increasing, got {self.lengths}")
        if self.n_sequences < 1:
            raise ValueError(
                f"n_sequences must be at least 1, got {self.n_sequences}")
        if self.shots is not None and self.shots < 1:
            raise ValueError("shots must be positive (or None for exact "
                             f"mode), got {self.shots}")


@dataclass(frozen=True)
class RBSequence:
    """One truncation: Clifford indices, their exact inverse, and the
    interleaved gate index when applicable.  Made only when a family of
    :func:`sample_sequences` is indexed; campaigns read the arrays."""

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


class _CliffordChannels:
    """Clifford channels of a noise model, built where they are used.

    Subclasses provide ``_channels(indices)``: the channels of an index
    array (shaped ``indices.shape + (16, 16)``) in one batched product,
    or the one channel of a single index, bit for bit as in any batch.
    A campaign builds each step's channels and each length's closing
    gates this way and keeps none of them.
    Single channels (:meth:`clifford_channel`) are kept for the model's
    life.
    """

    def __init__(self, table: CliffordTable):
        self.table = table
        self._cache: dict[int, np.ndarray] = {}

    def clifford_channel(self, index: int) -> np.ndarray:
        ch = self._cache.get(index)
        if ch is None:
            ch = self._channels(index)
            ch.setflags(write=False)
            self._cache[index] = ch
        return ch


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


class DeviceNoiseModel(_CliffordChannels):
    """Per-Clifford channels from circuit layers and device decoherence.

    A Clifford's channel is the time-ordered product of its layers'
    noisy transfer matrices.  The pulse layers' matrices depend only on
    the T1/T2 values and the pulse length, so the model gathers them
    from rows shared by every model with those values
    (:func:`device.pulse_layer_channels`) and keeps only its own
    entangling layer's matrix.  It folds the product of each of the
    table's few distinct circuit heads once (``table.head_split``: each
    circuit without its last layer), so every channel is one product,
    its last layer's matrix times its head's.  Only the channels a
    campaign needs are built.  The result is bit for bit
    :meth:`circuit_channel` of the element's circuit.
    """

    def __init__(self, params: dev.DeviceParams, table: CliffordTable):
        super().__init__(table)
        self.params = params
        self._pulses: np.ndarray | None = None
        self._zx: np.ndarray | None = None
        self._heads: np.ndarray | None = None

    def circuit_channel(self, circuit: Circuit) -> np.ndarray:
        """Product of the circuit's :func:`device.gate_channel` matrices,
        the reference for the channels the model builds."""
        return _time_ordered_product(
            [dev.gate_channel(layer, self.params) for layer in circuit])

    def _layer_channels(self, ids) -> np.ndarray:
        """Channels of the layer ids ``ids``, a new array: a gather from
        the shared pulse rows, with the model's entangling-layer channel
        written where an id is ZX_LAYER_ID.  ``take`` always copies, so
        no index yields a writable view of the shared rows."""
        if self._pulses is None:
            self._pulses = dev.pulse_layer_channels(self.params, self.table)
            self._zx = dev.gate_channel(Layer("zx"), self.params)
        out = self._pulses.take(ids, axis=0)
        zx = ids == ZX_LAYER_ID
        if zx.any():
            out[zx] = self._zx
        return out

    def _head_channels(self) -> np.ndarray:
        """Channel of each distinct head, folded over its layer ids with
        one batched product per layer position.  Padding is the identity
        layer, and a product with it changes no bit but -0.0 into +0.0,
        as _time_ordered_product does for one-layer circuits."""
        if self._heads is None:
            heads = self.table.head_split[0]
            acc = self._layer_channels(heads[:, 0])
            for column in heads.T[1:]:
                acc = np.matmul(self._layer_channels(column), acc)
            self._heads = acc
        return self._heads

    def _channels(self, indices) -> np.ndarray:
        _, head_of, last = self.table.head_split
        return np.matmul(self._layer_channels(last[indices]),
                         self._head_channels()[head_of[indices]])

    def interleaved_channel(self, index: int) -> np.ndarray:
        """Channel of the fixed gate: its table circuit's channel."""
        return self.clifford_channel(index)

    def pair_channel(self, i: int, j: int) -> np.ndarray:
        """Channel of simultaneous one-qubit Cliffords (i on qubit 1,
        j on qubit 2): the table element 24*i + j."""
        return self.clifford_channel(24 * i + j)


class InjectedNoiseModel(_CliffordChannels):
    """Ideal Clifford action followed by a fixed error channel.

    ``gate_noise`` (default: none) applies to the interleaved gate
    instead of the Clifford noise.  The closing gate carries the
    Clifford noise like every other step, so a depolarizing ``noise``
    of decay p gives survival 1/4 + 3/4 * p**(m + 1) at length m.
    """

    def __init__(
        self,
        table: CliffordTable,
        noise: np.ndarray | None = None,
        gate_noise: np.ndarray | None = None,
    ):
        super().__init__(table)
        self.noise = np.eye(16) if noise is None else np.asarray(noise, float)
        self.gate_noise = (
            None if gate_noise is None else np.asarray(gate_noise, float)
        )

    def _channels(self, indices) -> np.ndarray:
        return np.matmul(self.noise, self.table.ptm(indices))

    def interleaved_channel(self, index: int) -> np.ndarray:
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


@functools.lru_cache(maxsize=1024)
def _shot_stream(seed: int, family: int):
    """Shot-noise generator of (seed, family), stream 1, and its initial
    bit-generator state: seeded once per process, not per readout."""
    rng = _family_rng(seed, family, stream=1)
    return rng, rng.bit_generator.state


def _shot_rng(seed: int, family: int) -> np.random.Generator:
    """Shot-noise generator of a family at the start of its stream, as
    freshly seeded: every readout of the family draws the same bits."""
    rng, start = _shot_stream(seed, family)
    rng.bit_generator.state = start
    return rng


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


@functools.lru_cache(maxsize=16)
def _sample_families(
    table: CliffordTable,
    lengths: tuple[int, ...],
    n_sequences: int,
    seed: int,
) -> tuple[np.ndarray, dict[int | None, np.ndarray]]:
    """Read-only draws (families, max length), and a memo of their
    closing gates (families, lengths) keyed by the interleaved gate."""
    draws = np.stack([
        _family_rng(seed, fam).integers(0, len(table), size=lengths[-1])
        for fam in range(n_sequences)
    ])
    draws.setflags(write=False)
    return draws, {}


def _family(lengths, interleaved, draw, inversions):
    """One family's truncations as RBSequence objects."""
    draw = draw.tolist()
    return tuple(RBSequence(tuple(draw[:target]), inv, interleaved)
                 for target, inv in zip(lengths, inversions.tolist()))


def sample_sequences(
    cfg: RBConfig, table: CliffordTable, interleaved: int | None = None
) -> _RowView:
    """All sequence families of a campaign, deterministic in cfg.seed.

    The draw depends only on (lengths, n_sequences, seed) and the table,
    so it is made once per process and shared: the reference and
    interleaved campaigns of one config, and the campaigns of a tau2
    sweep (device run and both decoherence-only limits at every grid
    point), all reuse one set of families, and each interleaved gate's
    closing gates are found once.  The result is a read-only sequence
    over those arrays, ``.arrays`` = (draws, inversions), which is what
    campaigns use; family f, the tuple of its truncations as RBSequence
    objects, is made only when it is indexed, for inspection.
    """
    lengths = tuple(cfg.lengths)
    draws, closings = _sample_families(table, lengths, cfg.n_sequences,
                                       cfg.seed)
    if interleaved not in closings:
        closings[interleaved] = _inversions(table, lengths, draws, interleaved)
        closings[interleaved].setflags(write=False)
    return _RowView(functools.partial(_family, lengths, interleaved),
                    draws, closings[interleaved])


# --- simulation ------------------------------------------------------------

# readout rows over (p00, p01, p10, p11)
_P00 = np.array([1.0, 0.0, 0.0, 0.0])      # two-qubit survival
_OBS_Q1 = np.array([1.0, 1.0, 0.0, 0.0])   # qubit 1 ground
_OBS_Q2 = np.array([1.0, 0.0, 1.0, 0.0])   # qubit 2 ground
_OBS_PARITY = np.array([1.0, 0.0, 0.0, 1.0])


def _propagate(lengths, draws, inversions, noise, state,
               gate=None) -> np.ndarray:
    """Closed states of every truncation, shape (families, lengths, 16,
    1), from the initial Pauli vector ``state``.

    ``draws`` holds each family's Clifford indices (families, max
    length) and ``inversions`` its closing gates (families, lengths);
    ``gate`` is the interleaved gate's index, if any.  The states of all
    families advance together, one batched product per step, and each
    step's channels and each length's closing gates are built where they
    are used, one batched product for all families.
    """
    gate_ch = None if gate is None else noise.interleaved_channel(gate)
    # (families, 16, 1) columns: each product is the matrix-vector
    # product of one family, as in a per-family loop
    x = np.tile(state[:, None], (len(draws), 1, 1))
    closed = np.empty((len(draws), len(lengths), 16, 1))
    done = 0
    for col, target in enumerate(lengths):
        for t in range(done, target):
            x = np.matmul(noise._channels(draws[:, t]), x)
            if gate_ch is not None:
                x = np.matmul(gate_ch, x)
        done = target
        closed[:, col] = np.matmul(noise._channels(inversions[:, col]), x)
    return closed


def _read_out(cfg, closed, spam, readout=(_P00,)) -> np.ndarray:
    """Readouts of the closed states of :func:`_propagate`, shape
    (lengths, rows, sequences): the outcome probabilities (p00, p01,
    p10, p11) through ``spam``'s confusion matrix, then each row of
    ``readout``.  With shots, each entry is one binomial draw, family by
    family, truncation by truncation and row by row, each family's draws
    from the start of its shot stream (:func:`_shot_rng`)."""
    probs = dev.apply_spam(pauli.outcome_probabilities(closed), spam)
    out = probs[..., 0] @ np.array(readout).T
    if cfg.shots is not None:
        p = np.clip(out, 0.0, 1.0)
        counts = np.empty(out.shape, dtype=np.int64)
        for fam in range(len(out)):
            counts[fam] = _shot_rng(cfg.seed, fam).binomial(cfg.shots, p[fam])
        out = counts / cfg.shots
    return np.ascontiguousarray(out.transpose(1, 2, 0))


def _campaign_states(cfg, table, noise, state, gate=None) -> np.ndarray:
    """Closed states of a standard campaign, or of an interleaved one
    with the gate index ``gate``, on its sampled families."""
    draws, inversions = sample_sequences(cfg, table, interleaved=gate).arrays
    return _propagate(cfg.lengths, draws, inversions, noise, state, gate)


def _survivals(protocol, cfg, closed, spam) -> DecayDataset:
    """Two-qubit survival dataset read out of closed states."""
    return DecayDataset(protocol, cfg.seed, tuple(cfg.lengths),
                        _read_out(cfg, closed, spam)[:, 0, :], cfg.shots)


def run_rb(
    cfg: RBConfig,
    table: CliffordTable,
    noise,
    spam: dev.SpamModel | None = None,
) -> DecayDataset:
    """Standard two-qubit RB campaign."""
    spam = spam or dev.SpamModel.ideal()
    closed = _campaign_states(cfg, table, noise, spam.initial_state())
    return _survivals("standard", cfg, closed, spam)


def run_interleaved(
    cfg: RBConfig,
    table: CliffordTable,
    noise,
    gate,
    spam: dev.SpamModel | None = None,
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
    closed = _campaign_states(cfg, table, noise, spam.initial_state(),
                              gate_index)
    return _survivals("interleaved", cfg, closed, spam)


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
    in the one-qubit variants.  Each family's words are drawn once and
    masked per variant, so the q1/q2 runs see the same random words as
    the joint run's corresponding qubit.  The variants' families are
    stacked and propagated as one batch, then each variant's block is
    read out through its own rows.  The table is the noise model's.
    """
    spam = spam or dev.SpamModel.ideal()
    words = np.stack([
        _family_rng(cfg.seed, fam).integers(0, 24, size=(cfg.lengths[-1], 2))
        for fam in range(cfg.n_sequences)
    ])
    bases = np.concatenate([24 * words[..., 0] * m1 + words[..., 1] * m2
                            for (m1, m2), _ in _VARIANTS.values()])
    closed = _propagate(cfg.lengths, bases,
                        _inversions(noise.table, cfg.lengths, bases),
                        noise, spam.initial_state())
    readouts = {variant: _read_out(cfg, block, spam, readout)
                for (variant, (_, readout)), block
                in zip(_VARIANTS.items(), np.split(closed, len(_VARIANTS)))}

    def dataset(tag, block):
        return DecayDataset(tag, cfg.seed, tuple(cfg.lengths), block, cfg.shots)

    datasets = {
        "alpha1": dataset("simultaneous_q1", readouts["q1"][:, 0, :]),
        "alpha2": dataset("simultaneous_q2", readouts["q2"][:, 0, :]),
        "joint_q1": dataset("simultaneous_joint_q1", readouts["both"][:, 0, :]),
        "joint_q2": dataset("simultaneous_joint_q2", readouts["both"][:, 1, :]),
        "joint_parity": dataset(
            "simultaneous_joint_parity", readouts["both"][:, 2, :]
        ),
    }
    result = SimultaneousResult(datasets=datasets)
    for key, ds in datasets.items():
        result.fits[key] = fit_dataset(ds, b0=0.5)
    return result


# --- coherence-limit references ---------------------------------------------

def mean_clifford_duration_ns(params: dev.DeviceParams,
                              table: CliffordTable) -> float:
    """Mean wall-clock length of the table's circuits: the duration of
    each layer id (0 for id 0, no layer) gathered over the circuits."""
    durations = np.array([0.0 if layer is None
                          else dev.layer_duration_ns(layer, params)
                          for layer in table.layers])
    return float(durations[table.layer_ids].sum()) / len(table)


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


def _limit_dataset(cfg: RBConfig, noise: DeviceNoiseModel,
                   t1_limited: bool = False,
                   closed: np.ndarray | None = None) -> DecayDataset:
    """Exact-probability, ideal-SPAM RB dataset under decoherence alone.

    When stripping changes nothing (a calibrated device without residual
    drive terms, at the measured T2), the limit is ``noise``'s own
    chain: ``closed``, the closed states of ``noise``'s campaign from
    the ideal initial state, are read out again if given, and otherwise
    ``noise`` propagates them with the layer and head channels it has
    already built.
    """
    params = decoherence_only_params(noise.params, t1_limited)
    exact_cfg = dataclasses.replace(cfg, shots=None)
    ideal = dev.SpamModel.ideal()
    if params != noise.params:
        noise, closed = DeviceNoiseModel(params, noise.table), None
    if closed is None:
        closed = _campaign_states(exact_cfg, noise.table, noise,
                                  ideal.initial_state())
    return _survivals("standard", exact_cfg, closed, ideal)


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
    """
    result = fit_dataset(_limit_dataset(cfg, noise, t1_limited))
    return fit.error_per_clifford(result.alpha), result


def sweep_point(
    cfg: RBConfig,
    noise: DeviceNoiseModel,
    spam: dev.SpamModel | None = None,
) -> tuple[DecayDataset, DecayDataset, DecayDataset]:
    """Datasets of one tau2 grid point: the device campaign of ``noise``
    and its decoherence-only limits at the measured T2 and at T2 = 2*T1
    (:func:`coherence_limit_r`'s datasets), each chain propagated once.

    The measured-T2 limit is the device's own chain when stripping
    changes nothing and ``spam`` prepares the ideal initial state; it
    then reads the device campaign's closed states out again, exactly
    and with ideal SPAM.  Otherwise (thermal preparation, residual
    drive terms) it propagates its own chain.
    """
    spam = spam or dev.SpamModel.ideal()
    state = spam.initial_state()
    closed = _campaign_states(cfg, noise.table, noise, state)
    shared = (closed if state.tobytes()
              == dev.SpamModel.ideal().initial_state().tobytes() else None)
    return (_survivals("standard", cfg, closed, spam),
            _limit_dataset(cfg, noise, closed=shared),
            _limit_dataset(cfg, noise, t1_limited=True))


# --- persistence -----------------------------------------------------------

CSV_HEADER = ("protocol", "seed", "length", "seq_index", "p00", "shots")


def _csv_fields(*fields) -> str:
    """Two or more fields joined as csv.writer joins them, quoting
    included, without the line terminator."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(fields)
    return buf.getvalue()


def write_decay_csv(path, datasets) -> None:
    """Long-format decay table; exact-mode rows carry shots='exact'.
    The bytes are csv.writer's, each survival as its float repr; the
    rows are formatted from Python floats and written at once."""
    lines = [_csv_fields(*CSV_HEADER)]
    for ds in datasets:
        head = _csv_fields(ds.protocol, ds.seed)
        shots = "exact" if ds.shots is None else ds.shots
        rows = np.asarray(ds.survivals, dtype=float).tolist()
        for length, row in zip(ds.lengths, rows):
            lines += [f"{head},{length},{col},{value!r},{shots}"
                      for col, value in enumerate(row)]
    lines.append("")
    with open(path, "w", newline="") as handle:
        handle.write(csv.excel.lineterminator.join(lines))


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
