"""Sequence sampling, noisy simulation, and the campaign drivers.

The closed-form oracles here lean on depolarizing noise, where the
survival curve is known exactly: 0.25 + 0.75 * p**i after i Cliffords
when the inversion is ideal, with one extra factor of p when it is not.
"""

import csv
import dataclasses
import hashlib
import io
import tracemalloc

import numpy as np
import pytest

from rbsim import device as dev
from rbsim import fit, pauli, rb
from rbsim.cliffords import (
    ZX_LAYER_ID,
    ZX_UNITARY,
    clifford_table,
    twirl_ptm,
    zx_perm,
)


@pytest.fixture(scope="module")
def table():
    return clifford_table()


def _small_cfg(**kw):
    base = dict(lengths=(1, 2, 3, 5, 8), n_sequences=4, shots=None, seed=7)
    base.update(kw)
    return rb.RBConfig(**base)


# --- config and sampling ---------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        rb.RBConfig(lengths=(3, 2))
    with pytest.raises(ValueError):
        rb.RBConfig(lengths=(0, 1))
    with pytest.raises(ValueError):
        rb.RBConfig(lengths=())
    with pytest.raises(ValueError):
        rb.RBConfig(n_sequences=0)
    with pytest.raises(ValueError):
        rb.RBConfig(shots=0)


def _closes(table, draw, inversion, gate=None):
    """Whether ``inversion`` undoes ``draw`` (each step followed by
    ``gate``, if any)."""
    # signed permutation matrices multiply exactly in floating point
    acc = np.eye(16)
    for k in draw:
        acc = table.ptm(k) @ acc
        if gate is not None:
            acc = table.ptm(gate) @ acc
    return np.array_equal(table.ptm(inversion) @ acc, np.eye(16))


def test_truncations_share_prefix(table):
    """Each truncation's closing gate depends only on its prefix of the
    family's one draw."""
    base = np.random.default_rng(3).integers(0, len(table), size=9)
    inversions = rb._inversions(table, (1, 4, 9), base[None])
    assert inversions.shape == (1, 3)
    for col, target in enumerate((1, 4, 9)):
        alone = rb._inversions(table, (target,), base[None, :target])
        assert alone[0, 0] == inversions[0, col]


def test_inversion_closes_to_identity(table):
    base = np.random.default_rng(5).integers(0, len(table), size=6)
    inversions = rb._inversions(table, (2, 6), base[None])[0]
    for target, inv in zip((2, 6), inversions):
        assert _closes(table, base[:target], inv)


def test_interleaved_inversion_includes_gate(table):
    gate = table.index_of(zx_perm())
    base = np.random.default_rng(11).integers(0, len(table), size=4)
    inversions = rb._inversions(table, (3, 4), base[None], interleaved=gate)
    for target, inv in zip((3, 4), inversions[0]):
        assert _closes(table, base[:target], inv, gate)
        assert not _closes(table, base[:target], inv)


def test_sampling_is_deterministic_in_seed(table):
    cfg = _small_cfg()
    a = rb.sample_sequences(cfg, table).arrays
    rb._sample_families.cache_clear()  # draw again rather than recall
    b = rb.sample_sequences(cfg, table).arrays
    assert all(np.array_equal(x, y) and x is not y for x, y in zip(a, b))
    c = rb.sample_sequences(_small_cfg(seed=8), table).arrays
    assert not np.array_equal(a[0], c[0])


def test_sampling_is_shared_across_campaigns(table):
    cfg = _small_cfg(seed=19)
    draws, inversions = rb.sample_sequences(cfg, table).arrays
    assert draws.shape == (4, 8) and inversions.shape == (4, 5)
    assert not draws.flags.writeable and not inversions.flags.writeable
    # shots do not enter the draw, so exact and sampled runs share it
    shared = rb.sample_sequences(_small_cfg(seed=19, shots=100), table).arrays
    assert shared[0] is draws and shared[1] is inversions
    # an interleaved campaign draws the same words and closes them
    # differently
    gate = table.index_of(zx_perm())
    words, closing = rb.sample_sequences(cfg, table, interleaved=gate).arrays
    assert words is draws
    assert not np.array_equal(closing, inversions)


def test_long_draw_holds_arrays_only(table):
    """A lengths 1-200 x 100 draw keeps its two index arrays (~0.3 MiB),
    not a tuple prefix per truncation (~19 MiB)."""
    cfg = rb.RBConfig(lengths=tuple(range(1, 201)), n_sequences=100)
    rb.sample_sequences(_small_cfg(seed=23), table)  # warm numpy.random
    rb._sample_families.cache_clear()
    tracemalloc.start()
    try:
        families = rb.sample_sequences(cfg, table)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(families) == 100
    assert held < 2**20


def test_campaigns_build_no_sequence_objects(table, monkeypatch):
    class Unbuildable:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a campaign built an RBSequence")

    monkeypatch.setattr(rb, "RBSequence", Unbuildable)
    rb._sample_families.cache_clear()
    cfg = _small_cfg(seed=29)
    noise = rb.InjectedNoiseModel(table, rb.depolarizing_ptm(0.9))
    assert rb.run_rb(cfg, table, noise).survivals.shape == (5, 4)
    gate = table.index_of(zx_perm())
    assert rb.run_interleaved(cfg, table, noise, gate).survivals.shape \
        == (5, 4)


# --- exact-mode simulation oracles -----------------------------------------

def _assert_cells(survivals, expected):
    """Every (length, sequence) cell against a per-length closed form."""
    np.testing.assert_allclose(
        survivals, np.broadcast_to(expected, survivals.shape),
        rtol=0, atol=1e-12,
    )


def test_noiseless_survival_is_one(table):
    cfg = _small_cfg(lengths=(1, 5, 12), seed=2)
    ds = rb.run_rb(cfg, table, rb.InjectedNoiseModel(table))
    _assert_cells(ds.survivals, 1.0)


def test_depolarizing_closed_form(table):
    p = 0.9
    cfg = _small_cfg(lengths=(1, 2, 3, 5), seed=9)
    m = np.array(cfg.lengths)[:, None]
    noise = rb.InjectedNoiseModel(table, rb.depolarizing_ptm(p))
    # m noisy Cliffords and the noisy closing gate
    _assert_cells(rb.run_rb(cfg, table, noise).survivals,
                  0.25 + 0.75 * p ** (m + 1))


def test_fitted_alpha_matches_depolarizing_p(table):
    cfg = rb.RBConfig(lengths=tuple(range(1, 11)), n_sequences=3, shots=None,
                      seed=21)
    for p in (0.999, 0.9):
        noise = rb.InjectedNoiseModel(table, rb.depolarizing_ptm(p))
        ds = rb.run_rb(cfg, table, noise)
        result = rb.fit_dataset(ds)
        assert result.converged
        assert result.alpha == pytest.approx(p, abs=1e-9)
        # depolarizing noise commutes with everything: zero scatter
        assert np.ptp(ds.survivals, axis=1).max() < 1e-12


def test_single_step_average_equals_twirl(table):
    """Mean survival over every length-1 sequence matches the
    depolarizing parameter of the twirled channel: (1 + 3*alpha)/4."""
    rot = pauli.unitary_to_ptm(
        pauli.matexp_hermitian_generator(
            np.kron(pauli.SIGMA_X, pauli.SIGMA_Z), 0.07
        )
    )
    decoh = dev.decoherence_channel(30.0, 20.0, 300.0).ptm()
    channel = decoh @ rot
    alpha = (np.trace(twirl_ptm(channel, table)) - 1.0) / 15.0

    x0 = pauli.state_00()
    perms = table.perm_array
    signs = table.sign_array
    y = np.zeros((len(table), 16))
    np.put_along_axis(y, perms, signs * x0[None, :], axis=1)
    z = y @ channel.T
    w = signs * np.take_along_axis(z, perms, axis=1)
    p00 = w[:, [0, 3, 12, 15]].sum(axis=1) / 4.0
    assert abs(p00.mean() - (0.25 + 0.75 * alpha)) < 1e-10


def test_spam_leaves_alpha_nearly_unchanged(table):
    channel = dev.device_decoherence_channel(dev.DeviceParams(), 420.0).ptm()
    noise = rb.InjectedNoiseModel(table, channel)
    cfg = rb.RBConfig(lengths=tuple(range(1, 16, 2)), n_sequences=8,
                      shots=None, seed=13)
    alpha_ideal = rb.fit_dataset(rb.run_rb(cfg, table, noise)).alpha
    spam = dev.SpamModel.symmetric(thermal=0.01, misassignment=0.02)
    alpha_spam = rb.fit_dataset(rb.run_rb(cfg, table, noise, spam)).alpha
    assert abs(alpha_ideal - alpha_spam) < 1e-3


# --- campaign mechanics -----------------------------------------------------

def test_shot_sampling_statistics(table):
    p = 0.95
    cfg = rb.RBConfig(lengths=(1, 3, 6), n_sequences=30, shots=400, seed=5)
    noise = rb.InjectedNoiseModel(table, rb.depolarizing_ptm(p))
    ds = rb.run_rb(cfg, table, noise)
    counts = ds.survivals * 400
    assert np.allclose(counts, np.round(counts), atol=1e-9)
    exact = 0.25 + 0.75 * p ** (np.array(ds.lengths) + 1)
    # binomial sigma of the mean over 30 sequences of 400 shots
    sigma = np.sqrt(exact * (1 - exact) / (400 * 30))
    assert np.all(np.abs(ds.means() - exact) < 5 * sigma + 1e-12)


_ROWS = (rb._OBS_Q1, rb._OBS_Q2, rb._OBS_PARITY)


def _closed_states(table, cfg):
    noise = rb.InjectedNoiseModel(table, rb.depolarizing_ptm(0.95))
    draws, inversions = rb.sample_sequences(cfg, table).arrays
    return rb._propagate(cfg.lengths, draws, inversions, noise,
                         dev.SpamModel.ideal().initial_state())


def _fresh_stream_readout(cfg, closed, rows):
    """Shot readout with each family's stream freshly seeded, the
    reference for the streams kept across readouts."""
    spam = dev.SpamModel.ideal()
    exact = rb._read_out(dataclasses.replace(cfg, shots=None), closed, spam,
                         rows)
    out = np.empty_like(exact)
    for fam in range(exact.shape[2]):
        rng = rb._family_rng(cfg.seed, fam, stream=1)
        out[:, :, fam] = rng.binomial(
            cfg.shots, np.clip(exact[:, :, fam], 0.0, 1.0)) / cfg.shots
    return out


def test_shot_readouts_draw_as_freshly_seeded_streams(table):
    """A family's shot stream is seeded once per process, and every
    readout restarts it: repeated readouts, with a readout at another
    seed in between, draw the bits of a freshly seeded generator."""
    cfg = _small_cfg(shots=100, seed=71)
    other = dataclasses.replace(cfg, seed=72)
    closed = _closed_states(table, cfg)
    spam = dev.SpamModel.ideal()
    expected = _fresh_stream_readout(cfg, closed, _ROWS)
    first = rb._read_out(cfg, closed, spam, _ROWS)
    between = rb._read_out(other, closed, spam, _ROWS)
    again = rb._read_out(cfg, closed, spam, _ROWS)
    assert first.tobytes() == expected.tobytes() == again.tobytes()
    assert between.tobytes() == _fresh_stream_readout(
        other, closed, _ROWS).tobytes()
    assert between.tobytes() != first.tobytes()
    # fewer rows draw a prefix of each family's stream, from its start
    single = rb._read_out(cfg, closed, spam, (rb._P00,))
    assert single.tobytes() == _fresh_stream_readout(
        cfg, closed, (rb._P00,)).tobytes()


def test_shot_stream_cache_is_bounded(table):
    """Readouts at many seeds keep at most maxsize streams, and a stream
    evicted and seeded again still draws from its start."""
    limit = rb._shot_stream.cache_info().maxsize
    cfg = _small_cfg(shots=50, seed=0)
    closed = _closed_states(table, cfg)
    spam = dev.SpamModel.ideal()
    first = rb._read_out(cfg, closed, spam)
    for seed in range(1, limit // cfg.n_sequences + 2):
        rb._read_out(dataclasses.replace(cfg, seed=seed), closed, spam)
    assert rb._shot_stream.cache_info().currsize == limit
    assert rb._read_out(cfg, closed, spam).tobytes() == first.tobytes()


def test_device_noise_model_matches_layerwise_product(table):
    params = dev.DeviceParams()
    noise = rb.DeviceNoiseModel(params, table)
    idx = 4321
    expected = np.eye(16)
    for layer in table.circuits[idx]:
        expected = dev.gate_channel(layer, params) @ expected
    np.testing.assert_allclose(noise.clifford_channel(idx), expected)
    assert noise.clifford_channel(idx) is noise.clifford_channel(idx)


def test_circuit_channel_equals_identity_started_product(table):
    """Starting from the first layer rather than np.eye(16) changes no
    bit: empty, one-layer (class 1) and longer circuits.  The model
    hands out its kept channels read-only."""
    params = dev.DeviceParams().with_calibration()
    noise = rb.DeviceNoiseModel(params, table)
    for idx in (0, 1, 300, 575, 576, 4321, 11519):
        expected = np.eye(16)
        for layer in table.circuits[idx]:
            expected = dev.gate_channel(layer, params) @ expected
        got = noise.clifford_channel(idx)
        assert got.tobytes() == expected.tobytes()
        assert got.flags.c_contiguous and not got.flags.writeable


@pytest.mark.parametrize("params", [
    dev.DeviceParams(),
    rb.decoherence_only_params(dev.DeviceParams(), t1_limited=True),
    dev.DeviceParams(residual_ix=0.01),
    dev.DeviceParams().with_calibration(1e-9),
], ids=["default", "t1_limited", "residual_ix", "tau2_zero"])
def test_built_channels_equal_circuit_channel_bit_for_bit(table, params):
    """The batched product over layer and head channels reproduces the
    gate_channel product of every element's circuit, whether it is asked
    for one index, a step's column of indices or a 2-D block of them."""
    noise = rb.DeviceNoiseModel(params, table)
    expected = np.stack([noise.circuit_channel(c) for c in table.circuits])
    everything = np.arange(len(table))
    assert (noise._channels(everything[::-1]).tobytes()
            == expected[::-1].tobytes())
    # a (steps, families) block read as (families, steps), as the engine
    # reads its draws, non-contiguous
    block = everything.reshape(-1, 40).T
    assert (noise._channels(block).tobytes()
            == expected.reshape(-1, 40, 16, 16).transpose(1, 0, 2, 3)
            .tobytes())
    assert np.stack([noise._channels(k)
                     for k in everything]).tobytes() == expected.tobytes()
    single = rb.DeviceNoiseModel(params, table)
    assert np.stack([single.clifford_channel(k)
                     for k in everything]).tobytes() == expected.tobytes()


def test_campaign_keeps_no_channel_stack(table):
    """A default campaign builds each step's channels where it uses them:
    with the layer and head channels and the draw already made, it peaks
    far below the ~3 MB that a stack of its ~1,500 channels would take."""
    cfg = rb.RBConfig()
    noise = rb.DeviceNoiseModel(dev.DeviceParams(), table)
    noise._head_channels()
    rb.sample_sequences(cfg, table)
    np.random.default_rng(0)  # the first call imports numpy.random
    tracemalloc.start()
    try:
        rb.run_rb(cfg, table, noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _survival_hash(ds):
    return hashlib.sha256(ds.survivals.tobytes() + ds.means().tobytes()
                          + ds.stderr().tobytes()).hexdigest()


def test_campaigns_match_reference_hashes(table):
    """sha256 of survivals, per-length means and standard errors of
    device campaigns with SPAM, computed with one matrix-vector product
    per family and step; the batched engine reproduces them exactly."""
    gate = table.index_of(zx_perm())
    spam = dev.SpamModel.symmetric(thermal=0.01, misassignment=0.02)
    got = {}
    for shots in (None, 1000):
        cfg = rb.RBConfig(shots=shots, seed=1234)
        noise = rb.DeviceNoiseModel(dev.DeviceParams(), table)
        got["standard", shots] = _survival_hash(
            rb.run_rb(cfg, table, noise, spam))
        got["interleaved", shots] = _survival_hash(
            rb.run_interleaved(cfg, table, noise, gate, spam))
        result = rb.run_simultaneous(cfg, noise, spam)
        for key, ds in result.datasets.items():
            got[key, shots] = _survival_hash(ds)
    assert got == {
        ("standard", None): "cc5f6042d46a6e49a337573c7d728996"
                            "e09da68c6feaa854816086974db32872",
        ("interleaved", None): "524aab3a2b4e331b1210393bfcb2aecf"
                               "d8fd82cd82f2f52d34356e297c042279",
        ("alpha1", None): "548876bedf2b5b7eb2707562370bde27"
                          "8a4953b912f281c3556c909fdca61980",
        ("alpha2", None): "d85107d44aba7e8a7ca32e6fa6477617"
                          "32acd922f68862eb71e85476ebe944a9",
        ("joint_q1", None): "30353151d7d661ceb7645ac96b1e38fc"
                            "6526b0da44818b9d3e7d70793f52f00a",
        ("joint_q2", None): "eb71787d6db86c83fac528308ad10a45"
                            "90b8cad3ca76e5ca1d31b9f62bf319d5",
        ("joint_parity", None): "13dff88ce27b8e71594bd8228e4bcafe"
                                "83615762de7ba5bd6a2a6678557eb71c",
        ("standard", 1000): "5fd13b57820b3c29cdfbb1e8fed7f451"
                            "85af91542fa9bbec36198f1f5794c746",
        ("interleaved", 1000): "838af60aeac25eea828fbbb2224992f2"
                               "101bad2c33f1bbaf963037ea4a9438bc",
        ("alpha1", 1000): "de5f75eb2a5c38eb74b88cff95c39f6b"
                          "b57f7ada6b99abafa6ad44ba78ec9637",
        ("alpha2", 1000): "0fbbc4d0fc8e227df7304f4eca4e43b3"
                          "cde8ee29e080bd4cd6e594c758f8b0b2",
        ("joint_q1", 1000): "efcb4adc2376a49a446831d175c488a7"
                            "92e26f508794175dbfe2bf729d0f6368",
        ("joint_q2", 1000): "2634dd7acb8ac300a87bedf465eb8402"
                            "11a3181faed33beb4d7c5cf5010ecada",
        ("joint_parity", 1000): "47c126f5ce853f234a444249c3e9f811"
                                "ef6ccd068b1c8c06f3255ddf213a9a21",
    }


def test_coherence_limit_reuses_an_unchanged_model(table, monkeypatch):
    """The measured-T2 limit of a calibrated device runs on the device
    model's own head channels; the 2*T1 limit builds its own model,
    whose pulse rows are made for its T1/T2 set."""
    cfg = _small_cfg(n_sequences=3)
    params = dev.DeviceParams().with_calibration()
    assert rb.decoherence_only_params(params) == params
    folds = []
    head_channels = rb.DeviceNoiseModel._head_channels

    def counting(model):
        if model._heads is None:
            folds.append(model.params)
        return head_channels(model)

    monkeypatch.setattr(rb.DeviceNoiseModel, "_head_channels", counting)
    for t1_limited in (False, True):
        dev._pulse_rows.cache_clear()
        noise = rb.DeviceNoiseModel(params, table)
        rb.run_rb(cfg, table, noise)
        folds.clear()
        r, result = rb.coherence_limit_r(cfg, noise, t1_limited=t1_limited)
        assert len(folds) == t1_limited
        assert dev._pulse_rows.cache_info().misses == 1 + t1_limited
        fresh = rb.DeviceNoiseModel(
            rb.decoherence_only_params(params, t1_limited), table)
        expected = rb.fit_dataset(rb.run_rb(cfg, table, fresh))
        assert result == expected
        assert r == fit.error_per_clifford(expected.alpha)


@pytest.mark.parametrize("params, spam", [
    (dev.DeviceParams(), None),
    (dev.DeviceParams(), dev.SpamModel.symmetric(thermal=0.0,
                                                 misassignment=0.03)),
    (dev.DeviceParams(), dev.SpamModel.symmetric(thermal=0.03,
                                                 misassignment=0.02)),
    (dev.DeviceParams(residual_ix=0.02), None),
], ids=["ideal", "misassignment", "thermal", "residual_ix"])
def test_sweep_point_equals_separate_campaigns(table, monkeypatch, params,
                                               spam):
    """A sweep point's datasets equal the device campaign and both
    coherence_limit_r datasets bit for bit, and it propagates the
    measured-T2 limit only when that is not the device's own chain."""
    cfg = _small_cfg(shots=100)
    calls = []
    propagate = rb._propagate
    monkeypatch.setattr(rb, "_propagate",
                        lambda *a, **k: calls.append(1) or propagate(*a, **k))
    device_ds, limit_t2, limit_2t1 = rb.sweep_point(
        cfg, rb.DeviceNoiseModel(params, table), spam)
    own_chain = (params.residual_ix == 0.0
                 and (spam is None or spam.thermal_pop_1 == 0.0))
    assert len(calls) == (2 if own_chain else 3)
    noise = rb.DeviceNoiseModel(params, table)
    expected = rb.run_rb(cfg, table, noise, spam)
    assert _survival_hash(device_ds) == _survival_hash(expected)
    for ds, t1_limited in ((limit_t2, False), (limit_2t1, True)):
        assert ds.shots is None
        r, result = rb.coherence_limit_r(cfg, noise, t1_limited)
        assert rb.fit_dataset(ds) == result
        assert fit.error_per_clifford(rb.fit_dataset(ds).alpha) == r


def test_clifford_channels_leave_the_shared_pulse_rows_unchanged(table):
    params = dev.DeviceParams()
    rows = dev.pulse_layer_channels(params, table)
    before = rows.tobytes()
    ends_in_zx = int(np.flatnonzero(table.head_split[2] == ZX_LAYER_ID)[0])
    noise = rb.DeviceNoiseModel(params, table)
    for k in (len(table) - 1, ends_in_zx):
        channel = noise.clifford_channel(k)
        assert channel.tobytes() == noise.circuit_channel(
            table.circuits[k]).tobytes()
    noise._channels(np.array([ends_in_zx, 3]))
    assert dev.pulse_layer_channels(params, table) is rows
    assert rows.tobytes() == before
    assert not rows.flags.writeable


# --- interleaved ------------------------------------------------------------

def test_interleaved_depolarizing_oracle(table):
    p_c, p_g = 0.98, 0.95
    cfg = rb.RBConfig(lengths=tuple(range(1, 9)), n_sequences=3, shots=None,
                      seed=23)
    noise = rb.InjectedNoiseModel(
        table, rb.depolarizing_ptm(p_c), gate_noise=rb.depolarizing_ptm(p_g)
    )
    gate = table.index_of(zx_perm())
    ref = rb.fit_dataset(rb.run_rb(cfg, table, noise))
    inter = rb.fit_dataset(rb.run_interleaved(cfg, table, noise, gate))
    assert ref.alpha == pytest.approx(p_c, abs=1e-9)
    assert inter.alpha == pytest.approx(p_c * p_g, abs=1e-9)
    est = fit.interleaved_error(ref.alpha, inter.alpha)
    assert est.r_c == pytest.approx(0.75 * (1 - p_g), abs=1e-9)


def test_interleaved_gate_forms(table):
    cfg = rb.RBConfig(lengths=(1, 2), n_sequences=2, shots=None, seed=3)
    noise = rb.InjectedNoiseModel(table)
    by_index = rb.run_interleaved(cfg, table, noise, table.index_of(zx_perm()))
    by_perm = rb.run_interleaved(cfg, table, noise, zx_perm())
    by_unitary = rb.run_interleaved(cfg, table, noise, np.asarray(ZX_UNITARY))
    np.testing.assert_array_equal(by_index.survivals, by_perm.survivals)
    np.testing.assert_array_equal(by_index.survivals, by_unitary.survivals)


def test_interleaved_rejects_non_clifford(table):
    cfg = rb.RBConfig(lengths=(1, 2), n_sequences=1, shots=None, seed=3)
    noise = rb.InjectedNoiseModel(table)
    t_gate = np.kron(np.diag([1.0, np.exp(1j * np.pi / 4)]), np.eye(2))
    with pytest.raises(ValueError):
        rb.run_interleaved(cfg, table, noise, t_gate)
    with pytest.raises(ValueError):
        rb.run_interleaved(cfg, table, noise, len(table))


# --- simultaneous single-qubit RB -------------------------------------------

def test_simultaneous_product_depolarizing(table):
    p1, p2 = 0.97, 0.99
    noise = rb.InjectedNoiseModel(
        table,
        np.kron(rb.depolarizing_ptm(p1, 1), rb.depolarizing_ptm(p2, 1)),
    )
    cfg = rb.RBConfig(lengths=tuple(range(1, 9)), n_sequences=3, shots=None,
                      seed=29)
    result = rb.run_simultaneous(cfg, noise)
    assert result.fits["alpha1"].alpha == pytest.approx(p1, abs=1e-9)
    assert result.fits["alpha2"].alpha == pytest.approx(p2, abs=1e-9)
    assert result.fits["joint_q1"].alpha == pytest.approx(p1, abs=1e-9)
    assert result.fits["joint_q2"].alpha == pytest.approx(p2, abs=1e-9)
    assert result.fits["joint_parity"].alpha == pytest.approx(p1 * p2,
                                                              abs=1e-9)
    delta, _ = result.delta_alpha()
    assert abs(delta) < 1e-9


def test_simultaneous_marginal_closed_form(table):
    """Under kron(D(p1), D(p2)) qubit 1's marginal survival is
    0.5 + 0.5 * p1**(m + 1): m noisy steps and the noisy closing gate."""
    p1, p2 = 0.97, 0.99
    channel = np.kron(rb.depolarizing_ptm(p1, 1), rb.depolarizing_ptm(p2, 1))
    cfg = _small_cfg(seed=29)
    m = np.array(cfg.lengths)[:, None]
    result = rb.run_simultaneous(cfg, rb.InjectedNoiseModel(table, channel))
    _assert_cells(result.datasets["joint_q1"].survivals,
                  0.5 + 0.5 * p1 ** (m + 1))


def test_simultaneous_correlated_depolarizing(table):
    """Global (correlated) depolarizing decays every Pauli by the same
    factor c, so the parity exceeds the product: delta = c - c**2."""
    c = 0.98
    noise = rb.InjectedNoiseModel(table, rb.depolarizing_ptm(c))
    cfg = rb.RBConfig(lengths=tuple(range(1, 8)), n_sequences=3, shots=None,
                      seed=31)
    result = rb.run_simultaneous(cfg, noise)
    delta, _ = result.delta_alpha()
    assert delta == pytest.approx(c - c * c, abs=1e-9)


def test_simultaneous_device_noise_runs(table):
    """One-qubit decays are shallow, so the campaign needs long
    sequences before the exponential is distinguishable from a line."""
    params = dev.DeviceParams()
    noise = rb.DeviceNoiseModel(params, table)
    cfg = rb.RBConfig(lengths=(2, 25, 60, 120, 200), n_sequences=6,
                      shots=None, seed=37)
    result = rb.run_simultaneous(cfg, noise)
    for f in result.fits.values():
        assert f.converged
        assert 0.9 < f.alpha < 1.0


def test_simultaneous_draws_each_family_once(table, monkeypatch):
    """The three variants mask one draw of words per family."""
    streams = []
    family_rng = rb._family_rng
    monkeypatch.setattr(
        rb, "_family_rng", lambda seed, fam, stream=0:
        streams.append(stream) or family_rng(seed, fam, stream))
    cfg = _small_cfg(shots=100)
    rb._shot_stream.cache_clear()
    rb.run_simultaneous(cfg, rb.InjectedNoiseModel(table))
    assert streams.count(0) == cfg.n_sequences
    # each family's shot stream is seeded once for all three readouts
    assert streams.count(1) <= cfg.n_sequences
    rb.run_simultaneous(cfg, rb.InjectedNoiseModel(table))
    assert streams.count(1) <= cfg.n_sequences


def test_simultaneous_propagates_one_batch(table, monkeypatch):
    """The three variants' families propagate as one batch whose blocks
    are, byte for byte, the closed states of three separate chains."""
    batches = []
    propagate = rb._propagate

    def recorded(*args):
        batches.append(propagate(*args))
        return batches[-1]

    monkeypatch.setattr(rb, "_propagate", recorded)
    cfg = _small_cfg(n_sequences=40, seed=11)
    noise = rb.DeviceNoiseModel(dev.DeviceParams(), table)
    spam = dev.SpamModel.symmetric(thermal=0.01, misassignment=0.02)
    rb.run_simultaneous(cfg, noise, spam)
    assert len(batches) == 1
    words = np.stack([
        rb._family_rng(cfg.seed, fam).integers(0, 24,
                                               size=(cfg.lengths[-1], 2))
        for fam in range(cfg.n_sequences)])
    blocks = np.split(batches[0], len(rb._VARIANTS))
    for (mask, _), block in zip(rb._VARIANTS.values(), blocks):
        draws = words * mask
        bases = 24 * draws[..., 0] + draws[..., 1]
        closed = propagate(cfg.lengths, bases,
                           rb._inversions(table, cfg.lengths, bases),
                           noise, spam.initial_state())
        assert block.tobytes() == closed.tobytes()


def test_long_campaigns_converge(table):
    """Lengths out to 200 put most points on the flat tail; the fit must
    still find the head's decay (these seeds once ended unconverged near
    alpha = 1, or converged to alpha ~ 2e-5)."""
    noise = rb.DeviceNoiseModel(dev.DeviceParams(), table)
    for seed in (6, 11, 32):
        cfg = rb.RBConfig(lengths=tuple(range(1, 201)), n_sequences=100,
                          seed=seed)
        result = rb.fit_dataset(rb.run_rb(cfg, table, noise))
        assert result.converged, seed
        assert 0.8 < result.alpha < 0.9, seed
        assert result.chi2_red < 2, seed


# --- persistence ------------------------------------------------------------

def test_csv_round_trip(tmp_path, table):
    cfg = rb.RBConfig(lengths=(1, 3, 7, 12), n_sequences=5, shots=150, seed=43)
    noise = rb.InjectedNoiseModel(table, rb.depolarizing_ptm(0.96))
    standard = rb.run_rb(cfg, table, noise)
    exact_cfg = rb.RBConfig(lengths=(1, 3, 7, 12), n_sequences=5, shots=None,
                            seed=43)
    inter = rb.run_interleaved(exact_cfg, table, noise,
                               table.index_of(zx_perm()))
    path = tmp_path / "decays.csv"
    rb.write_decay_csv(path, [standard, inter])
    loaded = rb.read_decay_csv(path)
    assert loaded["standard"].seed == cfg.seed
    np.testing.assert_array_equal(loaded["standard"].survivals,
                                  standard.survivals)
    np.testing.assert_array_equal(loaded["interleaved"].survivals,
                                  inter.survivals)
    assert loaded["standard"].shots == 150
    assert loaded["interleaved"].shots is None
    before = rb.fit_dataset(standard)
    after = rb.fit_dataset(loaded["standard"])
    assert abs(before.alpha - after.alpha) < 1e-12


def test_decay_csv_is_written_as_csv_writer_rows(tmp_path):
    """The one write holds the bytes csv.writer gives row by row,
    quoting of an odd protocol name included."""
    rng = np.random.default_rng(3)
    datasets = [
        rb.DecayDataset('odd, "name"', 9, (1, 4), rng.random((2, 3)), None),
        rb.DecayDataset("standard", 0, (2, 5, 9),
                        rng.binomial(10, 0.5, (3, 2)) / 10, 10),
    ]
    path = tmp_path / "decays.csv"
    rb.write_decay_csv(path, datasets)
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(rb.CSV_HEADER)
    for ds in datasets:
        for row, length in enumerate(ds.lengths):
            for col in range(ds.survivals.shape[1]):
                writer.writerow((ds.protocol, ds.seed, length, col,
                                 repr(float(ds.survivals[row, col])),
                                 "exact" if ds.shots is None else ds.shots))
    assert path.read_bytes() == expected.getvalue().encode()
    loaded = rb.read_decay_csv(path)
    np.testing.assert_array_equal(loaded['odd, "name"'].survivals,
                                  datasets[0].survivals)


def test_decay_csv_reader_rejects_incomplete_files(tmp_path, table):
    cfg = rb.RBConfig(lengths=(1, 3, 7), n_sequences=4, shots=None, seed=5)
    ds = rb.run_rb(cfg, table, rb.InjectedNoiseModel(
        table, rb.depolarizing_ptm(0.96)))
    path = tmp_path / "decays.csv"
    rb.write_decay_csv(path, [ds])
    lines = path.read_text().splitlines(keepends=True)
    truncated = tmp_path / "truncated.csv"
    truncated.write_text("".join(lines[:-2]))
    with pytest.raises(ValueError, match=r"\(length, seq_index\) = \(7, 2\)"):
        rb.read_decay_csv(truncated)
    reseeded = tmp_path / "reseeded.csv"
    reseeded.write_text("".join(lines[:-1])
                        + lines[-1].replace("standard,5,", "standard,6,"))
    with pytest.raises(ValueError, match="seed"):
        rb.read_decay_csv(reseeded)


def test_dataset_statistics():
    grid = np.array([[1.0, 0.5], [0.2, 0.4]])
    ds = rb.DecayDataset("standard", 0, (1, 2), grid, None)
    np.testing.assert_allclose(ds.means(), [0.75, 0.3])
    np.testing.assert_allclose(
        ds.stderr(), grid.std(axis=1, ddof=1) / np.sqrt(2)
    )
