"""The library calls the benchmark's mirror (bench/traced.py) and its
output checks (bench/checks.py) make, pinned here because those files
change only together with the benchmark."""

import numpy as np
import pytest

from rbsim import device as dev
from rbsim import rb
from rbsim.cliffords import (Layer, c1_elements, clifford_table,
                             single_qubit_layer, zx_perm)


@pytest.fixture(scope="module")
def table():
    return clifford_table()


def _counting_sampler(monkeypatch):
    calls = []
    original = rb.sample_sequences

    def sampled(cfg, table, interleaved=None):
        calls.append(interleaved)
        return original(cfg, table, interleaved)

    monkeypatch.setattr(rb, "sample_sequences", sampled)
    return calls


def test_campaigns_sample_through_sample_sequences_once(table, monkeypatch):
    """traced.replay hands a campaign its families by replacing
    rb.sample_sequences, and asserts exactly one call."""
    cfg = rb.RBConfig(lengths=(1, 2, 4), n_sequences=3, shots=None, seed=3)
    noise = rb.DeviceNoiseModel(dev.DeviceParams(), table)
    gate = table.index_of(zx_perm())
    calls = _counting_sampler(monkeypatch)
    rb.run_rb(cfg, table, noise)
    assert calls == [None]
    calls.clear()
    rb.run_interleaved(cfg, table, noise, gate)
    assert calls == [gate]


def test_sampled_families_read_as_the_mirror_reads_them(table):
    """The mirror iterates a campaign's families and reads len(family),
    family[-1].indices (kept in a set) and each truncation's .inversion:
    the view over the sampled arrays makes these on access."""
    cfg = rb.RBConfig(lengths=(1, 3, 4), n_sequences=3, shots=None, seed=5)
    for gate in (None, table.index_of(zx_perm())):
        families = rb.sample_sequences(cfg, table, interleaved=gate)
        draws, inversions = families.arrays
        assert len(families) == cfg.n_sequences
        for family, draw, closing in zip(families, draws, inversions):
            assert isinstance(family, tuple)
            assert len(family) == len(cfg.lengths)
            longest = family[-1].indices
            assert isinstance(longest, tuple)
            assert all(type(k) is int for k in longest)
            hash(longest)
            assert longest == tuple(draw.tolist())
            for seq, inversion in zip(family, closing):
                assert type(seq.inversion) is int
                assert seq.inversion == inversion


def test_channel_lookups_one_index_at_a_time(table):
    """checks.predictions() and the mirror build channels one index at a
    time, read them as pairs, and clear the layer-channel cache."""
    dev.gate_channel.cache_clear()
    noise = rb.DeviceNoiseModel(dev.DeviceParams(), table)
    for k in (0, 5, 576, 4321, 11519):
        ch = noise.clifford_channel(k)
        assert ch.shape == (16, 16) and not ch.flags.writeable
        assert noise.clifford_channel(k) is ch
    np.testing.assert_array_equal(noise.pair_channel(3, 7),
                                  noise.clifford_channel(24 * 3 + 7))
    # a campaign's step builds the same bits as the channels built one
    # at a time
    step = noise._channels(np.array([4321, 5, 4321]))
    assert step[0].tobytes() == noise.clifford_channel(4321).tobytes()
    assert step[1].tobytes() == noise.clifford_channel(5).tobytes()
    assert step[2].tobytes() == step[0].tobytes()


def test_clifford_calls_the_mirror_makes(table):
    """The mirror takes the one-qubit words from c1_elements() and zips
    them into the table's pulse layers; the checks read an element's
    ideal matrix through elements[k].to_ptm() and find the ZX element
    with index_of(zx_perm())."""
    _, words = c1_elements()
    assert len(words) == 24
    for i in range(24):
        for j in range(24):
            layer = single_qubit_layer(words[i], words[j])
            assert layer == table.layers[24 * i + j]
    for k in (0, 1, 577, 4321, 11519):
        assert table.elements[k].to_ptm().tobytes() == table.ptm(k).tobytes()
    zx = table.index_of(zx_perm())
    assert table.circuits[zx] == (Layer("zx"),)
