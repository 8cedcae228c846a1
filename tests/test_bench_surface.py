"""The library calls the benchmark's mirror (bench/traced.py) and its
output checks (bench/checks.py) make, pinned here because those files
change only together with the benchmark."""

import numpy as np
import pytest

from rbsim import device as dev
from rbsim import rb
from rbsim.cliffords import clifford_table, zx_perm


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
    # a campaign's stack holds the same bits as the channels built one
    # at a time
    stack, rows = noise.channel_stack(np.array([4321, 5, 4321]))
    assert stack[rows[0]].tobytes() == noise.clifford_channel(4321).tobytes()
    assert stack[rows[1]].tobytes() == noise.clifford_channel(5).tobytes()
