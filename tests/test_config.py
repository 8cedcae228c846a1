"""INI profile loading and validation."""

import dataclasses
import re

import numpy as np
import pytest

from rbsim import config as cfg
from rbsim import rb
from rbsim.device import DeviceParams


def _write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


def test_defaults_without_file():
    profile = cfg.load_profile(None)
    assert profile.seed == 1234
    assert profile.lengths == tuple(range(1, 21))
    assert profile.shots == 1000
    assert profile.noise_model == "device"
    assert profile.spam.is_ideal


def test_full_profile(tmp_path):
    path = _write(tmp_path, """
[run]
seed = 77
out_dir = artifacts

[device]
t1_1_us = 20.0
t2_1_us = 15.0
cr_mu = 0.04

[spam]
thermal = 0.01
misassignment = 0.02

[rb]
lengths = 1-4,8,16
sequences = 12
shots = 250
noise_model = depolarizing
clifford_depol = 0.95
gate_depol = 0.90
interleaved_gate = cnot

[qpt]
shots = exact
target = swap
spam_aware = true

[sweep]
rabi_stop = 500.0
tau2_points = 5
""")
    profile = cfg.load_profile(path)
    assert profile.seed == 77
    assert profile.out_dir == "artifacts"
    assert profile.device.t1_1_us == 20.0
    assert profile.device.cr_mu == 0.04
    assert profile.device.t1_2_us == 9.1  # untouched default
    assert profile.spam.thermal_pop_1 == 0.01
    assert profile.spam.confusion[0, 0] == pytest.approx(0.98**2)
    assert profile.lengths == (1, 2, 3, 4, 8, 16)
    assert profile.sequences == 12
    assert profile.shots == 250
    assert profile.noise_model == "depolarizing"
    assert profile.interleaved_gate == "cnot"
    assert profile.qpt_shots is None
    assert profile.qpt_target == "swap"
    assert profile.qpt_spam_aware
    assert profile.rabi_stop == 500.0
    assert profile.tau2_points == 5


def test_rb_config_and_noise_selection(tmp_path):
    path = _write(tmp_path, """
[rb]
noise_model = depolarizing
clifford_depol = 0.9
shots = exact
""")
    profile = cfg.load_profile(path)
    run_cfg = profile.rb_config()
    assert run_cfg.shots is None
    noise = profile.noise(table=None)
    assert isinstance(noise, rb.InjectedNoiseModel)
    np.testing.assert_allclose(noise.noise, rb.depolarizing_ptm(0.9))


def test_parse_lengths():
    assert cfg.parse_lengths("1,2,3") == (1, 2, 3)
    assert cfg.parse_lengths("1-5") == (1, 2, 3, 4, 5)
    assert cfg.parse_lengths("1-3, 7, 10-11") == (1, 2, 3, 7, 10, 11)
    with pytest.raises(cfg.ConfigError):
        cfg.parse_lengths("abc")
    with pytest.raises(cfg.ConfigError):
        cfg.parse_lengths("")


@pytest.mark.parametrize("text", [
    "[nonsense]\nkey = 1\n",
    "[rb]\nnoise_model = magic\n",
    "[rb]\nunknown_key = 1\n",
    "[rb]\nclifford_depol = 1.5\n",
    "[rb]\nlengths = 5,4\n",
    "[device]\nt2_1_us = 100.0\n",
    "[spam]\nmisassignment = -0.5\n",
    "[qpt]\ntarget = hadamard\n",
    "[run]\nthreads = 2\n",
    "[sweep]\ntau2_points = 1\n",
    "[rb]\ninterleaved_gate = swap\nbare_gate = true\n",
])
def test_rejects_bad_profiles(tmp_path, text):
    with pytest.raises(cfg.ConfigError):
        cfg.load_profile(_write(tmp_path, text))


@pytest.mark.parametrize("text, message", [
    ("[run]\nseed = -1\n", "seed must be non-negative"),
    ("[rb]\nlengths = 1-3\n", "lengths must hold at least 4 values"),
    ("[sweep]\ntau2_start = 300\ntau2_stop = 100\n",
     "tau2_stop must exceed tau2_start"),
    ("[sweep]\nrabi_stop = 0\n", "rabi_stop must exceed rabi_start"),
    ("[rb]\nsequences = abc\n", "[rb] sequences: invalid literal for int()"),
    ("[qpt]\nspam_aware = maybe\n", "[qpt] spam_aware: not a boolean: 'maybe'"),
    ("[spam]\nthermal = 0.7\n",
     "[spam] thermal_pop_1 must lie in [0, 0.5], got 0.7"),
    ("[device]\nt1_1_us = -1\n", "[device] t1_1_us must be positive, got -1.0"),
    ("[device]\nt2_1_us = 100.0\n", "[device] t2_1_us = 100.0 exceeds 2*T1"),
    ("[rb]\nunknown_key = 1\n", "[rb] unknown_key: unknown key"),
    ("[nonsense]\n", "unknown section [nonsense]"),
    ("[DEFAULT]\nseed = 5\n", "unknown section [DEFAULT]"),
    ("[DEFAULT]\nseed = 5\n[rb]\nsequences = 3\n",
     "unknown section [DEFAULT]"),
    ("[sweep]\nrabi_start = -1\n", "rabi_start must be non-negative, got -1.0"),
    # range errors lead with the key the user wrote, then the field
    ("[qpt]\ntarget = hadamard\n",
     "[qpt] target: qpt_target must be one of ('zx', 'cnot', 'iswap', "
     "'swap', 'identity'), got 'hadamard'"),
    ("[qpt]\nshots = 0\n",
     "[qpt] shots: qpt_shots must be positive (or exact), got 0"),
    ("[rb]\nsequences = 0\n",
     "[rb] sequences: n_sequences must be at least 1, got 0"),
    ("[rb]\nshots = 0\n",
     "[rb] shots: shots must be positive (or exact), got 0"),
    ("[run]\nseed = -1\n", "[run] seed: seed must be non-negative"),
    ("[sweep]\ntau2_points = 1\n",
     "[sweep] tau2_points: tau2_points must be at least 2, got 1"),
    # the misassignment as written, not an entry of the matrix built from it
    *((f"[spam]\nmisassignment = {text}\n",
       f"[spam] misassignment: misassignment must lie in [0, 1], got {shown}")
      for text, shown in (("-1", "-1.0"), ("1.5", "1.5"), ("nan", "nan"),
                          ("inf", "inf"), ("1e308", "1e+308"))),
])
def test_rejections_name_the_field(tmp_path, text, message):
    with pytest.raises(cfg.ConfigError, match=re.escape(message)):
        cfg.load_profile(_write(tmp_path, text))


_DEVICE = DeviceParams()
# (section, key) -> (value written, value read back where the key lands)
INI_SAMPLES = {
    ("run", "seed"): ("77", 77),
    ("run", "out_dir"): ("runs/100%", "runs/100%"),
    **{("device", f.name): (repr(getattr(_DEVICE, f.name) + 0.5),
                            getattr(_DEVICE, f.name) + 0.5)
       for f in dataclasses.fields(DeviceParams)},
    # spam reads back as (thermal_pop_1, thermal_pop_2, P(00 -> 11))
    ("spam", "thermal"): ("0.01", (0.01, 0.01, 0.0)),
    ("spam", "thermal_pop_1"): ("0.01", (0.01, 0.0, 0.0)),
    ("spam", "thermal_pop_2"): ("0.01", (0.0, 0.01, 0.0)),
    ("spam", "misassignment"): ("0.5", (0.0, 0.0, 0.25)),
    ("rb", "lengths"): ("1-4,8", (1, 2, 3, 4, 8)),
    ("rb", "sequences"): ("12", 12),
    ("rb", "shots"): ("exact", None),
    ("rb", "noise_model"): ("depolarizing", "depolarizing"),
    ("rb", "clifford_depol"): ("0.95", 0.95),
    ("rb", "gate_depol"): ("0.9", 0.9),
    ("rb", "interleaved_gate"): ("CNOT", "cnot"),
    ("qpt", "shots"): ("250", 250),
    ("qpt", "target"): ("Swap", "swap"),
    ("qpt", "spam_aware"): ("yes", True),
    ("sweep", "rabi_start"): ("10", 10.0),
    ("sweep", "rabi_stop"): ("500", 500.0),
    ("sweep", "rabi_points"): ("3", 3),
    ("sweep", "tau2_start"): ("10", 10.0),
    ("sweep", "tau2_stop"): ("500", 500.0),
    ("sweep", "tau2_points"): ("3", 3),
}


def test_every_field_is_set_from_one_line(tmp_path):
    assert INI_SAMPLES.keys() == cfg.FIELDS.keys()
    for (section, key), (text, expected) in INI_SAMPLES.items():
        profile = cfg.load_profile(
            _write(tmp_path, f"[{section}]\n{key} = {text}\n"))
        name, _ = cfg.FIELDS[section, key]
        if section == "device":
            got = getattr(profile.device, name)
        elif section == "spam":
            spam = profile.spam
            got = (spam.thermal_pop_1, spam.thermal_pop_2, spam.confusion[0, 3])
        else:
            got = getattr(profile, name)
        assert got == expected, (section, key)


def test_missing_file():
    with pytest.raises(cfg.ConfigError):
        cfg.load_profile("/nonexistent/run.ini")
