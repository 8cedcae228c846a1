"""End-to-end command-line runs (in process, via cli.main)."""

import argparse
import copy
import csv
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from rbsim import cli, rb
from rbsim import device as dev


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    summary = json.loads(captured.out) if captured.out.strip() else None
    return code, summary, captured.err


DEPOL_INI = """
[rb]
noise_model = depolarizing
clifford_depol = 0.97
gate_depol = 0.95
lengths = 1-10
sequences = 3
shots = exact
"""


@pytest.fixture
def depol_config(tmp_path):
    path = tmp_path / "depol.ini"
    path.write_text(DEPOL_INI)
    return str(path)


# stdout of the default-device commands at seed 1234: exit code, sha256
REFERENCE_OUTPUTS = {
    "rb standard": (
        0, "ebe79b2b0c31c70f376bd4d8518a87f2d4e8b2cdd5b2486ce20b2a4f64a46377"),
    "rb interleaved": (
        0, "5988bad48d95f690ceceb39e7abc5fccd7b425ace50749098136a3f27625c27b"),
    # the qubit-1 decay is unresolved at this seed: a straight line fits
    # it within 1 sigma
    "rb simultaneous": (
        2, "aa4204ac014b5b2dc30658adf6e5822ff87c561d0bdd32fa792308dd6ebf6521"),
    "qpt --shots 1000": (
        0, "d8bd9f258a7b23d454d9c4f59c917f892a876ceb403da3ef4f3e3a02c5c43925"),
    "sweep tau2 --points 3": (
        0, "9b51831bd4300862f8658d8cbb840f20a5fca685aaa04b853ec5b6a23aed3503"),
}


# files of `qpt --shots 1000 --seed 1234 --out DIR`: sha256
QPT_REFERENCE_FILES = {
    "qpt_probabilities.csv":
        "043b305628eff304b8066d1142c83b570ba9db6e62333d766e4c47e108089bd9",
    "qpt_ptm.csv":
        "c605131492b6e0089f623fb9b8c41223f0f4831b1696dd375cb2de613995b171",
}


# files of `rb <protocol> --seed 1234 --out DIR`: exit code, {name: sha256}
RB_REFERENCE_FILES = {
    "standard": (0, {
        "rb_standard.csv":
            "c9858985ccc9d5508f855e1da72425557b4664dc32f68c323b0c6ec4f325f52e",
        "rb_standard.json":
            "ebe79b2b0c31c70f376bd4d8518a87f2d4e8b2cdd5b2486ce20b2a4f64a46377",
    }),
    "interleaved": (0, {
        "rb_interleaved.csv":
            "b517f9146918c925e3545bb0c3aa442e8dcb00b6bdded0dc83e97dbd8bf51db8",
        "rb_interleaved.json":
            "5988bad48d95f690ceceb39e7abc5fccd7b425ace50749098136a3f27625c27b",
    }),
    "simultaneous": (2, {
        "rb_simultaneous.csv":
            "f821122e5ccbf7c36d8b07a179bf421eb289996753ac1c8c7c0238e6b4345534",
        "rb_simultaneous.json":
            "aa4204ac014b5b2dc30658adf6e5822ff87c561d0bdd32fa792308dd6ebf6521",
    }),
}


@pytest.mark.parametrize("command", REFERENCE_OUTPUTS)
def test_default_device_outputs_match_reference_hashes(capsys, command):
    """Any change to a printed number, however small, shows here."""
    code = cli.main([*command.split(), "--seed", "1234"])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) \
        == REFERENCE_OUTPUTS[command]


def test_qpt_files_match_reference_hashes(capsys, tmp_path):
    """Every sampled count and every projected transfer-matrix entry."""
    code = cli.main(["qpt", "--shots", "1000", "--seed", "1234",
                     "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in QPT_REFERENCE_FILES} == QPT_REFERENCE_FILES


@pytest.mark.parametrize("protocol", RB_REFERENCE_FILES)
def test_rb_files_match_reference_hashes(capsys, tmp_path, protocol):
    """Every decay CSV byte (each survival's repr, the row order and the
    line terminator) and the JSON summary written beside it."""
    code = cli.main(["rb", protocol, "--seed", "1234", "--out", str(tmp_path)])
    capsys.readouterr()
    expected_code, files = RB_REFERENCE_FILES[protocol]
    assert code == expected_code
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in files} == files


def test_group_stats(capsys):
    code, summary, _ = run_cli(capsys, "group", "stats", "--seed", "5")
    assert code == 0
    assert summary["seed"] == 5
    assert summary["n_elements"] == 11520
    assert summary["class_sizes"] == {
        "single_qubit": 576, "cnot_like": 5184,
        "iswap_like": 5184, "swap_like": 576,
    }
    assert summary["avg_entangling_layers"] == 1.5


def test_group_verify_passes(capsys):
    code, summary, _ = run_cli(
        capsys, "group", "verify", "--closure-samples", "500"
    )
    assert code == 0
    assert summary["passed"] is True
    assert summary["closure_samples"] == 500


def test_group_verify_reports_injected_defect(capsys):
    code, summary, err = run_cli(
        capsys, "group", "verify", "--closure-samples", "10",
        "--corrupt-element", "7000",
    )
    assert code == 1
    assert summary["passed"] is False
    assert summary["failed_element"] == 7000
    assert "7000" in err


@pytest.mark.parametrize("corrupt, failed, reason", [
    (7000, 7000, "circuit does not recompose to the element"),
    (0, 0, "circuit does not recompose to the element"),
    # element 11469's stored inverse is 11519, and 11469 is checked first
    (11519, 11469, "stored inverse does not invert the element"),
])
def test_group_verify_reports_first_failure(capsys, corrupt, failed, reason):
    code, summary, err = run_cli(
        capsys, "group", "verify", "--corrupt-element", str(corrupt),
    )
    assert code == 1
    assert summary["failed_element"] == failed
    assert summary["reason"] == reason
    assert f"element {failed}: {reason}" in err
    # the census counts the elements checked, the failing one included
    assert sum(summary["class_sizes"].values()) == failed + 1


def test_group_verify_checks_layer_ids_against_circuits(capsys, monkeypatch):
    """Swapped layers fold to another element."""
    table = copy.copy(cli.clifford_table())
    ids = table.layer_ids.copy()
    ids[7000, :2] = ids[7000, 1::-1]  # swap the first two layers
    assert not np.array_equal(ids, table.layer_ids)
    table.layer_ids = ids
    monkeypatch.setattr(cli, "clifford_table", lambda: table)
    code, summary, err = run_cli(capsys, "group", "verify")
    assert code == 1
    assert summary["failed_element"] == 7000
    assert summary["reason"] == "circuit does not recompose to the element"


@pytest.mark.parametrize("layer_id", [5, 576])
def test_group_verify_checks_the_table_layers(capsys, monkeypatch, layer_id):
    """A table Layer that differs from the one its id names fails at the
    lowest element whose circuit uses that id."""
    table = copy.copy(cli.clifford_table())
    layers = list(table.layers)
    layers[layer_id] = layers[layer_id + 1 if layer_id < 576 else 1]
    table.layers = tuple(layers)
    monkeypatch.setattr(cli, "clifford_table", lambda: table)
    code, summary, err = run_cli(capsys, "group", "verify")
    first = int(np.flatnonzero((table.layer_ids == layer_id).any(axis=1))[0])
    # row k < 576 is the pulse layer k alone; 576 is the first
    # element with an entangling layer
    assert first == layer_id
    assert code == 1
    assert summary["failed_element"] == first
    assert summary["reason"] == "layer ids do not decode to the circuit"
    assert f"element {first}: layer ids do not decode" in err


def test_rb_standard_depolarizing(capsys, tmp_path, depol_config):
    out = tmp_path / "artifacts"
    code, summary, _ = run_cli(
        capsys, "rb", "standard", "--config", depol_config,
        "--seed", "99", "--out", str(out),
    )
    assert code == 0
    assert summary["seed"] == 99
    assert summary["shots"] is None
    assert summary["alpha"] == pytest.approx(0.97, abs=1e-8)
    assert summary["r"] == pytest.approx(0.75 * 0.03, abs=1e-8)
    # the CSV must reproduce the fit exactly
    loaded = rb.read_decay_csv(out / "rb_standard.csv")
    refit = rb.fit_dataset(loaded["standard"])
    assert abs(refit.alpha - summary["alpha"]) < 1e-12
    saved = json.loads((out / "rb_standard.json").read_text())
    assert saved == summary


def test_rb_interleaved_depolarizing(capsys, depol_config):
    code, summary, _ = run_cli(
        capsys, "rb", "interleaved", "--config", depol_config,
        "--gate", "cnot",
    )
    assert code == 0
    assert summary["gate"] == "cnot"
    assert summary["alpha"] == pytest.approx(0.97, abs=1e-8)
    assert summary["alpha_c"] == pytest.approx(0.97 * 0.95, abs=1e-8)
    assert summary["r_gate"] == pytest.approx(0.75 * 0.05, abs=1e-7)
    assert summary["suspect"] is False


def test_rb_simultaneous_depolarizing(capsys, depol_config):
    code, summary, _ = run_cli(
        capsys, "rb", "simultaneous", "--config", depol_config, "--seed", "3"
    )
    assert code == 0
    assert summary["seed"] == 3
    fits = summary["fits"]
    assert set(fits) == {"alpha1", "alpha2", "joint_q1", "joint_q2",
                         "joint_parity"}
    # global depolarizing decays marginals and parity at the same rate
    assert fits["joint_parity"]["alpha"] == pytest.approx(0.97, abs=1e-8)
    assert summary["delta_alpha"] == pytest.approx(0.97 - 0.97**2, abs=1e-8)


def test_rb_nonconvergence_exit_code(capsys):
    # shallow one-qubit decays over short lengths leave the offset and
    # amplitude degenerate; the fit honestly reports no convergence
    code, summary, _ = run_cli(
        capsys, "rb", "simultaneous", "--exact",
        "--lengths", "1,4,8,14", "--sequences", "6", "--seed", "37",
    )
    assert code == 2
    assert any(not f["converged"] for f in summary["fits"].values())


def test_qpt_depolarizing_fidelity(capsys, tmp_path, depol_config):
    out = tmp_path / "qpt-out"
    code, summary, _ = run_cli(
        capsys, "qpt", "--config", depol_config, "--target", "zx",
        "--exact", "--out", str(out),
    )
    assert code == 0
    expected = 0.25 + 0.75 * 0.97
    assert summary["fidelity_raw"] == pytest.approx(expected, abs=1e-9)
    assert summary["fidelity"] == pytest.approx(expected, abs=1e-6)
    assert summary["distance_to_simulated_channel"] < 1e-6
    assert summary["tp_residual"] <= 1e-9
    assert summary["min_eigenvalue"] >= -1e-9
    with open(out / "qpt_ptm.csv", newline="") as handle:
        seed_line = handle.readline()
        rows = list(csv.reader(handle))
    assert seed_line.startswith("# seed=")
    assert rows[0][:2] == ["II", "IX"] and rows[0][-1] == "ZZ"
    data = rows[1:]
    assert len(data) == 16 and all(len(row) == 16 for row in data)


def test_qpt_with_shots_and_spam(capsys, tmp_path):
    ini = tmp_path / "spam.ini"
    ini.write_text("""
[spam]
thermal = 0.01
misassignment = 0.02

[qpt]
shots = 2000
target = cnot
spam_aware = true
""")
    code, summary, _ = run_cli(capsys, "qpt", "--config", str(ini),
                               "--seed", "11")
    assert code == 0
    assert summary["seed"] == 11
    assert summary["shots"] == 2000
    assert summary["spam_aware"] is True
    assert 0.5 < summary["fidelity"] <= 1.0


def test_sweep_cr_rabi(capsys, tmp_path):
    out = tmp_path / "rabi"
    code, summary, _ = run_cli(
        capsys, "sweep", "cr-rabi", "--points", "9", "--stop", "200",
        "--out", str(out),
    )
    assert code == 0
    params = dev.DeviceParams()
    eps, m, mu = params.cr_epsilon, params.cr_m, params.cr_mu
    assert summary["omega_control0_rad_per_ns"] == pytest.approx(
        2 * eps * (m - mu)
    )
    with open(out / "sweep_cr_rabi.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 9
    tau = float(rows[4]["tau_ns"])
    assert float(rows[4]["single_control0"]) == pytest.approx(
        math.cos(eps * (m - mu) * tau) ** 2, abs=1e-9
    )
    assert float(rows[4]["echo_control1"]) == pytest.approx(
        math.cos(2 * eps * mu * tau) ** 2, abs=1e-9
    )


def test_sweep_tau2(capsys, tmp_path):
    out = tmp_path / "tau2"
    code, summary, _ = run_cli(
        capsys, "sweep", "tau2", "--points", "2", "--start", "150",
        "--stop", "200", "--lengths", "1-12", "--sequences", "4",
        "--exact", "--out", str(out),
    )
    assert code == 0
    points = summary["points"]
    assert len(points) == 2
    for point in points:
        assert point["converged"]
        assert 0.0 < point["r"] < 0.5
        assert point["r_limit_2t1"] < point["r_limit_t2"]
        # coherent part is exact after calibration, so the device run
        # must land on the measured-T2 limit curve
        assert abs(point["r"] - point["r_limit_t2"]) < 1e-12
    assert points[0]["r"] < points[1]["r"]
    with open(out / "sweep_tau2.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [float(r["tau2_ns"]) for r in rows] == [150.0, 200.0]
    assert all(int(r["seed"]) == summary["seed"] for r in rows)


def test_sweep_tau2_zero_length_point(capsys):
    """tau2 = 0 degenerates to an instantaneous rotation; the layer
    keeps the two echo pulses, so some decoherence remains."""
    code, summary, _ = run_cli(
        capsys, "sweep", "tau2", "--points", "2", "--start", "0",
        "--stop", "178", "--lengths", "1-12", "--sequences", "4",
        "--exact",
    )
    assert code == 0
    degenerate, paper_point = summary["points"]
    assert degenerate["converged"]
    assert 0.0 < degenerate["r"] < paper_point["r"]


def test_sweep_tau2_does_each_distinct_chain_once(capsys, monkeypatch):
    """Per grid point, the measured-T2 limit reads out the device chain
    and only the 2*T1 limit propagates: 6 chains for 3 points, not 9.
    The pulse-layer rows are made once per T1/T2 set: the measured one
    and the 2*T1 one."""
    calls = []
    propagate = rb._propagate
    monkeypatch.setattr(rb, "_propagate",
                        lambda *a, **k: calls.append(1) or propagate(*a, **k))
    dev._pulse_rows.cache_clear()
    code, _, _ = run_cli(capsys, "sweep", "tau2", "--points", "3")
    assert code == 0
    assert len(calls) == 6
    assert dev._pulse_rows.cache_info().misses == 2


def test_invalid_inputs_exit_one(capsys, tmp_path):
    code, _, err = run_cli(capsys, "rb", "standard", "--lengths", "abc")
    assert code == 1 and "length" in err
    bad = tmp_path / "bad.ini"
    bad.write_text("[rb]\nnoise_model = magic\n")
    code, _, err = run_cli(capsys, "rb", "standard", "--config", str(bad))
    assert code == 1 and "noise_model" in err
    code, _, err = run_cli(capsys, "group", "mystery")
    assert code == 1
    code, _, err = run_cli(capsys, "rb", "interleaved", "--gate", "swap",
                           "--bare")
    assert code == 1 and "bare" in err
    # one shot budget: --shots and --exact exclude each other
    for argv in (("rb", "standard"), ("qpt",)):
        code, summary, err = run_cli(capsys, *argv, "--exact", "--shots", "5")
        assert (code, summary) == (1, None)
        assert "argument --shots: not allowed with argument --exact" in err
    # a zero drive is a valid device that no segment length calibrates
    zero = tmp_path / "zero.ini"
    for key, argv in (("cr_mu", ("sweep", "cr-rabi")),
                      ("cr_epsilon", ("sweep", "cr-rabi")),
                      ("cr_mu", ("sweep", "tau2"))):
        zero.write_text(f"[device]\n{key} = 0\n")
        code, summary, err = run_cli(capsys, *argv, "--points", "3",
                                     "--config", str(zero))
        assert (code, summary) == (1, None)
        assert f"calibration needs {key} != 0, got 0.0" in err


def test_qpt_takes_no_campaign_flags(capsys):
    for flag, value in (("--lengths", "1-20"), ("--sequences", "5")):
        code, summary, err = run_cli(capsys, "qpt", flag, value)
        assert (code, summary) == (1, None)
        assert f"unrecognized arguments: {flag} {value}" in err
    code, _, _ = run_cli(capsys, "qpt", "--exact")
    assert code == 0


def test_flags_are_validated_like_config_values(capsys):
    cases = [
        (("rb", "standard", "--sequences", "0"), "sequence"),
        (("qpt", "--shots", "-5"), "shots"),
        (("rb", "standard", "--shots", "0"), "shots"),
        (("sweep", "tau2", "--points", "1"), "tau2_points"),
        (("sweep", "cr-rabi", "--points", "0"), "rabi_points"),
        (("sweep", "tau2", "--start", "300", "--stop", "100"),
         "tau2_stop must exceed tau2_start"),
        (("sweep", "cr-rabi", "--start", "300", "--stop", "100"),
         "rabi_stop must exceed rabi_start"),
        (("rb", "standard", "--lengths", "1-3"), "lengths"),
        (("group", "verify", "--closure-samples", "-5"),
         "closure-samples must be non-negative"),
        (("sweep", "cr-rabi", "--start", "-5", "--points", "3"),
         "rabi_start must be non-negative"),
    ]
    for argv, field in cases:
        code, summary, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert summary is None
        assert field in err
        # each flag is checked as the field of the command that owns it
        assert ("qpt" in err) == (argv[0] == "qpt"), err


@pytest.mark.parametrize("ini, argv, message", [
    ("[device]\nt1_1_us = nan\n", ("qpt", "--exact"),
     "t1_1_us must be a number, got nan"),
    ("[spam]\nmisassignment = nan\n", ("qpt", "--exact"),
     "confusion matrix entries must be finite"),
    ("[device]\ncr_mu = nan\n", ("sweep", "cr-rabi", "--points", "3"),
     "cr_mu must be a number, got nan"),
    (None, ("sweep", "tau2", "--start", "nan"),
     "tau2_start must be finite, got nan"),
    (None, ("sweep", "cr-rabi", "--points", "3", "--stop", "inf"),
     "rabi_stop must be finite, got inf"),
    # only T1 and T2 may be infinite (no decoherence)
    ("[device]\ncr_epsilon = inf\n", ("qpt", "--exact"),
     "cr_epsilon must be finite, got inf"),
    ("[spam]\nthermal = nan\n", ("qpt", "--exact"),
     "thermal_pop_1 must be finite, got nan"),
], ids=["t1_1_us", "misassignment", "cr_mu", "tau2_start", "rabi_stop",
        "cr_epsilon", "thermal"])
def test_non_finite_numbers_are_rejected_by_name(capsys, tmp_path, ini, argv,
                                                 message):
    if ini is not None:
        path = tmp_path / "non_finite.ini"
        path.write_text(ini)
        argv = (*argv, "--config", str(path))
    code, summary, err = run_cli(capsys, *argv)
    assert (code, summary) == (1, None)
    assert message in err


@pytest.mark.parametrize("argv", [
    ("group", "stats"),
    ("rb", "standard"),
    ("qpt",),
    ("sweep", "cr-rabi", "--points", "3"),
])
def test_negative_seed_is_rejected_by_name(capsys, argv):
    code, summary, err = run_cli(capsys, *argv, "--seed", "-1")
    assert (code, summary) == (1, None)
    assert "seed must be non-negative" in err


def test_shots_flags_set_only_the_owning_command():
    """--shots/--exact set qpt_shots for qpt and shots for the others."""
    parser = cli.build_parser()
    default = cli.cfgmod.RunProfile()
    cases = [
        (["qpt", "--shots", "7"], (default.shots, 7)),
        (["rb", "standard", "--shots", "7"], (7, default.qpt_shots)),
        (["sweep", "tau2", "--exact"], (None, default.qpt_shots)),
        (["qpt", "--exact"], (default.shots, None)),
    ]
    for argv, expected in cases:
        profile = cli._profile(parser.parse_args(argv))
        assert (profile.shots, profile.qpt_shots) == expected, argv


RUN_FLAGS = {
    "--seed": ("7", "seed", 7),
    "--out": ("artifacts", "out_dir", "artifacts"),
}
CAMPAIGN_FLAGS = {
    **RUN_FLAGS,
    "--shots": ("7", "shots", 7),
    "--exact": (None, "shots", None),
    "--lengths": ("1-4,8", "lengths", (1, 2, 3, 4, 8)),
    "--sequences": ("3", "sequences", 3),
}


def _sweep_flags(prefix):
    return {
        "--start": ("10", f"{prefix}_start", 10.0),
        "--stop": ("500", f"{prefix}_stop", 500.0),
        "--points": ("3", f"{prefix}_points", 3),
    }


# subcommand -> flag -> (value given, RunProfile field, value it holds)
PROFILE_FLAGS = {
    "group stats": RUN_FLAGS,
    "group verify": RUN_FLAGS,
    "rb standard": CAMPAIGN_FLAGS,
    "rb interleaved": {**CAMPAIGN_FLAGS,
                       "--gate": ("cnot", "interleaved_gate", "cnot")},
    "rb simultaneous": CAMPAIGN_FLAGS,
    "qpt": {
        **RUN_FLAGS,
        "--shots": ("7", "qpt_shots", 7),
        "--exact": (None, "qpt_shots", None),
        "--target": ("swap", "qpt_target", "swap"),
        "--spam-aware": (None, "qpt_spam_aware", True),
    },
    "sweep cr-rabi": {**RUN_FLAGS, **_sweep_flags("rabi")},
    "sweep tau2": {**CAMPAIGN_FLAGS, **_sweep_flags("tau2")},
}
# flags that set no profile field
OTHER_FLAGS = {"-h", "--help", "--config", "--closure-samples",
               "--corrupt-element"}


def _subcommand_parsers(parser, words=()):
    """(subcommand words, parser) of every leaf of the parser tree."""
    branches = [action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)]
    if not branches:
        yield " ".join(words), parser
    for action in branches:
        for name, sub in action.choices.items():
            yield from _subcommand_parsers(sub, (*words, name))


def test_every_flag_lands_on_its_profile_field():
    parser = cli.build_parser()
    fields = {f.name for f in dataclasses.fields(cli.cfgmod.RunProfile)}
    leaves = dict(_subcommand_parsers(parser))
    assert leaves.keys() == PROFILE_FLAGS.keys()
    for command, flags in PROFILE_FLAGS.items():
        given = {option for action in leaves[command]._actions
                 for option in action.option_strings}
        assert given - OTHER_FLAGS == flags.keys(), command
        for flag, (value, field, expected) in flags.items():
            argv = [*command.split(), flag, *([] if value is None else [value])]
            args = parser.parse_args(argv)
            # the flag sets its own field and no other
            assert fields & vars(args).keys() == {field}, argv
            assert getattr(cli._profile(args), field) == expected, argv


def test_seed_in_every_summary(capsys, depol_config):
    commands = [
        ("group", "stats"),
        ("rb", "standard", "--config", depol_config),
        ("qpt", "--config", depol_config, "--exact"),
        ("sweep", "cr-rabi", "--points", "3"),
    ]
    for argv in commands:
        _, summary, _ = run_cli(capsys, *argv, "--seed", "123")
        assert summary["seed"] == 123
