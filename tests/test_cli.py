"""End-to-end command-line runs (in process, via cli.main)."""

import copy
import csv
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
        0, "b83eef07753e9371d1f6cdc55a7ecfbdeba69c41db7e968e64402bbecf38b5eb"),
    "rb interleaved": (
        0, "2ba6fa4136c440a5f892f362def5f4fa24e7eb8b66888e72bd346ddafc190dfe"),
    # the qubit-1 fit does not converge at this seed
    "rb simultaneous": (
        2, "d8bffe1a44b5fcccb046430c06319029d8a92b9e44f8b49c57bf076fd1d96f68"),
    "qpt --shots 1000": (
        0, "d8bd9f258a7b23d454d9c4f59c917f892a876ceb403da3ef4f3e3a02c5c43925"),
    "sweep tau2 --points 3": (
        0, "4554f6467aec572a23708f0801fe4a3983e1b98d2901795f229640ea1db42f52"),
}


@pytest.mark.parametrize("command", REFERENCE_OUTPUTS)
def test_default_device_outputs_match_reference_hashes(capsys, command):
    """Any change to a printed number, however small, shows here."""
    code = cli.main([*command.split(), "--seed", "1234"])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) \
        == REFERENCE_OUTPUTS[command]


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
    table = copy.copy(cli.clifford_table())
    ids = table.layer_ids.copy()
    ids[7000, :2] = ids[7000, 1::-1]  # swap the first two layers
    assert not np.array_equal(ids, table.layer_ids)
    table.layer_ids = ids
    monkeypatch.setattr(cli, "clifford_table", lambda: table)
    code, summary, err = run_cli(capsys, "group", "verify")
    assert code == 1
    assert summary["failed_element"] == 7000
    assert summary["reason"] == "layer ids do not decode to the circuit"


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


def test_flags_are_validated_like_config_values(capsys):
    cases = [
        (("rb", "standard", "--sequences", "0"), "sequence"),
        (("qpt", "--shots", "-5"), "shots"),
        (("sweep", "tau2", "--points", "1"), "tau2_points"),
        (("sweep", "cr-rabi", "--points", "0"), "rabi_points"),
    ]
    for argv, field in cases:
        code, summary, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert summary is None
        assert field in err


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
