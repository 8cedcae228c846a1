"""Each output check passes on real rbsim output and fails on a doctored copy.

    python3 -m pytest bench/tests
"""

import contextlib
import copy
import csv
import io
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import rbsim.cli
from rbsim import rb
from traced import Tracer

SEED = 1234
COMMANDS = {
    "group verify": ["group", "verify"],
    "rb standard": ["rb", "standard"],
    "rb interleaved": ["rb", "interleaved"],
    "rb simultaneous": ["rb", "simultaneous"],
    "qpt": ["qpt", "--shots", "1000"],
    "sweep tau2": ["sweep", "tau2", "--points", "3"],
}


def run_cli(argv):
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = rbsim.cli.main(argv)
    return code, json.loads(captured.getvalue())


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """(exit code, summary, out dir) of every benchmarked command."""
    found = {}
    for name, argv in COMMANDS.items():
        out = tmp_path_factory.mktemp(name.replace(" ", "_"))
        code, summary = run_cli([*argv, "--seed", str(SEED), "--out", str(out)])
        found[name] = (code, summary, out)
    return found


def doctored(outputs, name, tmp_path):
    """A private copy of a command's summary and artifacts."""
    _, summary, out = outputs[name]
    copy_dir = tmp_path / "out"
    shutil.copytree(out, copy_dir)
    return copy.deepcopy(summary), copy_dir


@pytest.mark.parametrize("name", [n for n in COMMANDS if n != "rb simultaneous"])
def test_real_outputs_pass(outputs, name):
    code, summary, out = outputs[name]
    assert code == 0
    checks.CHECKS[name](summary, out)


def test_simultaneous_fit_fault_still_present(outputs):
    code, summary, _ = outputs["rb simultaneous"]
    assert code == 2 and not summary["fits"]["alpha1"]["converged"]


def test_printed_alpha_must_match_the_decay_csv(outputs, tmp_path):
    summary, out = doctored(outputs, "rb standard", tmp_path)
    summary["alpha"] += 1e-9
    with pytest.raises(checks.CheckFailed, match="refit alpha"):
        checks.check_rb_standard(summary, out)


def test_edited_decay_row_breaks_the_refit(outputs, tmp_path):
    summary, out = doctored(outputs, "rb interleaved", tmp_path)
    path = out / "rb_interleaved.csv"
    rows = list(csv.reader(path.open()))
    rows[-1][4] = repr(float(rows[-1][4]) + 0.01)
    with path.open("w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    with pytest.raises(checks.CheckFailed, match="interleaved: refit alpha"):
        checks.check_rb_interleaved(summary, out)


def test_alpha_off_the_twirl_prediction_fails(outputs):
    _, summary, out = outputs["rb standard"]
    ds = rb.read_decay_csv(out / "rb_standard.csv")["standard"]
    checks.check_twirl_alpha(summary["alpha"], ds)
    sigma = checks.jackknife_alpha_sigma(ds)
    shifted = checks.predictions().alpha + 3.5 * sigma
    with pytest.raises(checks.CheckFailed, match="twirl prediction"):
        checks.check_twirl_alpha(shifted, ds)


def test_jackknife_sees_the_shared_prefix_correlation(outputs):
    _, summary, out = outputs["rb standard"]
    ds = rb.read_decay_csv(out / "rb_standard.csv")["standard"]
    assert checks.jackknife_alpha_sigma(ds) > summary["alpha_sigma"]


def test_gate_error_off_the_gate_fidelity_fails(outputs, tmp_path):
    summary, out = doctored(outputs, "rb interleaved", tmp_path)
    summary["r_gate"] = checks.predictions().zx_error + 3.5 * summary["r_gate_sigma"]
    with pytest.raises(checks.CheckFailed, match="1 - F_avg"):
        checks.check_rb_interleaved(summary, out)


@pytest.mark.parametrize("edit, message", [
    (lambda rows: rows[1].update(r=rows[1]["r_limit_t2"] + 4 * rows[1]["r_sigma"]),
     "misses the T2 limit"),
    (lambda rows: rows[0].update(r_limit_2t1=rows[0]["r_limit_t2"]),
     "not below the T2 limit"),
    (lambda rows: rows[2].update(r_limit_2t1=rows[1]["r_limit_2t1"]),
     "r_limit_2t1 does not increase"),
    (lambda rows: rows[2].update({**rows[1], "tau2_ns": rows[2]["tau2_ns"]}),
     "r_limit_t2 does not increase"),
])
def test_doctored_sweep_fails(outputs, tmp_path, edit, message):
    summary, out = doctored(outputs, "sweep tau2", tmp_path)
    edit(summary["points"])
    with pytest.raises(checks.CheckFailed, match=message):
        checks.check_sweep_tau2(summary, out)


def test_corrupted_group_fails(tmp_path):
    code, summary = run_cli(["group", "verify", "--corrupt-element", "7",
                             "--out", str(tmp_path)])
    assert code == 1
    with pytest.raises(checks.CheckFailed, match="group verify failed"):
        checks.check_verify(summary, tmp_path)


def test_wrong_class_census_fails(outputs, tmp_path):
    summary, out = doctored(outputs, "group verify", tmp_path)
    summary["class_sizes"]["swap_like"] -= 1
    with pytest.raises(checks.CheckFailed, match="class census"):
        checks.check_verify(summary, out)


def rewrite_ptm(out, edit):
    path = out / "qpt_ptm.csv"
    lines = path.read_text().splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    ptm = np.array(rows)
    edit(ptm)
    body = "\n".join(",".join(repr(float(v)) for v in row) for row in ptm)
    path.write_text("\n".join(lines[:2]) + "\n" + body + "\n")


@pytest.mark.parametrize("edit, message", [
    (lambda ptm: ptm.__setitem__((5, 5), 1.5), "minimum eigenvalue"),
    (lambda ptm: ptm.__imul__(0.999), "trace-preservation"),
])
def test_non_cptp_tomography_fails(outputs, tmp_path, edit, message):
    summary, out = doctored(outputs, "qpt", tmp_path)
    rewrite_ptm(out, edit)
    with pytest.raises(checks.CheckFailed, match=message):
        checks.check_qpt(summary, out)


def test_tomography_of_another_seed_fails(outputs, tmp_path):
    summary, out = doctored(outputs, "qpt", tmp_path)
    summary["seed"] += 1
    with pytest.raises(checks.CheckFailed, match="starts"):
        checks.check_qpt(summary, out)


def test_simultaneous_checks(outputs, tmp_path):
    summary, out = doctored(outputs, "rb simultaneous", tmp_path)
    summary["delta_alpha"] = 0.5 * summary["delta_alpha_sigma"]
    checks.check_rb_simultaneous(summary, out)
    summary["delta_alpha"] = 3.5 * summary["delta_alpha_sigma"]
    with pytest.raises(checks.CheckFailed, match="crosstalk"):
        checks.check_rb_simultaneous(summary, out)
    summary["fits"]["joint_parity"]["alpha"] += 1e-9
    with pytest.raises(checks.CheckFailed, match="joint_parity: refit"):
        checks.check_rb_simultaneous(summary, out)


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.export()
    assert inner["parent"] == 0 and outer["parent"] is None
    assert outer["self_s"] == pytest.approx(
        outer["end_s"] - outer["start_s"] - (inner["end_s"] - inner["start_s"]))


def test_refuses_to_run_without_the_program(tmp_path):
    bench = checks.__file__.rsplit("/", 1)[0]
    shutil.copytree(bench, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(f"{bench}/../BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "session", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
