"""End-to-end acceptance gate.

Every test here prints exactly one ``[acceptance] <name>: PASS|FAIL``
line on the real terminal (bypassing capture) so the whole gate can be
read at a glance from any pytest run.  Tolerances are pinned literals;
nothing is derived from the data being checked.
"""

import dataclasses
import json
import math
import time

import numpy as np

from rbsim import cli, fit, pauli, rb
from rbsim import device as dev
from rbsim import tomography as tomo
from rbsim.cliffords import (
    ZX_UNITARY,
    SignedPauliPerm,
    clifford_table,
    group_stats,
    twirl_ptm,
)


def _report(capsys, name, checks, detail=""):
    ok = all(checks.values())
    failed = [key for key, passed in checks.items() if not passed]
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" | {detail}"
    if failed:
        line += f" | failed: {', '.join(failed)}"
    with capsys.disabled():
        print(line)
    assert ok, f"{name} failed: {failed}"


def test_group_construction_and_verification(capsys):
    start = time.perf_counter()
    clifford_table.cache_clear()
    code = cli.main(["group", "verify", "--closure-samples", "10000"])
    summary = json.loads(capsys.readouterr().out)
    table = clifford_table()
    distinct = len({elem.key for elem in table.elements})
    stats = group_stats(table)
    elapsed = time.perf_counter() - start
    checks = {
        "verify exits 0": code == 0,
        "verify passed": summary["passed"] is True,
        "11520 distinct elements": summary["n_elements"] == 11520
        and distinct == 11520,
        "class census": tuple(stats.class_sizes) == (576, 5184, 5184, 576),
        "mean entangling layers exactly 1.5":
            stats.avg_entangling_layers == 1.5,
        "mean pulses >= 3.8": stats.avg_pulses >= 3.8,
        "runtime <= 60 s": elapsed <= 60.0,
    }
    _report(
        capsys, "group construction", checks,
        f"n={distinct} census={tuple(stats.class_sizes)} "
        f"entanglers={stats.avg_entangling_layers} "
        f"pulses={stats.avg_pulses:.4f} elapsed={elapsed:.1f}s",
    )


def test_echo_cancels_everything_but_the_zx_rotation(capsys):
    rng = np.random.default_rng(20250815)
    zx = np.kron(pauli.SIGMA_Z, pauli.SIGMA_X)
    x_pi = -1j * np.kron(pauli.SIGMA_X, np.eye(2))
    worst = 0.0
    for _ in range(1000):
        p = dev.DeviceParams(
            cr_m=rng.uniform(0.2, 3.0),
            cr_mu=rng.uniform(0.01, 0.6),
            cr_eta=rng.uniform(0.0, 0.8),
            cr_epsilon=rng.uniform(0.001, 0.12),
            tau2_ns=rng.uniform(5.0, 600.0),
        )
        theta = 2.0 * p.cr_epsilon * p.cr_mu * p.tau2_ns
        target = math.cos(theta) * np.eye(4) + 1j * math.sin(theta) * zx
        stripped = x_pi.conj().T @ dev.echoed_cr_unitary(p)
        worst = max(worst, float(np.max(np.abs(stripped - target))))
    checks = {"max deviation < 1e-10 over 1000 draws": worst < 1e-10}
    _report(capsys, "echo identity", checks, f"worst={worst:.3e}")


def test_depolarizing_decay_recovers_the_injected_rate(capsys):
    table = clifford_table()
    cfg = rb.RBConfig(lengths=tuple(range(1, 13)), n_sequences=8,
                      shots=None, seed=11)
    worst = 0.0
    for p in (0.999, 0.99, 0.9):
        noise = rb.InjectedNoiseModel(table, rb.depolarizing_ptm(p))
        fitted = rb.fit_dataset(rb.run_rb(cfg, table, noise))
        worst = max(worst, abs(fitted.alpha - p))
    checks = {
        "fitted alpha = p to 1e-6": worst < 1e-6,
        "two-qubit r prints 0.0936":
            f"{fit.error_per_clifford(0.8752):.4f}" == "0.0936",
        "one-qubit r prints 0.0041":
            f"{fit.error_per_clifford(0.9918, d=2):.4f}" == "0.0041",
    }
    _report(capsys, "depolarizing oracle", checks, f"worst={worst:.3e}")


def test_interleaving_isolates_the_gate_error(capsys):
    table = clifford_table()
    p_c, p_g = 0.8752, 0.91293
    noise = rb.InjectedNoiseModel(
        table, rb.depolarizing_ptm(p_c), gate_noise=rb.depolarizing_ptm(p_g)
    )
    cfg = rb.RBConfig(lengths=tuple(range(1, 13)), n_sequences=8,
                      shots=None, seed=13)
    reference = rb.fit_dataset(rb.run_rb(cfg, table, noise))
    interleaved = rb.fit_dataset(
        rb.run_interleaved(cfg, table, noise, ZX_UNITARY)
    )
    estimate = fit.interleaved_error(reference.alpha, interleaved.alpha)
    closed_form = round((3.0 / 4.0) * (1.0 - 0.7990 / 0.8752), 4)
    checks = {
        "fitted r_C within 1e-3 of 0.0653":
            abs(estimate.r_c - 0.0653) <= 1e-3,
        "ratio arithmetic gives 0.0653": closed_form == 0.0653,
    }
    _report(
        capsys, "interleaved formula", checks,
        f"alpha={reference.alpha:.6f} alpha_c={interleaved.alpha:.6f} "
        f"r_C={estimate.r_c:.6f}",
    )


def test_group_average_twirls_any_channel_to_depolarizing(capsys):
    table = clifford_table()
    rng = np.random.default_rng(55)
    raw = rng.standard_normal((32, 4)) + 1j * rng.standard_normal((32, 4))
    isometry, _ = np.linalg.qr(raw)
    kraus = [isometry[4 * k:4 * (k + 1), :] for k in range(8)]
    channel = pauli.kraus_to_ptm(kraus)
    twirled = twirl_ptm(channel, table)
    alpha = (np.trace(channel) - 1.0) / 15.0
    off_diagonal = twirled - np.diag(np.diag(twirled))
    checks = {
        "off-diagonal < 1e-10": np.max(np.abs(off_diagonal)) < 1e-10,
        "identity row preserved": abs(twirled[0, 0] - 1.0) < 1e-10,
        "uniform decay = (Tr R - 1)/15 to 1e-10":
            np.max(np.abs(np.diag(twirled)[1:] - alpha)) < 1e-10,
    }
    _report(capsys, "twirl theorem", checks, f"alpha={alpha:.6f}")


def test_readout_errors_move_tomography_but_not_the_decay(capsys):
    table = clifford_table()
    params = dev.DeviceParams().with_calibration()
    noise = rb.DeviceNoiseModel(params, table)
    spam = dev.SpamModel.symmetric(thermal=0.01, misassignment=0.02)
    cfg = rb.RBConfig(lengths=tuple(range(1, 21)), n_sequences=20,
                      shots=None, seed=17)

    clean = rb.fit_dataset(rb.run_rb(cfg, table, noise))
    spammed = rb.fit_dataset(rb.run_rb(cfg, table, noise, spam))
    alpha_shift = abs(spammed.alpha - clean.alpha)

    gate = table.index_of(SignedPauliPerm.from_unitary(ZX_UNITARY))
    interleaved = rb.fit_dataset(
        rb.run_interleaved(cfg, table, noise, gate, spam)
    )
    gate_error = fit.interleaved_error(spammed.alpha, interleaved.alpha).r_c
    rb_implied = 1.0 - gate_error

    channel = noise.clifford_channel(gate)
    ideal = table.elements[gate].to_ptm()
    clean_qpt = tomo.qpt_report(tomo.simulate_qpt(channel), ideal)
    blind_qpt = tomo.qpt_report(tomo.simulate_qpt(channel, spam=spam), ideal)
    drop = clean_qpt.fidelity - blind_qpt.fidelity
    checks = {
        "alpha shift < 1e-3": alpha_shift < 1e-3,
        "tomography fidelity drop >= 0.02": drop >= 0.02,
        "decay-implied fidelity above blind tomography":
            rb_implied > blind_qpt.fidelity,
    }
    _report(
        capsys, "readout-error separation", checks,
        f"shift={alpha_shift:.2e} drop={drop:.4f} "
        f"implied={rb_implied:.4f} blind={blind_qpt.fidelity:.4f}",
    )


def test_device_error_lands_inside_the_coherence_band(capsys):
    start = time.perf_counter()
    table = clifford_table()
    params = dev.DeviceParams().with_calibration()
    noise = rb.DeviceNoiseModel(params, table)
    cfg = rb.RBConfig(lengths=tuple(range(1, 21)), n_sequences=40,
                      shots=None, seed=2025)

    exact = rb.fit_dataset(rb.run_rb(cfg, table, noise))
    r_exact = fit.error_per_clifford(exact.alpha)
    r_ceiling, _ = rb.coherence_limit_r(cfg, noise)
    r_floor, _ = rb.coherence_limit_r(cfg, noise, t1_limited=True)

    sampled = rb.fit_dataset(
        rb.run_rb(dataclasses.replace(cfg, shots=1000), table, noise)
    )
    r_sampled = fit.error_per_clifford(sampled.alpha)
    sigma_r = fit.error_per_clifford_sigma(sampled.alpha_sigma)
    elapsed = time.perf_counter() - start
    checks = {
        "r inside [2T1 limit, T2 limit]":
            r_floor - 1e-12 <= r_exact <= r_ceiling + 1e-12,
        "r inside [0.05, 0.15]": 0.05 <= r_exact <= 0.15,
        "1000-shot rerun within 3 sigma":
            abs(r_sampled - r_exact) <= 3.0 * sigma_r,
        "runtime <= 600 s": elapsed <= 600.0,
    }
    _report(
        capsys, "coherence band", checks,
        f"r={r_exact:.5f} band=[{r_floor:.5f}, {r_ceiling:.5f}] "
        f"shots z={abs(r_sampled - r_exact) / sigma_r:.2f} "
        f"elapsed={elapsed:.1f}s",
    )


def test_uncorrelated_noise_gives_a_null_crosstalk_statistic(capsys):
    table = clifford_table()
    noise = rb.InjectedNoiseModel(
        table,
        np.kron(rb.depolarizing_ptm(0.97, 1), rb.depolarizing_ptm(0.98, 1)),
    )
    deltas = []
    for rep in range(20):
        cfg = rb.RBConfig(lengths=tuple(range(1, 16)), n_sequences=12,
                          shots=400, seed=8000 + rep)
        deltas.append(rb.run_simultaneous(cfg, noise).delta_alpha()[0])
    deltas = np.asarray(deltas)
    stderr = deltas.std(ddof=1) / math.sqrt(len(deltas))
    closed_form = round(fit.delta_alpha(0.9745, 0.9865, 0.9876)[0], 4)
    checks = {
        "mean delta consistent with zero at 2 sigma":
            abs(deltas.mean()) < 2.0 * stderr,
        "reference arithmetic rounds to 0.0002": closed_form == 0.0002,
    }
    _report(
        capsys, "crosstalk null", checks,
        f"mean={deltas.mean():+.5f} stderr={stderr:.5f} "
        f"z={abs(deltas.mean()) / stderr:.2f}",
    )


def test_fitter_against_finite_differences_and_chi2_statistics(capsys):
    rng = np.random.default_rng(99)
    lengths = np.arange(1.0, 21.0)

    worst_jacobian = 0.0
    step = 1e-6
    for _ in range(50):
        a = rng.uniform(0.3, 0.9)
        b = rng.uniform(0.1, 0.4)
        alpha = rng.uniform(0.7, 0.999)
        analytic = fit.decay_jacobian(lengths, a, alpha)
        numeric = np.empty_like(analytic)
        for col, (da, db, dalpha) in enumerate(
            ((step, 0.0, 0.0), (0.0, step, 0.0), (0.0, 0.0, step))
        ):
            hi = fit.decay_model(lengths, a + da, b + db, alpha + dalpha)
            lo = fit.decay_model(lengths, a - da, b - db, alpha - dalpha)
            numeric[:, col] = (hi - lo) / (2.0 * step)
        scale = np.maximum(np.abs(analytic), 1.0)
        worst_jacobian = max(
            worst_jacobian, float(np.max(np.abs(numeric - analytic) / scale))
        )

    truth = (0.7, 0.25, 0.93)
    clean = fit.fit_decay(
        lengths, fit.decay_model(lengths, *truth), np.full(20, 1e-3)
    )
    recovery = max(
        abs(clean.a - truth[0]), abs(clean.b - truth[1]),
        abs(clean.alpha - truth[2]),
    )

    sigma = 0.004
    chi2_values = []
    unconverged = 0
    for _ in range(1000):
        noisy = fit.decay_model(lengths, *truth) + rng.normal(0.0, sigma, 20)
        result = fit.fit_decay(lengths, noisy, np.full(20, sigma))
        chi2_values.append(result.chi2_red)
        unconverged += not result.converged
    chi2_mean = float(np.mean(chi2_values))
    checks = {
        "jacobian matches finite differences to 1e-6": worst_jacobian < 1e-6,
        "noiseless recovery to 1e-9": recovery < 1e-9,
        "chi2_red mean within 1 +/- 0.1": 0.9 <= chi2_mean <= 1.1,
        "all noisy fits converged": unconverged == 0,
    }
    _report(
        capsys, "fitter validation", checks,
        f"jac={worst_jacobian:.2e} recovery={recovery:.2e} "
        f"chi2_mean={chi2_mean:.4f}",
    )


def test_tomography_round_trip_and_projection_guarantees(capsys):
    table = clifford_table()
    rng = np.random.default_rng(123)
    worst_round_trip = 0.0
    min_eigenvalue = 0.0
    worst_tp = 0.0
    all_converged = True

    picks = rng.choice(len(table), size=50, replace=False)
    for index in picks:
        truth = table.elements[int(index)].to_ptm()
        estimate = tomo.linear_inversion_ptm(tomo.simulate_qpt(truth))
        worst_round_trip = max(
            worst_round_trip, float(np.max(np.abs(estimate - truth)))
        )
        projected = tomo.project_cptp(estimate)
        min_eigenvalue = min(min_eigenvalue, projected.min_eigenvalue)
        worst_tp = max(worst_tp, projected.tp_residual)
        all_converged &= projected.converged

    for _ in range(20):
        index = int(rng.integers(len(table)))
        perturbed = (
            table.elements[index].to_ptm()
            + 1e-3 * rng.standard_normal((16, 16))
        )
        projected = tomo.project_cptp(perturbed)
        min_eigenvalue = min(min_eigenvalue, projected.min_eigenvalue)
        worst_tp = max(worst_tp, projected.tp_residual)
        all_converged &= projected.converged

    checks = {
        "50 exact reconstructions to 1e-9": worst_round_trip <= 1e-9,
        "Choi eigenvalue floor >= -1e-9": min_eigenvalue >= -1e-9,
        "trace-preservation residual <= 1e-9": worst_tp <= 1e-9,
        "projections converged": all_converged,
    }
    _report(
        capsys, "tomography round trip", checks,
        f"round_trip={worst_round_trip:.2e} min_eig={min_eigenvalue:.2e} "
        f"tp={worst_tp:.2e}",
    )
