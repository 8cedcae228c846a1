"""Command-line entry points.

Subcommands:

  group stats             group census and pulse statistics
  group verify            recompose every element, check inverses/closure
  rb standard             two-qubit benchmarking decay + fit
  rb interleaved          reference + interleaved decays, gate error bound
  rb simultaneous         one-qubit protocols, addressability delta
  qpt                     process tomography of a target gate
  sweep cr-rabi           single-pulse and echoed drive oscillations
  sweep tau2              error per Clifford vs calibrated segment length

Every command prints a JSON summary to stdout that includes the seed;
with --out the same summary plus CSV artifacts land in that directory.
Exit codes: 0 success, 1 invalid input or failed verification, 2 an
estimator did not converge.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import device as dev
from . import fit, pauli, rb
from . import tomography as tomo
from .cliffords import (
    CLASS_NAMES,
    CNOT,
    ISWAP,
    SWAP,
    ZX_LAYER_ID,
    Layer,
    SignedPauliPerm,
    c1_elements,
    clifford_table,
    compose_rows,
    fold_layer_ids,
    group_stats,
    layer_rows,
    single_qubit_layer,
    zx_perm,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NO_CONVERGENCE = 2


class CliError(Exception):
    """Bad command line or failed verification."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # a flag not given stays out of args
        super().__init__(argument_default=argparse.SUPPRESS, **kwargs)

    def error(self, message):  # argparse would sys.exit(2); we want 1
        raise CliError(message)


def _emit(summary: dict, out_dir: Path | None, name: str) -> None:
    text = json.dumps(summary, indent=2, sort_keys=True)
    print(text)
    if out_dir is not None:
        (out_dir / f"{name}.json").write_text(text + "\n")


def _out_dir(profile) -> Path | None:
    if not profile.out_dir:
        return None
    path = Path(profile.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _profile(args) -> cfgmod.RunProfile:
    """The --config profile with the command's flags applied on top.

    Each flag stores into the profile field it sets.  The result is
    validated as a whole, so a bad flag fails with the same field-level
    message as the same value in an INI file.
    """
    flags = vars(args)
    profile = cfgmod.load_profile(flags.get("config"))
    names = {f.name for f in dataclasses.fields(profile)}
    for name in names & flags.keys():
        setattr(profile, name, flags[name])
    cfgmod.validate(profile)
    return profile


def _fit_summary(result: fit.FitResult) -> dict:
    return {
        "a": result.a,
        "b": result.b,
        "alpha": result.alpha,
        "alpha_sigma": result.alpha_sigma,
        "r": fit.error_per_clifford(result.alpha),
        "r_sigma": fit.error_per_clifford_sigma(result.alpha_sigma),
        "chi2_red": result.chi2_red,
        "iterations": result.iterations,
        "converged": result.converged,
    }


def _gate_element(name: str) -> SignedPauliPerm:
    if name == "zx":
        return zx_perm()
    unitary = {"cnot": CNOT, "iswap": ISWAP, "swap": SWAP}[name]
    return SignedPauliPerm.from_unitary(unitary)


# --- group -------------------------------------------------------------------

def cmd_group_stats(profile, args) -> int:
    table = clifford_table()
    stats = group_stats(table)
    summary = {
        "command": "group stats",
        "seed": profile.seed,
        "n_elements": len(table),
        "class_sizes": dict(zip(CLASS_NAMES, stats.class_sizes)),
        "avg_entangling_layers": stats.avg_entangling_layers,
        "avg_pulses": stats.avg_pulses,
        "avg_pulse_slots": stats.avg_pulse_slots,
        "max_word_length": stats.max_word_length,
    }
    _emit(summary, _out_dir(profile), "group_stats")
    return EXIT_OK


def cmd_group_verify(profile, args) -> int:
    if args.closure_samples < 0:
        raise CliError("closure-samples must be non-negative")
    table = clifford_table()
    n = len(table)
    perm, sign = table.perm_array, table.sign_array
    if args.corrupt_element is not None:
        k = args.corrupt_element
        if not 0 <= k < n:
            raise CliError("corrupt-element index out of range")
        sign = sign.copy()
        sign[k, 1] = -sign[k, 1]

    # The checks run on all elements at once.  As in a pass over the
    # elements in order, the lowest failing element is reported, with
    # the first of its checks that fails.  Each layer id's Layer and
    # exact action are made here from the pulse words and gates, and the
    # circuits are folded from their layer ids.  The table's own layers
    # must equal these: device.pulse_layer_channels reads their durations.
    _, words = c1_elements()
    layers = [single_qubit_layer(wa, wb) for wa in words for wb in words]
    layers.append(Layer("zx"))
    relabelled = np.array([a != b for a, b in zip(layers, table.layers)])
    ids = table.layer_ids
    folded_perm, folded_sign = fold_layer_ids(ids, *layer_rows(layers))
    n_zx = np.count_nonzero(ids == ZX_LAYER_ID, axis=1)
    inv = table.inverse_indices
    closed_perm, closed_sign = compose_rows(perm[inv], sign[inv], perm, sign)
    checks = (
        (relabelled[ids].any(axis=1),
         "layer ids do not decode to the circuit"),
        (np.any(folded_perm != perm, axis=1)
         | np.any(folded_sign != sign, axis=1),
         "circuit does not recompose to the element"),
        # class c costs exactly c entangling layers
        (n_zx != table.class_ids,
         "entangling-layer count does not match class"),
        (np.any(closed_perm != np.arange(16), axis=1)
         | np.any(closed_sign != 1, axis=1),
         "stored inverse does not invert the element"),
    )
    failed = np.stack([mask for mask, _ in checks], axis=1)
    failing = np.flatnonzero(failed.any(axis=1))
    failure = None
    checked = n
    if failing.size:
        i = int(failing[0])
        failure = (i, checks[int(np.argmax(failed[i]))][1])
        checked = i + 1
    census = np.bincount(table.class_ids[:checked], minlength=4).tolist()

    if failure is None:
        if census != [576, 5184, 5184, 576]:
            failure = (-1, f"class census {census} is wrong")
    if failure is None:
        rng = np.random.default_rng(profile.seed)
        pairs = rng.integers(0, n, size=(args.closure_samples, 2))
        a, b = pairs[:, 0], pairs[:, 1]
        outside = np.flatnonzero(
            table.find(*compose_rows(perm[a], sign[a], perm[b], sign[b])) < 0)
        if outside.size:
            j = outside[0]
            failure = (int(a[j]), f"product with element {int(b[j])} "
                       "left the group")

    summary = {
        "command": "group verify",
        "seed": profile.seed,
        "n_elements": n,
        "class_sizes": dict(zip(CLASS_NAMES, census)),
        "closure_samples": args.closure_samples,
        "passed": failure is None,
    }
    if failure is not None:
        index, reason = failure
        summary["failed_element"] = index
        summary["reason"] = reason
        if 0 <= index < n:
            summary["element_class"] = CLASS_NAMES[table.class_ids[index]]
    _emit(summary, _out_dir(profile), "group_verify")
    if failure is not None:
        print(f"verification failed at element {failure[0]}: {failure[1]}",
              file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


# --- rb ----------------------------------------------------------------------

def cmd_rb_standard(profile, args) -> int:
    table = clifford_table()
    cfg = profile.rb_config()
    ds = rb.run_rb(cfg, table, profile.noise(table), profile.spam)
    result = rb.fit_dataset(ds)
    out = _out_dir(profile)
    if out is not None:
        rb.write_decay_csv(out / "rb_standard.csv", [ds])
    summary = {
        "command": "rb standard",
        "protocol": "standard",
        "seed": cfg.seed,
        "shots": cfg.shots,
        "noise_model": profile.noise_model,
        "lengths": list(cfg.lengths),
        "sequences": cfg.n_sequences,
        **_fit_summary(result),
    }
    _emit(summary, out, "rb_standard")
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_rb_interleaved(profile, args) -> int:
    table = clifford_table()
    cfg = profile.rb_config()
    noise = profile.noise(table)
    gate_index = table.index_of(_gate_element(profile.interleaved_gate))
    reference = rb.run_rb(cfg, table, noise, profile.spam)
    interleaved = rb.run_interleaved(cfg, table, noise, gate_index,
                                     profile.spam)
    fit_ref = rb.fit_dataset(reference)
    fit_int = rb.fit_dataset(interleaved)
    estimate = fit.interleaved_error(
        fit_ref.alpha, fit_int.alpha,
        alpha_sigma=fit_ref.alpha_sigma, alpha_c_sigma=fit_int.alpha_sigma,
    )
    out = _out_dir(profile)
    if out is not None:
        rb.write_decay_csv(out / "rb_interleaved.csv",
                           [reference, interleaved])
    summary = {
        "command": "rb interleaved",
        "seed": cfg.seed,
        "shots": cfg.shots,
        "noise_model": profile.noise_model,
        "gate": profile.interleaved_gate,
        "alpha": fit_ref.alpha,
        "alpha_sigma": fit_ref.alpha_sigma,
        "alpha_c": fit_int.alpha,
        "alpha_c_sigma": fit_int.alpha_sigma,
        "r_gate": estimate.r_c,
        "r_gate_sigma": estimate.sigma,
        "suspect": estimate.suspect,
        "reference_converged": fit_ref.converged,
        "interleaved_converged": fit_int.converged,
    }
    _emit(summary, out, "rb_interleaved")
    if not (fit_ref.converged and fit_int.converged):
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_rb_simultaneous(profile, args) -> int:
    table = clifford_table()
    cfg = profile.rb_config()
    result = rb.run_simultaneous(cfg, profile.noise(table), profile.spam)
    delta, delta_sigma = result.delta_alpha()
    out = _out_dir(profile)
    if out is not None:
        rb.write_decay_csv(out / "rb_simultaneous.csv",
                           list(result.datasets.values()))
    summary = {
        "command": "rb simultaneous",
        "seed": cfg.seed,
        "shots": cfg.shots,
        "noise_model": profile.noise_model,
        "delta_alpha": delta,
        "delta_alpha_sigma": delta_sigma,
        "fits": {
            key: {
                "alpha": f.alpha,
                "alpha_sigma": f.alpha_sigma,
                "converged": f.converged,
            }
            for key, f in result.fits.items()
        },
    }
    _emit(summary, out, "rb_simultaneous")
    if not all(f.converged for f in result.fits.values()):
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


# --- qpt ---------------------------------------------------------------------

def cmd_qpt(profile, args) -> int:
    table = clifford_table()
    if profile.qpt_target == "identity":
        index = table.index_of(SignedPauliPerm.identity(2))
    else:
        index = table.index_of(_gate_element(profile.qpt_target))
    ideal = table.ptm(index)
    channel = profile.noise(table).clifford_channel(index)
    data = tomo.simulate_qpt(channel, spam=profile.spam,
                             shots=profile.qpt_shots, seed=profile.seed)
    assumed = profile.spam if profile.qpt_spam_aware else None
    report = tomo.qpt_report(data, ideal, spam=assumed)
    out = _out_dir(profile)
    if out is not None:
        tomo.write_qpt_csv(out / "qpt_probabilities.csv", data)
        with open(out / "qpt_ptm.csv", "w", newline="") as handle:
            handle.write(f"# seed={data.seed}\n")
            writer = csv.writer(handle)
            writer.writerow(pauli.pauli_labels(2))
            writer.writerows(
                [repr(float(v)) for v in row] for row in report.ptm
            )
    summary = {
        "command": "qpt",
        "seed": data.seed,
        "shots": data.shots,
        "target": profile.qpt_target,
        "noise_model": profile.noise_model,
        "spam_aware": profile.qpt_spam_aware,
        "fidelity_raw": report.fidelity_raw,
        "fidelity": report.fidelity,
        "distance_to_simulated_channel": float(
            np.linalg.norm(report.ptm - channel)
        ),
        "min_eigenvalue": report.projection.min_eigenvalue,
        "tp_residual": report.projection.tp_residual,
        "projection_iterations": report.projection.iterations,
        "projection_converged": report.projection.converged,
    }
    _emit(summary, out, "qpt")
    return EXIT_OK if report.projection.converged else EXIT_NO_CONVERGENCE


# --- sweeps ------------------------------------------------------------------

def cmd_sweep_cr_rabi(profile, args) -> int:
    params = profile.device
    # first, so that a drive no segment length calibrates writes nothing
    calibrated_tau2 = dev.calibrated_tau2(params)
    taus = np.linspace(profile.rabi_start, profile.rabi_stop,
                       profile.rabi_points)
    curves = {
        "single_control0": dev.cr_rabi_sweep(params, taus, False),
        "single_control1": dev.cr_rabi_sweep(params, taus, True),
        "echo_control0": dev.echoed_rabi_sweep(params, taus, False),
        "echo_control1": dev.echoed_rabi_sweep(params, taus, True),
    }
    out = _out_dir(profile)
    if out is not None:
        with open(out / "sweep_cr_rabi.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["tau_ns", *curves, "seed"])
            for k, tau in enumerate(taus):
                writer.writerow(
                    [repr(float(tau))]
                    + [repr(float(c[k])) for c in curves.values()]
                    + [profile.seed]
                )
    eps, m, mu = params.cr_epsilon, params.cr_m, params.cr_mu
    summary = {
        "command": "sweep cr-rabi",
        "seed": profile.seed,
        "tau_ns": [float(taus[0]), float(taus[-1])],
        "points": profile.rabi_points,
        "omega_control0_rad_per_ns": 2.0 * eps * (m - mu),
        "omega_control1_rad_per_ns": 2.0 * eps * (m + mu),
        "omega_echo_rad_per_ns": 4.0 * eps * mu,
        "calibrated_tau2_ns": calibrated_tau2,
    }
    _emit(summary, out, "sweep_cr_rabi")
    return EXIT_OK


def cmd_sweep_tau2(profile, args) -> int:
    table = clifford_table()
    grid = np.linspace(profile.tau2_start, profile.tau2_stop,
                       profile.tau2_points)
    cfg = profile.rb_config()
    rows = []
    all_converged = True
    for tau2 in grid:
        # tau2 = 0 is the instantaneous-rotation limit: the calibrated
        # angle is fixed at pi/4 while the segments shrink, leaving only
        # the two echo pulses' worth of decoherence in the layer.
        params = profile.device.with_calibration(max(float(tau2), 1e-9))
        point = rb.sweep_point(cfg, rb.DeviceNoiseModel(params, table),
                               profile.spam)
        result, limit_fit, ceiling_fit = map(rb.fit_dataset, point)
        all_converged &= (result.converged and limit_fit.converged
                          and ceiling_fit.converged)
        rows.append({
            "tau2_ns": float(tau2),
            "r": fit.error_per_clifford(result.alpha),
            "r_sigma": fit.error_per_clifford_sigma(result.alpha_sigma),
            "r_limit_t2": fit.error_per_clifford(limit_fit.alpha),
            "r_limit_2t1": fit.error_per_clifford(ceiling_fit.alpha),
            "alpha": result.alpha,
            "converged": result.converged,
            "seed": cfg.seed,
        })
    out = _out_dir(profile)
    if out is not None:
        with open(out / "sweep_tau2.csv", "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    summary = {
        "command": "sweep tau2",
        "seed": cfg.seed,
        "shots": cfg.shots,
        "points": rows,
    }
    _emit(summary, out, "sweep_tau2")
    return EXIT_OK if all_converged else EXIT_NO_CONVERGENCE


# --- parser ------------------------------------------------------------------

def _add_run_options(p) -> None:
    p.add_argument("--config", help="INI run profile")
    p.add_argument("--seed", type=int, help="campaign seed")
    p.add_argument("--out", dest="out_dir",
                   help="directory for CSV/JSON artifacts")


def _add_shot_options(p, dest: str) -> None:
    """--exact and --shots, which set the shot budget ``dest``."""
    shots = p.add_mutually_exclusive_group()
    shots.add_argument("--exact", dest=dest, action="store_const", const=None,
                       help="exact probabilities instead of sampled shots")
    shots.add_argument("--shots", dest=dest, type=int,
                       help="shots per data point")


def _add_campaign_options(p) -> None:
    """Run and shot options plus the RB campaign's lengths and sequences."""
    _add_run_options(p)
    _add_shot_options(p, "shots")
    p.add_argument("--lengths", type=cfgmod.parse_lengths,
                   help="sequence lengths, e.g. 1-20 or 1,2,4,8")
    p.add_argument("--sequences", type=int, help="sequences per length")


def _add_sweep_options(p, prefix: str) -> None:
    """--start, --stop and --points of the profile's ``prefix`` grid."""
    p.add_argument("--start", dest=f"{prefix}_start", type=float)
    p.add_argument("--stop", dest=f"{prefix}_stop", type=float)
    p.add_argument("--points", dest=f"{prefix}_points", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rbsim",
                     description="Two-qubit randomized benchmarking toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    group = sub.add_parser("group", help="Clifford group table")
    group_sub = group.add_subparsers(dest="subcommand", required=True)
    stats = group_sub.add_parser("stats", help="census and pulse counts")
    _add_run_options(stats)
    stats.set_defaults(func=cmd_group_stats)
    verify = group_sub.add_parser("verify", help="full structural check")
    _add_run_options(verify)
    verify.add_argument("--closure-samples", type=int, default=10_000)
    verify.add_argument("--corrupt-element", type=int, default=None,
                        help="negate one sign of this element first "
                             "(defect-injection self test)")
    verify.set_defaults(func=cmd_group_verify)

    rb_cmd = sub.add_parser("rb", help="randomized benchmarking")
    rb_sub = rb_cmd.add_subparsers(dest="subcommand", required=True)
    standard = rb_sub.add_parser("standard", help="two-qubit decay")
    _add_campaign_options(standard)
    standard.set_defaults(func=cmd_rb_standard)
    inter = rb_sub.add_parser("interleaved", help="fixed-gate error bound")
    _add_campaign_options(inter)
    inter.add_argument("--gate", dest="interleaved_gate",
                       choices=cfgmod.GATE_NAMES)
    inter.set_defaults(func=cmd_rb_interleaved)
    simul = rb_sub.add_parser("simultaneous", help="one-qubit protocols")
    _add_campaign_options(simul)
    simul.set_defaults(func=cmd_rb_simultaneous)

    qpt = sub.add_parser("qpt", help="process tomography")
    _add_run_options(qpt)
    _add_shot_options(qpt, "qpt_shots")
    qpt.add_argument("--target", dest="qpt_target",
                     choices=cfgmod.QPT_TARGETS)
    qpt.add_argument("--spam-aware", dest="qpt_spam_aware",
                     action="store_true",
                     help="invert with the true SPAM model")
    qpt.set_defaults(func=cmd_qpt)

    sweep = sub.add_parser("sweep", help="device response scans")
    sweep_sub = sweep.add_subparsers(dest="subcommand", required=True)
    rabi = sweep_sub.add_parser("cr-rabi", help="drive-length oscillations")
    _add_run_options(rabi)
    _add_sweep_options(rabi, "rabi")
    rabi.set_defaults(func=cmd_sweep_cr_rabi)
    tau2 = sweep_sub.add_parser("tau2",
                                help="benchmark vs calibrated segment length")
    _add_campaign_options(tau2)
    _add_sweep_options(tau2, "tau2")
    tau2.set_defaults(func=cmd_sweep_tau2)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(_profile(args), args)
    except (CliError, cfgmod.ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
