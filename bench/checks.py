"""Output checks for the benchmark's rbsim commands.

Every reference value is computed here, apart from the command's own
output path, and never read from a stored copy:

- standard RB: the fitted decay alpha equals the depolarizing parameter
  of the group-averaged noise, (Tr(mean_k R_k C_k^T) - 1) / 15, where
  R_k is the noisy and C_k the ideal transfer matrix of element k
  (Magesan, Gambetta & Emerson, arXiv:1009.3639);
- interleaved RB: r_gate equals 1 - F_avg of the interleaved element's
  own noisy transfer matrix (Magesan et al., arXiv:1203.4550);
- tau2 sweep: the device error sits on its T2 decoherence limit, which
  lies above the 2*T1 ceiling, and both limits grow with tau2;
- group verify passes with the 576/5184/5184/576 class census;
- tomography: the written transfer matrix is completely positive and
  trace preserving;
- decay CSVs: refitting the written rows reproduces the printed fits.

Each check raises CheckFailed with the offending numbers.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rbsim import config, pauli, rb
from rbsim.cliffords import CLASS_NAMES, clifford_table, zx_perm

SIGMAS = 3.0
CSV_ALPHA_TOL = 1e-12
CPTP_TOL = 1e-9
CLASS_CENSUS = (576, 5184, 5184, 576)


class CheckFailed(Exception):
    """A command's output disagrees with its independent prediction."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Predictions:
    """Closed-form predictions for the default device of the CLI."""

    alpha: float      # twirl of the per-Clifford channels
    zx_error: float   # 1 - F_avg of the ZX element's own channel


@functools.cache
def predictions() -> Predictions:
    """Computed once per process, the first time a check needs it."""
    table = clifford_table()
    noise = rb.DeviceNoiseModel(config.load_profile(None).device, table)
    trace = sum(
        float(np.trace(noise.clifford_channel(k) @ table.elements[k].to_ptm().T))
        for k in range(len(table))
    )
    zx = table.index_of(zx_perm())
    f_avg = pauli.avg_gate_fidelity(noise.clifford_channel(zx),
                                    table.elements[zx].to_ptm())
    return Predictions(alpha=(trace / len(table) - 1.0) / 15.0,
                       zx_error=1.0 - f_avg)


def jackknife_alpha_sigma(ds: rb.DecayDataset, b0: float = 0.25) -> float:
    """Delete-one-sequence jackknife error of the fitted alpha.

    All truncations of one sequence share its prefix, so the per-length
    means are correlated; leaving out whole sequences keeps that
    correlation, which the fit's own per-point error bars do not.
    """
    n = ds.survivals.shape[1]
    alphas = np.array([
        rb.fit_dataset(
            rb.DecayDataset(ds.protocol, ds.seed, ds.lengths,
                            np.delete(ds.survivals, i, axis=1), ds.shots),
            b0=b0,
        ).alpha
        for i in range(n)
    ])
    return float(math.sqrt((n - 1) / n * np.sum((alphas - alphas.mean()) ** 2)))


# --- checks on values --------------------------------------------------------

def check_twirl_alpha(alpha: float, ds: rb.DecayDataset) -> None:
    pred = predictions()
    sigma = jackknife_alpha_sigma(ds)
    require(abs(alpha - pred.alpha) <= SIGMAS * sigma,
            f"alpha {alpha:.6f} is {abs(alpha - pred.alpha) / sigma:.2f} "
            f"sigma (jackknife {sigma:.2e}) from the twirl prediction "
            f"{pred.alpha:.6f}")


def check_gate_error(r_gate: float, r_sigma: float) -> None:
    pred = predictions()
    require(abs(r_gate - pred.zx_error) <= SIGMAS * r_sigma,
            f"r_gate {r_gate:.5f} +- {r_sigma:.5f} misses 1 - F_avg "
            f"{pred.zx_error:.5f} by more than {SIGMAS:g} sigma")


def check_sweep_rows(rows: list[dict]) -> None:
    require(len(rows) >= 2, f"sweep has {len(rows)} points")
    for row in rows:
        gap = abs(row["r"] - row["r_limit_t2"])
        require(gap <= SIGMAS * row["r_sigma"],
                f"tau2={row['tau2_ns']}: r {row['r']:.5f} misses the T2 "
                f"limit {row['r_limit_t2']:.5f} by {gap / row['r_sigma']:.2f} "
                "sigma")
        require(row["r_limit_2t1"] < row["r_limit_t2"],
                f"tau2={row['tau2_ns']}: 2*T1 ceiling {row['r_limit_2t1']} "
                f"is not below the T2 limit {row['r_limit_t2']}")
    for key in ("r_limit_t2", "r_limit_2t1"):
        values = [row[key] for row in rows]
        require(all(a < b for a, b in zip(values, values[1:])),
                f"{key} does not increase strictly with tau2: {values}")


def check_group_verify(summary: dict) -> None:
    require(summary.get("passed") is True,
            f"group verify failed: {summary.get('reason')}")
    census = tuple(summary["class_sizes"][name] for name in CLASS_NAMES)
    require(census == CLASS_CENSUS, f"class census {census}")


def check_cptp(ptm: np.ndarray) -> None:
    chi = pauli.choi_from_ptm(ptm)
    min_eig = float(np.linalg.eigvalsh((chi + chi.conj().T) / 2.0).min())
    tp = pauli.choi_tp_residual(chi)
    require(min_eig >= -CPTP_TOL, f"Choi minimum eigenvalue {min_eig:.3e}")
    require(tp <= CPTP_TOL, f"trace-preservation residual {tp:.3e}")


def check_delta_alpha(summary: dict) -> None:
    delta, sigma = summary["delta_alpha"], summary["delta_alpha_sigma"]
    require(abs(delta) <= SIGMAS * sigma,
            f"crosstalk delta_alpha {delta:.5f} +- {sigma:.5f} is not null")


def check_refit(ds: rb.DecayDataset, alpha: float, b0: float = 0.25) -> None:
    refit = rb.fit_dataset(ds, b0=b0).alpha
    require(abs(refit - alpha) <= CSV_ALPHA_TOL,
            f"{ds.protocol}: refit alpha {refit!r} != printed {alpha!r}")


# --- checks on command outputs -----------------------------------------------

def _read_ptm_csv(path: Path, seed: int) -> np.ndarray:
    with open(path, newline="") as handle:
        first = handle.readline().strip()
        require(first == f"# seed={seed}", f"{path.name} starts {first!r}")
        rows = list(csv.reader(handle))
    require(tuple(rows[0]) == pauli.pauli_labels(2),
            f"{path.name} header {rows[0]}")
    ptm = np.array([[float(v) for v in row] for row in rows[1:]])
    require(ptm.shape == (16, 16), f"{path.name} holds a {ptm.shape} matrix")
    return ptm


def check_rb_standard(summary: dict, out: Path) -> None:
    ds = rb.read_decay_csv(out / "rb_standard.csv")["standard"]
    require(ds.survivals.shape == (len(summary["lengths"]),
                                   summary["sequences"]),
            f"decay CSV holds {ds.survivals.shape} points")
    check_refit(ds, summary["alpha"])
    check_twirl_alpha(summary["alpha"], ds)


def check_rb_interleaved(summary: dict, out: Path) -> None:
    data = rb.read_decay_csv(out / "rb_interleaved.csv")
    check_refit(data["standard"], summary["alpha"])
    check_refit(data["interleaved"], summary["alpha_c"])
    check_gate_error(summary["r_gate"], summary["r_gate_sigma"])


SIMULTANEOUS_FITS = {
    "alpha1": "simultaneous_q1",
    "alpha2": "simultaneous_q2",
    "joint_q1": "simultaneous_joint_q1",
    "joint_q2": "simultaneous_joint_q2",
    "joint_parity": "simultaneous_joint_parity",
}


def check_rb_simultaneous(summary: dict, out: Path) -> None:
    data = rb.read_decay_csv(out / "rb_simultaneous.csv")
    for key, protocol in SIMULTANEOUS_FITS.items():
        check_refit(data[protocol], summary["fits"][key]["alpha"], b0=0.5)
    check_delta_alpha(summary)


def check_qpt(summary: dict, out: Path) -> None:
    check_cptp(_read_ptm_csv(out / "qpt_ptm.csv", summary["seed"]))


def check_sweep_tau2(summary: dict, out: Path) -> None:
    check_sweep_rows(summary["points"])


def check_verify(summary: dict, out: Path) -> None:
    check_group_verify(summary)


CHECKS = {
    "group verify": check_verify,
    "rb standard": check_rb_standard,
    "rb interleaved": check_rb_interleaved,
    "rb simultaneous": check_rb_simultaneous,
    "qpt": check_qpt,
    "sweep tau2": check_sweep_tau2,
}
