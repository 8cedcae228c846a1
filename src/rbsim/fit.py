"""Weighted exponential-decay fitting and error-rate conversions.

The decay model is F(i) = A*alpha**i + B.  Fitting is damped least
squares (Levenberg-Marquardt) with the analytic Jacobian; 1-sigma
parameter uncertainties come from the linearized covariance (inverse
Gauss-Newton normal matrix scaled by the residual variance), matching
the usual Jacobian-based confidence intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_ITERATIONS = 200
MIN_POINTS = 4  # one more than the parameters A, alpha and B
REL_CHI2_TOL = 1e-10


@dataclass(frozen=True)
class FitResult:
    a: float
    b: float
    alpha: float
    a_sigma: float
    b_sigma: float
    alpha_sigma: float
    chi2_red: float
    iterations: int
    converged: bool
    degenerate: bool = False

    @property
    def alpha_physical(self) -> bool:
        """True when alpha lies in (0, 1]; out-of-range fits are flagged
        here rather than clamped."""
        return 0.0 < self.alpha <= 1.0


def decay_model(lengths: np.ndarray, a: float, b: float, alpha: float) -> np.ndarray:
    return a * np.power(alpha, lengths) + b


def decay_jacobian(lengths: np.ndarray, a: float, alpha: float) -> np.ndarray:
    """Columns: dF/dA = alpha**i, dF/dB = 1, dF/dalpha = A*i*alpha**(i-1)."""
    cols = np.empty((len(lengths), 3))
    cols[:, 0] = np.power(alpha, lengths)
    cols[:, 1] = 1.0
    cols[:, 2] = a * lengths * np.power(alpha, lengths - 1)
    return cols


def _initial_guess(lengths, means, b0):
    a0 = means[0] - b0
    shifted = means - b0
    # Take the log-slope over the head of the decay only: up to the first
    # point below 1/e of the first (at least 2 points).  A long flat tail
    # is scatter around zero and would start the fit near alpha = 1.
    below = np.flatnonzero(shifted < a0 / math.e)
    head = max(int(below[0]) + 1, 2) if a0 > 0 and below.size else len(means)
    lengths, shifted = lengths[:head], shifted[:head]
    usable = shifted > 1e-12
    if np.count_nonzero(usable) >= 2:
        slope = np.polyfit(lengths[usable], np.log(shifted[usable]), 1)[0]
        alpha0 = float(np.exp(slope))
        alpha0 = min(max(alpha0, 1e-3), 1.0)
    else:
        alpha0 = 0.9
    if a0 == 0.0:
        a0 = 1e-3
    return np.array([a0, b0, alpha0])


def fit_decay(
    lengths,
    means,
    errors,
    b0: float = 0.25,
    max_iterations: int = MAX_ITERATIONS,
) -> FitResult:
    """Weighted fit of F(i) = A*alpha**i + B to per-length means.

    ``errors`` are 1-sigma error bars used as weights; ``b0`` is the
    asymptote used to initialize B (0.25 for two-qubit survival, 0.5
    for single-qubit marginals).  Flat data (no dynamic range) returns
    a degenerate result with alpha = 1 instead of attempting a fit.
    """
    lengths = np.asarray(lengths, dtype=float)
    means = np.asarray(means, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if lengths.shape != means.shape or lengths.shape != errors.shape:
        raise ValueError("lengths, means and errors must have equal shapes")
    if len(lengths) < MIN_POINTS:
        raise ValueError(
            f"need at least {MIN_POINTS} points to fit 3 parameters")
    if np.any(errors <= 0):
        raise ValueError("error bars must be positive")

    if np.ptp(means) < 1e-12:
        return FitResult(
            a=float(means[0] - b0), b=b0, alpha=1.0,
            a_sigma=0.0, b_sigma=0.0, alpha_sigma=0.0,
            chi2_red=0.0, iterations=0, converged=True, degenerate=True,
        )

    def chi2(params):
        a, b, alpha = params
        if alpha <= 0:
            return math.inf
        resid = (decay_model(lengths, a, b, alpha) - means) / errors
        return float(resid @ resid)

    params = _initial_guess(lengths, means, b0)
    cost = chi2(params)
    lam = 1e-3
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        a, b, alpha = params
        jac = decay_jacobian(lengths, a, alpha) / errors[:, None]
        resid = (decay_model(lengths, a, b, alpha) - means) / errors
        jtj = jac.T @ jac
        grad = jac.T @ resid
        step_ok = False
        for _ in range(40):
            damped = jtj + lam * np.diag(np.maximum(np.diag(jtj), 1e-12))
            try:
                delta = np.linalg.solve(damped, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = params + delta
            trial_cost = chi2(trial)
            if (
                np.isfinite(trial_cost)
                and abs(cost - trial_cost) <= REL_CHI2_TOL * max(cost, 1e-300)
            ):
                # no meaningful improvement is available in any direction
                if trial_cost < cost:
                    params, cost = trial, trial_cost
                converged = True
                break
            if trial_cost < cost:
                step_ok = True
                break
            lam *= 10.0
        if converged or not step_ok:
            break
        params = trial
        cost = trial_cost
        lam = max(lam / 10.0, 1e-12)

    a, b, alpha = params
    n_free = len(lengths) - 3
    chi2_red = cost / n_free
    jac = decay_jacobian(lengths, a, alpha) / errors[:, None]
    cov = np.linalg.pinv(jac.T @ jac) * chi2_red
    sigmas = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return FitResult(
        a=float(a), b=float(b), alpha=float(alpha),
        a_sigma=float(sigmas[0]), b_sigma=float(sigmas[1]),
        alpha_sigma=float(sigmas[2]),
        chi2_red=float(chi2_red), iterations=iterations,
        converged=converged,
    )


def regularize_errors(stderr, floor_scale: float = 1.0) -> np.ndarray:
    """Usable weights from per-length standard errors.

    Exact-probability campaigns can produce zero scatter; all-zero
    errors become uniform unit weights, and isolated zeros are floored
    at the smallest positive error so no point gets infinite weight.
    """
    stderr = np.asarray(stderr, dtype=float)
    positive = stderr[stderr > 1e-12]
    if positive.size == 0:
        return np.ones_like(stderr)
    return np.maximum(stderr, positive.min() * floor_scale)


def error_per_clifford(alpha: float, d: int = 4) -> float:
    """Average error per Clifford, r = (1 - alpha) * (1 - 1/d)."""
    if d not in (2, 4):
        raise ValueError("d must be 2 (one qubit) or 4 (two qubits)")
    return (1.0 - alpha) * (1.0 - 1.0 / d)


def error_per_clifford_sigma(alpha_sigma: float, d: int = 4) -> float:
    if d not in (2, 4):
        raise ValueError("d must be 2 (one qubit) or 4 (two qubits)")
    return (1.0 - 1.0 / d) * alpha_sigma


@dataclass(frozen=True)
class InterleavedError:
    r_c: float
    sigma: float
    suspect: bool  # alpha_c > alpha: negative estimate, physically suspect


def interleaved_error(
    alpha: float,
    alpha_c: float,
    d: int = 4,
    alpha_sigma: float = 0.0,
    alpha_c_sigma: float = 0.0,
) -> InterleavedError:
    """Error of the interleaved gate, r_C = (d-1)(1 - alpha_c/alpha)/d.

    The 1-sigma uncertainty is propagated from both decay parameters.
    A ratio above 1 (alpha_c > alpha) yields a negative r_C, which is
    returned as-is with the suspect flag set.
    """
    if d not in (2, 4):
        raise ValueError("d must be 2 (one qubit) or 4 (two qubits)")
    if alpha <= 0:
        raise ValueError("reference alpha must be positive")
    scale = (d - 1.0) / d
    r_c = scale * (1.0 - alpha_c / alpha)
    d_dc = -scale / alpha
    d_da = scale * alpha_c / alpha ** 2
    sigma = math.hypot(d_dc * alpha_c_sigma, d_da * alpha_sigma)
    return InterleavedError(r_c=r_c, sigma=sigma, suspect=alpha_c > alpha)


def delta_alpha(
    a12: float,
    a1_2: float,
    a2_1: float,
    a12_sigma: float = 0.0,
    a1_2_sigma: float = 0.0,
    a2_1_sigma: float = 0.0,
) -> tuple[float, float]:
    """Crosstalk metric delta = alpha_12 - alpha_1|2 * alpha_2|1.

    Returns (value, propagated 1-sigma uncertainty); zero for channels
    that factor into independent per-qubit noise.
    """
    value = a12 - a1_2 * a2_1
    sigma = math.sqrt(
        a12_sigma ** 2
        + (a2_1 * a1_2_sigma) ** 2
        + (a1_2 * a2_1_sigma) ** 2
    )
    return value, sigma

