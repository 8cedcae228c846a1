"""Weighted exponential-decay fitting and error-rate conversions.

The decay model is F(i) = A*alpha**i + B.  A and B enter it linearly,
so at each alpha one weighted linear solve gives them and the fit is a
one-dimensional search over alpha (variable projection; Golub & Pereyra,
SIAM J. Numer. Anal. 10, 413 (1973)).  The profile chi^2(alpha) is
evaluated on a fixed grid over (0, 1) in one vectorised call; secant
steps on its exact gradient, 2*A*sum(w_i r_i i alpha**(i-1)) by the
envelope theorem, then refine alpha in the bracket around the best grid
point, with a bisection wherever a step leaves the bracket, until a step
or the bracket is below ALPHA_TOL.  ``iterations`` counts these steps.
``converged`` is False when the profile still falls at an end of the
grid (alpha = 1 or alpha -> 0), when MAX_ITERATIONS steps do not reach
the tolerance, or when the decay is unresolved: a straight line, the
alpha -> 1 limit, fits the data within 1 sigma of the best decay.

The 1-sigma uncertainty of alpha comes from the linearized covariance
(inverse Gauss-Newton normal matrix scaled by the residual variance),
matching the usual Jacobian-based confidence intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# a guard: bisection alone narrows any grid bracket to ALPHA_TOL in 30 steps
MAX_ITERATIONS = 100
MIN_POINTS = 4  # one more than the parameters A, alpha and B
ALPHA_TOL = 1e-10
# decay lengths -1/ln(alpha) log-spaced from 0.2 (alpha = 0.0067) to 1e10
# (alpha = 1 - 1e-10, which no practical length tells from a straight line)
ALPHA_GRID = np.exp(-1.0 / np.logspace(-0.7, 10.0, 128))


@dataclass(frozen=True)
class FitResult:
    """Fitted A, B and alpha, alpha's 1-sigma uncertainty, the reduced
    chi^2 and the search diagnostics (see the module docstring)."""

    a: float
    b: float
    alpha: float
    alpha_sigma: float
    chi2_red: float
    iterations: int
    converged: bool
    degenerate: bool = False


def decay_model(lengths: np.ndarray, a: float, b: float, alpha: float) -> np.ndarray:
    return a * np.power(alpha, lengths) + b


def decay_jacobian(lengths: np.ndarray, a: float, alpha: float) -> np.ndarray:
    """Columns: dF/dA = alpha**i, dF/dB = 1, dF/dalpha = A*i*alpha**(i-1)."""
    cols = np.empty((len(lengths), 3))
    cols[:, 0] = np.power(alpha, lengths)
    cols[:, 1] = 1.0
    cols[:, 2] = a * lengths * np.power(alpha, lengths - 1)
    return cols


def fit_decay(
    lengths,
    means,
    errors,
    b0: float = 0.25,
) -> FitResult:
    """Weighted fit of F(i) = A*alpha**i + B to per-length means.

    ``errors`` are 1-sigma error bars used as weights.  Flat data (no
    dynamic range) returns a degenerate result with alpha = 1 and B =
    ``b0`` (0.25 for two-qubit survival, 0.5 for single-qubit marginals)
    instead of attempting a fit.
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
            a=float(means[0] - b0), b=b0, alpha=1.0, alpha_sigma=0.0,
            chi2_red=0.0, iterations=0, converged=True, degenerate=True,
        )

    weights = errors ** -2.0
    total = weights.sum()
    mean = (weights @ means) / total
    centred = means - mean

    def profile(alpha):
        """chi^2, d chi^2/d alpha, A and B at one alpha.  With v =
        alpha**i - 1 (exact near alpha = 1 by expm1), F - mean(F) =
        A*(v - mean(v)) in weighted means."""
        v = np.expm1(lengths * math.log(alpha))
        v_mean = (v @ weights) / total
        psi = v - v_mean
        wpsi = weights * psi
        a = (wpsi @ centred) / (wpsi @ psi)
        resid = a * psi - centred
        wres = weights * resid
        grad = 2.0 * a * (wres @ (lengths * (v + 1.0))) / alpha
        return wres @ resid, grad, a, mean - a * (1.0 + v_mean)

    # chi^2 = sum(w (y - mean)^2) - explained; the grid point of least
    # chi^2 explains the most
    v_grid = np.expm1(np.multiply.outer(np.log(ALPHA_GRID), lengths))
    psi_grid = v_grid - ((v_grid @ weights) / total)[:, None]
    wc = weights * centred
    explained = (psi_grid @ wc) ** 2 / ((psi_grid * psi_grid) @ weights)
    best = int(np.argmax(explained))
    alpha = ALPHA_GRID[best]
    cost, grad, a, b = profile(alpha)
    iterations = 0
    converged = False
    # grad(lo) < 0 <= grad(hi) brackets a minimum; there is none when
    # the profile still falls at an end of the grid
    lo = best if grad < 0 else best - 1
    if 0 <= lo < len(ALPHA_GRID) - 1:
        lo_x, hi_x = ALPHA_GRID[lo], ALPHA_GRID[lo + 1]
        prev = hi_x if lo == best else lo_x
        grad_prev = profile(prev)[1]
        for iterations in range(1, MAX_ITERATIONS + 1):
            trial = (alpha - grad * (alpha - prev) / (grad - grad_prev)
                     if grad != grad_prev else lo_x)
            if not lo_x < trial < hi_x:
                trial = 0.5 * (lo_x + hi_x)
            prev, grad_prev, alpha = alpha, grad, trial
            cost, grad, a, b = profile(alpha)
            lo_x, hi_x = (alpha, hi_x) if grad < 0 else (lo_x, alpha)
            converged = (abs(alpha - prev) < ALPHA_TOL
                         or hi_x - lo_x < ALPHA_TOL)
            if converged:
                break
    chi2_red = cost / (len(lengths) - 3)
    # unresolved: the straight line, the alpha -> 1 limit at the top of
    # the grid, lies within 1 sigma of the minimum on the scale of the
    # reported sigmas (delta chi^2 = chi2_red)
    converged = converged and centred @ wc - explained[-1] - cost > chi2_red
    jac = decay_jacobian(lengths, a, alpha) / errors[:, None]
    cov = np.linalg.pinv(jac.T @ jac) * chi2_red
    return FitResult(
        a=float(a), b=float(b), alpha=float(alpha),
        alpha_sigma=float(np.sqrt(np.maximum(cov[2, 2], 0.0))),
        chi2_red=float(chi2_red), iterations=iterations,
        converged=bool(converged),
    )


def regularize_errors(stderr) -> np.ndarray:
    """Usable weights from per-length standard errors.

    Exact-probability campaigns can produce zero scatter; all-zero
    errors become uniform unit weights, and isolated zeros are floored
    at the smallest positive error so no point gets infinite weight.
    """
    stderr = np.asarray(stderr, dtype=float)
    positive = stderr[stderr > 1e-12]
    if positive.size == 0:
        return np.ones_like(stderr)
    return np.maximum(stderr, positive.min())


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
    alpha_sigma: float = 0.0,
    alpha_c_sigma: float = 0.0,
) -> InterleavedError:
    """Error of the interleaved two-qubit gate, r_C = 3(1 -
    alpha_c/alpha)/4: (d-1)(1 - alpha_c/alpha)/d with d = 4.

    The 1-sigma uncertainty is propagated from both decay parameters.
    A ratio above 1 (alpha_c > alpha) yields a negative r_C, which is
    returned as-is with the suspect flag set.
    """
    if alpha <= 0:
        raise ValueError("reference alpha must be positive")
    scale = 0.75
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

