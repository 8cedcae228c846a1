"""Fitter validation: recovery, Jacobian, calibration of chi^2 and the
closed-form error metrics."""

import math

import numpy as np
import pytest

from rbsim import config, fit, rb
from rbsim.cliffords import clifford_table


LENGTHS = np.arange(1, 21)


def _synth(a, b, alpha, lengths=LENGTHS):
    return a * alpha ** lengths.astype(float) + b


def test_noiseless_recovery():
    means = _synth(0.5, 0.25, 0.9)
    res = fit.fit_decay(LENGTHS, means, np.full(20, 0.01))
    assert res.converged and not res.degenerate
    assert res.a == pytest.approx(0.5, abs=1e-9)
    assert res.b == pytest.approx(0.25, abs=1e-9)
    assert res.alpha == pytest.approx(0.9, abs=1e-9)
    assert res.chi2_red < 1e-18
    assert 0.0 < res.alpha <= 1.0


def test_analytic_jacobian_matches_finite_differences():
    lengths = LENGTHS.astype(float)
    a, b, alpha = 0.47, 0.26, 0.87
    jac = fit.decay_jacobian(lengths, a, alpha)
    h = 1e-7
    fd_a = (fit.decay_model(lengths, a + h, b, alpha)
            - fit.decay_model(lengths, a - h, b, alpha)) / (2 * h)
    fd_b = (fit.decay_model(lengths, a, b + h, alpha)
            - fit.decay_model(lengths, a, b - h, alpha)) / (2 * h)
    fd_alpha = (fit.decay_model(lengths, a, b, alpha + h)
                - fit.decay_model(lengths, a, b, alpha - h)) / (2 * h)
    np.testing.assert_allclose(jac[:, 0], fd_a, rtol=1e-6)
    np.testing.assert_allclose(jac[:, 1], fd_b, rtol=1e-6)
    np.testing.assert_allclose(jac[:, 2], fd_alpha, rtol=1e-6)


def test_noisy_recovery_at_paper_scale():
    rng = np.random.default_rng(101)
    sigma = 0.004
    hits = 0
    trials = 100
    for _ in range(trials):
        means = _synth(0.55, 0.27, 0.8752) + rng.normal(0, sigma, size=20)
        res = fit.fit_decay(LENGTHS, means, np.full(20, sigma))
        if abs(res.alpha - 0.8752) < 0.0078:
            hits += 1
    assert hits >= 90


def test_chi2_red_is_calibrated():
    rng = np.random.default_rng(7)
    sigma = 0.01
    values = []
    for _ in range(300):
        means = _synth(0.5, 0.25, 0.92) + rng.normal(0, sigma, size=20)
        res = fit.fit_decay(LENGTHS, means, np.full(20, sigma))
        values.append(res.chi2_red)
    assert np.mean(values) == pytest.approx(1.0, abs=0.1)


def test_scale_consistency():
    rng = np.random.default_rng(9)
    means = _synth(0.5, 0.25, 0.9) + rng.normal(0, 0.01, size=20)
    errors = np.full(20, 0.01)
    res1 = fit.fit_decay(LENGTHS, means, errors)
    res3 = fit.fit_decay(LENGTHS, means, 3.0 * errors)
    assert res3.a == pytest.approx(res1.a, abs=1e-9)
    assert res3.b == pytest.approx(res1.b, abs=1e-9)
    assert res3.alpha == pytest.approx(res1.alpha, abs=1e-9)
    assert res3.chi2_red == pytest.approx(res1.chi2_red / 9.0, rel=1e-6)


def test_flat_data_is_degenerate():
    res = fit.fit_decay(LENGTHS, np.ones(20), np.full(20, 0.01))
    assert res.degenerate
    assert res.alpha == 1.0
    assert res.converged


def test_input_validation():
    with pytest.raises(ValueError):
        fit.fit_decay([1, 2, 3], [1.0, 0.9, 0.8], [0.1, 0.1, 0.1])
    with pytest.raises(ValueError):
        fit.fit_decay(LENGTHS, _synth(0.5, 0.25, 0.9), np.zeros(20))
    with pytest.raises(ValueError):
        fit.fit_decay(LENGTHS, _synth(0.5, 0.25, 0.9), np.full(19, 0.1))


def test_iteration_cap_flags_non_convergence(monkeypatch):
    rng = np.random.default_rng(13)
    means = _synth(0.5, 0.25, 0.9) + rng.normal(0, 0.01, size=20)
    monkeypatch.setattr(fit, "MAX_ITERATIONS", 1)
    res = fit.fit_decay(LENGTHS, means, np.full(20, 0.01))
    assert not res.converged


def test_shallow_decay_converges():
    means = _synth(0.5, 0.5, 0.995)
    res = fit.fit_decay(LENGTHS, means, np.full(20, 0.001), b0=0.5)
    assert res.converged
    assert res.alpha == pytest.approx(0.995, abs=1e-8)


@pytest.mark.parametrize("bend", [0.0, -2e-5])
def test_straight_line_is_unresolved_at_the_alpha_one_edge(bend):
    """A line, or one bending down faster than any decay, has its
    infimum at the alpha -> 1 limit; the fit says so instead of
    converging."""
    means = 0.9 - 0.01 * LENGTHS + bend * LENGTHS ** 2
    res = fit.fit_decay(LENGTHS, means, np.full(20, 0.01))
    assert not res.converged
    assert res.alpha > 1.0 - 1e-8
    if bend:
        assert res.alpha == fit.ALPHA_GRID[-1] and res.iterations == 0


def test_interior_minimum_is_unresolved_when_a_line_fits_as_well():
    rng = np.random.default_rng(3)
    means = 0.9 - 0.01 * LENGTHS + rng.normal(0.0, 0.01, size=20)
    res = fit.fit_decay(LENGTHS, means, np.full(20, 0.01))
    assert res.iterations > 0 and res.alpha < 0.999
    assert not res.converged


def _default_simultaneous(seed):
    """The default `rb simultaneous` campaign and its profile."""
    profile = config.load_profile(None)
    profile.seed = seed
    noise = profile.noise(clifford_table())
    return rb.run_simultaneous(profile.rb_config(), noise, profile.spam), \
        profile, noise


def _default_campaigns(seed):
    """The five datasets of a default `rb simultaneous` and the dataset of
    a default `rb standard`, each with its fit's b0."""
    simultaneous, profile, noise = _default_simultaneous(seed)
    standard = rb.run_rb(profile.rb_config(), clifford_table(), noise,
                         profile.spam)
    return ([(ds, 0.5) for ds in simultaneous.datasets.values()]
            + [(standard, 0.25)])


def _reference_minimum(lengths, means, errors):
    """Least profile chi^2 over the fitter's interval (0, ALPHA_GRID[-1]]
    by brute force: a dense grid, then golden-section search on chi^2
    values, each from the weighted solve for A and B in extended
    precision."""
    m = np.asarray(lengths, dtype=np.longdouble)
    y = np.asarray(means, dtype=np.longdouble)
    w = np.asarray(errors, dtype=np.longdouble) ** -2

    def chi2(alphas):
        # alpha**m - 1, centred with weights: A's regressor
        x = np.expm1(np.multiply.outer(np.log(alphas), m))
        x -= (x @ w)[..., None] / w.sum()
        yc = y - (w @ y) / w.sum()
        a = ((x * yc) @ w) / ((x * x) @ w)
        resid = a[..., None] * x - yc
        return (resid * resid) @ w

    top = np.longdouble(fit.ALPHA_GRID[-1])
    grid = 1 - np.geomspace(1 - top, np.longdouble(1), 20001)[:-1][::-1]
    best = int(np.argmin(chi2(grid)))
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
    ratio = (np.sqrt(np.longdouble(5)) - 1) / 2
    while hi - lo > 1e-14:
        left, right = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        if chi2(left) < chi2(right):
            hi = right
        else:
            lo = left
    alpha = (lo + hi) / 2
    return float(alpha), float(chi2(alpha))


@pytest.mark.parametrize("seed", [1234, 7])
def test_fits_match_brute_force_profile_minimum(seed):
    for ds, b0 in _default_campaigns(seed):
        errors = fit.regularize_errors(ds.stderr())
        res = rb.fit_dataset(ds, b0=b0)
        alpha, chi2 = _reference_minimum(ds.lengths, ds.means(), errors)
        assert abs(res.alpha - alpha) < 1e-9, ds.protocol
        assert res.chi2_red * (len(ds.lengths) - 3) <= chi2 + 1e-9, \
            ds.protocol


def test_default_simultaneous_fits_take_few_steps():
    """A few refinement steps per fit, also where the qubit-1 decay is
    unresolved (seeds 2, 7 and 1234)."""
    for seed in range(1, 21):
        for key, res in _default_simultaneous(seed)[0].fits.items():
            assert res.iterations <= 50, (seed, key)


def test_regularize_errors():
    np.testing.assert_array_equal(
        fit.regularize_errors(np.zeros(5)), np.ones(5)
    )
    out = fit.regularize_errors(np.array([0.0, 0.02, 0.01]))
    np.testing.assert_allclose(out, [0.01, 0.02, 0.01])


def test_error_per_clifford():
    assert fit.error_per_clifford(1.0) == 0.0
    assert round(fit.error_per_clifford(0.8752, d=4), 4) == 0.0936
    assert round(fit.error_per_clifford(0.9918, d=2), 4) == 0.0041
    assert fit.error_per_clifford(0.9, 4) == pytest.approx(0.075, abs=1e-15)
    with pytest.raises(ValueError):
        fit.error_per_clifford(0.9, d=3)
    assert fit.error_per_clifford_sigma(0.01, d=4) == pytest.approx(0.0075)


def test_interleaved_error_closed_forms():
    same = fit.interleaved_error(0.9, 0.9)
    assert same.r_c == 0.0
    assert not same.suspect

    paper = fit.interleaved_error(0.8752, 0.7990)
    assert round(paper.r_c, 4) == 0.0653

    # depolarizing identity: alpha = p_c, alpha_c = p_c * p_g
    p_c, p_g = 0.97, 0.91
    res = fit.interleaved_error(p_c, p_c * p_g)
    assert res.r_c == pytest.approx(0.75 * (1 - p_g), abs=1e-15)

    assert fit.interleaved_error(0.9, 0.95).suspect
    with pytest.raises(ValueError):
        fit.interleaved_error(0.0, 0.5)


def test_interleaved_sigma_propagation():
    base = fit.interleaved_error(0.9, 0.8, alpha_sigma=1e-4, alpha_c_sigma=2e-4)
    h = 1e-8
    d_da = (fit.interleaved_error(0.9 + h, 0.8).r_c
            - fit.interleaved_error(0.9 - h, 0.8).r_c) / (2 * h)
    d_dc = (fit.interleaved_error(0.9, 0.8 + h).r_c
            - fit.interleaved_error(0.9, 0.8 - h).r_c) / (2 * h)
    expect = math.hypot(d_da * 1e-4, d_dc * 2e-4)
    assert base.sigma == pytest.approx(expect, rel=1e-6)


def test_delta_alpha():
    value, sigma = fit.delta_alpha(0.9745, 0.9865, 0.9876)
    assert round(value, 4) == 0.0002
    assert sigma == 0.0

    product, _ = fit.delta_alpha(0.98 * 0.97, 0.98, 0.97)
    assert product == pytest.approx(0.0, abs=1e-15)

    ones, _ = fit.delta_alpha(1.0, 1.0, 1.0)
    assert ones == 0.0

    _, s = fit.delta_alpha(0.97, 0.99, 0.98, 1e-3, 2e-3, 3e-3)
    expect = math.sqrt(1e-3 ** 2 + (0.98 * 2e-3) ** 2 + (0.99 * 3e-3) ** 2)
    assert s == pytest.approx(expect, rel=1e-12)


def test_jacobian_sigma_matches_redraw_spread():
    """On independent per-length noise, the Jacobian alpha_sigma is the
    spread of the fitted alpha over independent redraws of the data."""
    rng = np.random.default_rng(21)
    sigma = 0.01
    n_seq = 30

    def fitted(samples):
        means = samples.mean(axis=1)
        errs = samples.std(axis=1, ddof=1) / math.sqrt(n_seq)
        return fit.fit_decay(LENGTHS, means, errs)

    def draw():
        return (_synth(0.5, 0.25, 0.9)[:, None]
                + rng.normal(0, sigma, size=(len(LENGTHS), n_seq)))

    res = fitted(draw())
    spread = np.std([fitted(draw()).alpha for _ in range(120)], ddof=1)
    assert spread == pytest.approx(res.alpha_sigma, rel=0.5)
