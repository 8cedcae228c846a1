"""Process tomography: simulation, linear inversion, CPTP projection.

The linear-inversion oracle is algebraic: with exact probabilities and
matched preparation/measurement models, pinv(C) @ (C R X) @ pinv(X)
returns R whenever C and X have full column and row rank.
"""

import itertools

import numpy as np
import pytest

from rbsim import device as dev
from rbsim import pauli, rb, tomography as tomo
from rbsim.cliffords import (SignedPauliPerm, clifford_table, gate_unitary,
                             zx_perm)

SPAM_MODELS = {
    "ideal": None,
    "symmetric": dev.SpamModel.symmetric(thermal=0.01, misassignment=0.02),
    "asymmetric": dev.SpamModel(
        0.03, 0.0, np.kron([[0.9, 0.1], [0.05, 0.95]],
                           [[0.97, 0.03], [0.02, 0.98]])),
}


@pytest.fixture(scope="module")
def table():
    return clifford_table()


def _random_cptp(rng) -> np.ndarray:
    """Decohered random Clifford conjugation, mixed with a second one."""
    table = clifford_table()
    u1 = table.elements[rng.integers(len(table))].to_ptm()
    u2 = table.elements[rng.integers(len(table))].to_ptm()
    decoh = dev.decoherence_channel(
        rng.uniform(5, 50), rng.uniform(5, 9), rng.uniform(50, 500)
    ).ptm()
    lam = rng.uniform(0.6, 1.0)
    return lam * (decoh @ u1) + (1 - lam) * u2


def test_setting_matrices_are_informationally_complete():
    c = tomo.measurement_matrix()
    x = tomo.preparation_matrix()
    assert c.shape == (144, 16)
    assert x.shape == (16, 36)
    assert np.linalg.matrix_rank(c) == 16
    assert np.linalg.matrix_rank(x) == 16


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _pair_ptms_by_loop():
    """Reference: one rotation pair's transfer matrix at a time."""
    return [SignedPauliPerm.from_unitary(
                np.kron(gate_unitary(g1), gate_unitary(g2))).to_ptm()
            for g1, g2 in itertools.product(tomo.ROTATION_NAMES, repeat=2)]


def _sample_by_loop(probs, shots, seed):
    """Reference: one multinomial draw per (measurement, preparation)
    setting pair, measurement setting outer."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 777)))
    sampled = np.empty_like(probs)
    for m in range(36):
        block = np.clip(probs[4 * m : 4 * m + 4, :], 0.0, None)
        block = block / block.sum(axis=0, keepdims=True)
        for s in range(36):
            sampled[4 * m : 4 * m + 4, s] = (
                rng.multinomial(shots, block[:, s]) / shots)
    return sampled


@pytest.mark.parametrize("spam", SPAM_MODELS.values(), ids=SPAM_MODELS)
def test_setting_matrices_match_per_pair_products(spam):
    model = spam or dev.SpamModel.ideal()
    pairs = _pair_ptms_by_loop()
    x0 = model.initial_state()
    readout = model.confusion.T @ pauli.OUTCOME_MATRIX
    assert _same_bits(tomo.preparation_matrix(spam),
                      np.column_stack([r @ x0 for r in pairs]))
    assert _same_bits(tomo.measurement_matrix(spam),
                      np.vstack([readout @ r for r in pairs]))


def test_pair_stack_is_cached_and_read_only():
    stack = tomo._pair_ptms()
    assert stack is tomo._pair_ptms()
    assert stack.shape == (36, 16, 16) and not stack.flags.writeable


@pytest.mark.parametrize("spam", [None, SPAM_MODELS["symmetric"]],
                         ids=["ideal", "symmetric"])
@pytest.mark.parametrize("shots", [37, 1000])
@pytest.mark.parametrize("seed", [1, 7, 1234])
def test_one_call_sampler_matches_per_setting_loop(table, seed, shots, spam):
    noise = rb.DeviceNoiseModel(dev.DeviceParams(), table)
    channel = noise.clifford_channel(table.index_of(zx_perm()))
    exact = tomo.simulate_qpt(channel, spam=spam)
    sampled = tomo.simulate_qpt(channel, spam=spam, shots=shots, seed=seed)
    assert _same_bits(sampled.probabilities,
                      _sample_by_loop(exact.probabilities, shots, seed))


def test_probabilities_are_normalized(table):
    channel = table.elements[137].to_ptm()
    data = tomo.simulate_qpt(channel)
    blocks = data.probabilities.reshape(36, 4, 36)
    np.testing.assert_allclose(blocks.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(data.probabilities > -1e-12)


def test_linear_inversion_round_trip_clifford(table):
    rng = np.random.default_rng(8)
    for _ in range(10):
        r = table.elements[rng.integers(len(table))].to_ptm()
        est = tomo.linear_inversion_ptm(tomo.simulate_qpt(r))
        assert np.max(np.abs(est - r)) < 1e-9


def test_linear_inversion_round_trip_open_channel():
    rng = np.random.default_rng(15)
    r = _random_cptp(rng)
    est = tomo.linear_inversion_ptm(tomo.simulate_qpt(r))
    assert np.max(np.abs(est - r)) < 1e-9


def test_shot_sampling_is_seeded(table):
    channel = table.elements[99].to_ptm()
    a = tomo.simulate_qpt(channel, shots=200, seed=5)
    b = tomo.simulate_qpt(channel, shots=200, seed=5)
    c = tomo.simulate_qpt(channel, shots=200, seed=6)
    np.testing.assert_array_equal(a.probabilities, b.probabilities)
    assert not np.array_equal(a.probabilities, c.probabilities)
    counts = a.probabilities * 200
    np.testing.assert_allclose(counts, np.round(counts), atol=1e-9)


def test_spam_aware_inversion_removes_bias(table):
    spam = dev.SpamModel.symmetric(thermal=0.01, misassignment=0.02)
    r = table.elements[4242].to_ptm()
    data = tomo.simulate_qpt(r, spam=spam)
    aware = tomo.linear_inversion_ptm(data, spam=spam)
    assert np.max(np.abs(aware - r)) < 1e-9
    blind = tomo.linear_inversion_ptm(data)
    assert pauli.avg_gate_fidelity(blind, r) < 0.99


def test_projection_fixes_point_on_cptp():
    rng = np.random.default_rng(3)
    r = _random_cptp(rng)
    res = tomo.project_cptp(r)
    assert res.converged
    assert np.max(np.abs(res.ptm - r)) < 1e-8
    assert res.min_eigenvalue >= -1e-9
    assert res.tp_residual <= 1e-9


def test_projection_restores_constraints():
    rng = np.random.default_rng(7)
    r = _random_cptp(rng) + 0.05 * rng.standard_normal((16, 16))
    res = tomo.project_cptp(r)
    assert res.converged
    assert res.min_eigenvalue >= -1e-9
    assert res.tp_residual <= 1e-9
    # TP pins the first transfer-matrix row
    np.testing.assert_allclose(res.ptm[0], np.eye(16)[0], atol=1e-9)


def test_projection_moves_toward_truth():
    """Over many random perturbed channels the CPTP projection should
    never be (meaningfully) farther from the truth than the raw input."""
    rng = np.random.default_rng(11)
    worse = 0
    for _ in range(100):
        truth = _random_cptp(rng)
        noisy = truth + 0.03 * rng.standard_normal((16, 16))
        res = tomo.project_cptp(noisy)
        before = np.linalg.norm(noisy - truth)
        after = np.linalg.norm(res.ptm - truth)
        if after > before + 1e-12:
            worse += 1
    assert worse == 0


def test_qpt_report_scores_identity(table):
    r = table.elements[777].to_ptm()
    report = tomo.qpt_report(tomo.simulate_qpt(r), ideal=r)
    assert report.fidelity_raw == pytest.approx(1.0, abs=1e-9)
    assert report.fidelity == pytest.approx(1.0, abs=1e-9)
    assert report.projection.converged


def test_qpt_csv_round_trip(tmp_path, table):
    channel = table.elements[31].to_ptm()
    data = tomo.simulate_qpt(channel, shots=300, seed=9)
    path = tmp_path / "qpt.csv"
    tomo.write_qpt_csv(path, data)
    loaded = tomo.read_qpt_csv(path)
    np.testing.assert_array_equal(loaded.probabilities, data.probabilities)
    assert loaded.shots == 300
    assert loaded.seed == 9
    exact = tomo.simulate_qpt(channel)
    tomo.write_qpt_csv(path, exact)
    again = tomo.read_qpt_csv(path)
    assert again.shots is None
    np.testing.assert_array_equal(again.probabilities, exact.probabilities)


def test_qpt_csv_reader_rejects_incomplete_files(tmp_path, table):
    data = tomo.simulate_qpt(table.elements[31].to_ptm(), shots=1000, seed=9)
    path = tmp_path / "qpt.csv"
    tomo.write_qpt_csv(path, data)
    lines = path.read_text().splitlines(keepends=True)
    truncated = tmp_path / "truncated.csv"
    truncated.write_text("".join(lines[:-50]))
    # rows run prep fastest, then outcome, then meas: the last 50 rows
    # are preps 22-35 of (meas 35, outcome 2) and all of outcome 3
    with pytest.raises(ValueError, match=r"\(22, 35, 2\)"):
        tomo.read_qpt_csv(truncated)
    for column, edit in (("shots", (",1000,9", ",999,9")),
                         ("seed", (",1000,9", ",1000,10"))):
        doctored = tmp_path / f"{column}.csv"
        doctored.write_text("".join(lines[:-1]) + lines[-1].replace(*edit))
        with pytest.raises(ValueError, match=column):
            tomo.read_qpt_csv(doctored)
