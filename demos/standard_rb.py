"""
Standard randomized benchmarking on the device model
====================================================

Runs the flagship campaign: random Clifford sequences on the calibrated
echoed-CR device, survival of |00> fitted to A*alpha^m + B, and the
error per Clifford compared against what decoherence alone allows.
"""

from rbsim import device as dev
from rbsim import fit, rb
from rbsim.cliffords import clifford_table

table = clifford_table()
params = dev.DeviceParams().with_calibration()
noise = rb.DeviceNoiseModel(params, table)

cfg = rb.RBConfig(lengths=tuple(range(1, 21)), n_sequences=40,
                  shots=1000, seed=2025)
dataset = rb.run_rb(cfg, table, noise)
result = rb.fit_dataset(dataset)
r = fit.error_per_clifford(result.alpha)
r_sigma = fit.error_per_clifford_sigma(result.alpha_sigma)

print(f"lengths 1..20, {cfg.n_sequences} sequences, {cfg.shots} shots")
print(f"alpha = {result.alpha:.4f} +/- {result.alpha_sigma:.4f} "
      f"(chi2_red {result.chi2_red:.2f})")
print(f"r     = {r:.4f} +/- {r_sigma:.4f}")

means = dataset.means()
print("\nlength  mean survival")
for length, mean in zip(cfg.lengths[::4], means[::4]):
    print(f"  {length:>4}  {mean:.4f}")

# where does that error sit relative to pure decoherence?  The limit
# curves rerun the same sequences with every coherent imperfection
# stripped, once at the measured T2 and once at the 2*T1 ceiling.
r_t2, _ = rb.coherence_limit_r(cfg, noise)
r_2t1, _ = rb.coherence_limit_r(cfg, noise, t1_limited=True)
print(f"\ncoherence band: [{r_2t1:.4f}, {r_t2:.4f}]")
print(f"mean Clifford duration "
      f"{rb.mean_clifford_duration_ns(params, table):.0f} ns")
print("the calibrated gate has no coherent error, so the sampled r sits "
      "on the measured-T2 curve up to shot noise")
