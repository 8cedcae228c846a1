"""
Error per Clifford as a function of gate length
===============================================

Recalibrates the echoed gate at several segment lengths and benchmarks
each one.  Longer segments accumulate more decoherence; at tau2 -> 0
only the single-qubit pulses are left.  The same grid is what
``rbsim sweep tau2`` emits as CSV.
"""

from rbsim import device as dev
from rbsim import fit, rb
from rbsim.cliffords import clifford_table

table = clifford_table()
base = dev.DeviceParams()
cfg = rb.RBConfig(lengths=tuple(range(1, 17)), n_sequences=12,
                  shots=None, seed=40)

print("tau2/ns  gate/ns      r   [2T1 limit, T2 limit]")
for tau2 in (1e-9, 100.0, 178.0, 260.0, 340.0):
    params = base.with_calibration(tau2)
    noise = rb.DeviceNoiseModel(params, table)
    result = rb.fit_dataset(rb.run_rb(cfg, table, noise))
    r = fit.error_per_clifford(result.alpha)
    r_t2, _ = rb.coherence_limit_r(cfg, noise)
    r_2t1, _ = rb.coherence_limit_r(cfg, noise, t1_limited=True)
    print(f"  {tau2:5.0f}  {params.zx_gate_ns:7.0f}  {r:.4f}   "
          f"[{r_2t1:.4f}, {r_t2:.4f}]")

print("\nthe spacing between the curves is what better dephasing "
      "times would buy at each gate length")
