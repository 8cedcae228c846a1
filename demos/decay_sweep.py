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
    # the device campaign and its decoherence-only limits; at the
    # measured T2 the limit reads out the device campaign's own states
    point = rb.sweep_point(cfg, rb.DeviceNoiseModel(params, table))
    r, r_t2, r_2t1 = (fit.error_per_clifford(rb.fit_dataset(ds).alpha)
                      for ds in point)
    print(f"  {tau2:5.0f}  {params.zx_gate_ns:7.0f}  {r:.4f}   "
          f"[{r_2t1:.4f}, {r_t2:.4f}]")

print("\nthe spacing between the curves is what better dephasing "
      "times would buy at each gate length")
