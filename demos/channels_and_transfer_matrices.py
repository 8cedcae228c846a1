"""
Channels as Pauli transfer matrices
===================================

The working representation throughout the package: a channel is the
16x16 real matrix R[i, j] = Tr(P_i E(P_j)) / 4.  Composition is matrix
multiplication, twirling is an average over group conjugations, and
complete positivity is visible in the Choi spectrum.
"""

import numpy as np

from rbsim import device as dev
from rbsim import pauli
from rbsim.cliffords import clifford_table, twirl_ptm

# amplitude damping plus dephasing on both qubits for 300 ns
two_qubit = dev.decoherence_channel(
    t1_us=11.6, t2_us=7.1, duration_ns=300.0
).ptm()
print("decoherence over 300 ns:")
print(f"  trace preserving: {pauli.is_trace_preserving(two_qubit)}")
print(f"  transfer-matrix trace {np.trace(two_qubit):.4f}")

choi = pauli.choi_from_ptm(two_qubit)
eigenvalues = np.linalg.eigvalsh(choi)
print(f"  Choi eigenvalue range [{eigenvalues[0]:.2e}, "
      f"{eigenvalues[-1]:.4f}]")

# composing with a unitary leaves the fidelity to that unitary equal to
# the fidelity of the noise to the identity
table = clifford_table()
gate = table.elements[4321].to_ptm()
noisy_gate = two_qubit @ gate  # apply gate, then the noise
print(f"\naverage gate fidelity of the noisy gate  "
      f"{pauli.avg_gate_fidelity(noisy_gate, gate):.6f}")
print(f"fidelity of the bare noise to identity   "
      f"{pauli.avg_gate_fidelity(two_qubit, np.eye(16)):.6f}")

# group-twirling any channel leaves a depolarizing channel whose decay
# is fixed by the trace alone
twirled = twirl_ptm(two_qubit, table)
alpha = (np.trace(two_qubit) - 1.0) / 15.0
off_diagonal = twirled - np.diag(np.diag(twirled))
print(f"\ntwirled channel: off-diagonal {np.max(np.abs(off_diagonal)):.1e}, "
      f"uniform decay {twirled[1, 1]:.6f} vs (Tr R - 1)/15 = {alpha:.6f}")

# survival probability of |00> under the twirled channel
state = pauli.state_00()
probs = pauli.outcome_probabilities(twirled @ state)
print("outcome distribution from |00>:",
      " ".join(f"{p:.4f}" for p in probs))
