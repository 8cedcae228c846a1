"""
Enumerating the two-qubit Clifford group
========================================

Builds the full 11520-element group from circuit templates, prints the
class census and gate-cost statistics, then round-trips one element
through its stored circuit.
"""

import numpy as np

from rbsim.cliffords import (
    CLASS_NAMES,
    SignedPauliPerm,
    clifford_table,
    fold_layer_ids,
    group_stats,
    layer_rows,
)

table = clifford_table()
stats = group_stats(table)

print(f"group order {len(table)}")
for name, size in zip(CLASS_NAMES, stats.class_sizes):
    print(f"  {name:<13} {size:>5}")
print(f"mean entangling layers per element  {stats.avg_entangling_layers}")
print(f"mean non-identity pulses            {stats.avg_pulses:.4f}")
print(f"longest single-qubit word           {stats.max_word_length}")

# pick an element and show how it is scheduled
rng = np.random.default_rng(7)
index = int(rng.integers(len(table)))
print(f"\nelement {index} is {CLASS_NAMES[table.class_ids[index]]}:")
for layer in table.circuits[index]:
    if layer.kind == "zx":
        print("  zx   echoed ZX_-pi/2 block")
    else:
        words = " ".join(f"({g1},{g2})" for g1, g2 in layer.pulses)
        print(f"  1q   {words}")

# the stored circuit recomposes to the element exactly (its layer ids
# folded over the layers' exact actions), and the stored inverse really
# inverts it
perm, sign = fold_layer_ids(table.layer_ids[[index]],
                            *layer_rows(table.layers))
assert np.array_equal(perm[0], table.perm_array[index])
assert np.array_equal(sign[0], table.sign_array[index])
identity = table.index_of(SignedPauliPerm.identity(2))
closed = table.compose_indices(int(table.inverse_indices[index]), index)
print("\ninverse closes to identity:", closed == identity)

# closure spot check: the product of two random elements is a member
a, b = (int(x) for x in rng.integers(len(table), size=2))
print(f"closure: element {a} after {b} lands on {table.compose_indices(a, b)}")
