"""Build the transition kernel for a short chain and inspect its structure.

Walks through the pieces that everything else rests on: the stationary
measure, the one-site conditionals, and the reversibility checks.
"""

import numpy as np

from spectral_gibbs import (
    ModelSpec,
    build_kernel,
    check_detailed_balance,
    check_irreducible,
    check_row_sums,
    check_stationarity,
    colors_to_string,
)

spec = ModelSpec(n=3, num_colors=3, temp=1.0)
print(f"chain: n={spec.n} sites, {spec.num_colors} colors, T={spec.temp}")
print(f"state space: {spec.num_states} configurations\n")

# the kernel carries the state table and the stationary measure built from it
kernel = build_kernel(spec)
pi = kernel.pi
order = np.argsort(pi.weights)[::-1]
print("most and least likely states:")
for rank in [*order[:3], *order[-3:]]:
    print(f"  {colors_to_string(kernel.colors[rank])}  pi = {pi.weights[rank]:.6f}")
print(f"log Z = {pi.log_z:.6f}\n")

print(f"off-diagonal edges: {kernel.matrix.nnz - spec.num_states}")
print(f"row-sum deviation:        {check_row_sums(kernel):.2e}")
print(f"detailed-balance asym:    {check_detailed_balance(kernel):.2e}")
print(f"stationarity residual:    {check_stationarity(kernel):.2e}")
print(f"irreducible:              {check_irreducible(kernel)}\n")

# one row of the kernel, in letters, read from its CSR form (built on first use)
start = 0
print(f"moves out of {colors_to_string(kernel.colors[start])}:")
row = slice(kernel.matrix.indptr[start], kernel.matrix.indptr[start + 1])
for col, val in zip(kernel.matrix.indices[row], kernel.matrix.data[row]):
    target = colors_to_string(kernel.colors[col])
    kind = "hold" if col == start else "move"
    print(f"  {kind} -> {target}  P = {val:.6f}")
