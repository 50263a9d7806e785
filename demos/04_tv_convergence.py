"""Total-variation decay from the least likely start, against its envelope.

The exact curve comes from propagating the full distribution; the envelope
is (1/2)sqrt((1-pi(x))/pi(x)) beta*^k.  A seeded Monte Carlo arm shows what
an empirical estimate of the same quantity looks like.
"""

import numpy as np

from spectral_gibbs import ModelSpec, build_kernel, colors_to_string, config_from_rank, tv_curve

spec = ModelSpec(n=4, num_colors=2, temp=0.8)
kernel = build_kernel(spec)
start = int(np.argmin(kernel.pi.weights))
start_colors = colors_to_string(config_from_rank(spec, start).colors)
print(f"chain: n={spec.n}, {spec.num_colors} colors, T={spec.temp}")
print(f"start: {start_colors} (least likely, pi = {kernel.pi.weights[start]:.6f})\n")

curve = tv_curve(kernel, start, k_max=60, seed=20240817)

print(" k   exact TV      envelope      MC estimate")
for k in range(0, 61, 5):
    print(
        f"{k:3d}   {curve.exact_tv[k]:.6e}  {curve.envelope[k]:.6e}  "
        f"{curve.mc_tv[k]:.6e}"
    )

print(f"\nexact curve within envelope at every k: {curve.within_envelope}")
half_life = next(k for k in curve.ks if curve.exact_tv[k] < 0.5 * curve.exact_tv[0])
print(f"steps to halve the initial distance: {half_life}")
print("\nthe MC arm flattens near 1/sqrt(replicas); only the exact arm certifies")
