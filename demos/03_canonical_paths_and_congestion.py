"""Canonical paths, the congestion constant, and the per-edge certificates.

Every ordered pair of states is routed left to right through single-site
recolorings.  The worst edge-load-to-capacity ratio is the constant kappa;
each edge's ratio is also certified against a bound computed from the two
neighbor colors alone, which is what makes the closed form possible.
"""

import math

from spectral_gibbs import (
    ModelSpec,
    build_kernel,
    certify_all_edges,
    colors_to_string,
    kappa_closed_form,
    kappa_exact,
    verify_slice_identities,
    worst_alpha_beta,
)

spec = ModelSpec(n=3, num_colors=3, temp=1.0)
kernel = build_kernel(spec)

x, y = (0, 0, 1), (2, 0, 2)
print(f"path {colors_to_string(x)} -> {colors_to_string(y)}:")
# the canonical path corrects the disagreeing sites left to right
state = list(x)
for site in range(spec.n):
    if state[site] != y[site]:
        before = colors_to_string(state)
        state[site] = y[site]
        print(f"  {before} -> {colors_to_string(state)}")
print()

result = kappa_exact(spec)
closed = kappa_closed_form(spec)
print(f"kappa (exact, all canonical paths) = {result.kappa:.6f}")
print(f"closed form (n^2/N)(N-1+e^(4/T))   = {closed:.6f}")
print(f"slack                              = {closed - result.kappa:.6f}")
# an edge's ratio depends only on its site, its colors and its neighbors'
edge = result.argmax_edge
left, color_from, color_to, right = (
    "-" if c is None else colors_to_string([c])
    for c in (edge.left, edge.color_from, edge.color_to, edge.right)
)
print(f"worst edge: site {edge.site} recolored {color_from} -> {color_to} "
      f"between neighbors {left} and {right}\n")

summary = certify_all_edges(result)
print(f"per-edge certificates: {summary.num_edges} edges, "
      f"min slack {summary.min_slack:.6f}, all passed: {summary.all_passed}")

worst = worst_alpha_beta(spec)
print(f"worst alpha+beta over neighbor colors = {worst.value:.6f}"
      f" (closed form {worst.closed_form:.6f})")
patterns = ", ".join(colors_to_string(pattern) for pattern in worst.argmax)
print(f"attained at (left, right, from, to) = {patterns}")
print("both neighbors share the color off the edge, as the closed form needs\n")

# one call checks every site i < n and every ordered pair of distinct colors
report = verify_slice_identities(kernel)
slices = report.w_slice_sums[1, 0]
print("slice sums at site 2 (states with w_2 = a, split by w_3):")
for k, value in enumerate(slices):
    print(f"  w_3 = {colors_to_string([k])}: {value:.12f}")
print(f"agreeing slice / disagreeing slice = {slices[0] / slices[1]:.6f}"
      f" (e^(2/T) = {math.exp(2 / spec.temp):.6f})")
print(f"sum of slices = {slices.sum():.12f} (1/N = {1 / spec.num_colors:.12f})")
print(f"weighted sums at site 2, a -> b: A' = {report.a_prime[1, 0, 1]:.12f}, "
      f"B' = {report.b_prime[1, 0, 1]:.12f}")
print(f"max identity error over {report.checked} (site, color pair) checks = "
      f"{report.max_error:.2e}")
