"""Exact spectrum of a small chain next to every closed-form bound.

The exact values come from a dense symmetric eigensolve; the bounds are
evaluated from their formulas and the congestion constant.  The report at
the end is the same one the `bounds` CLI command emits.
"""

from spectral_gibbs import (
    ModelSpec,
    assemble_report,
    build_kernel,
    kappa_exact,
    report_to_json,
    spectrum,
)

spec = ModelSpec(n=4, num_colors=3, temp=1.0)
kernel = build_kernel(spec)
spect = spectrum(kernel)

print(f"chain: n={spec.n}, {spec.num_colors} colors, T={spec.temp}")
print(f"eigenvalues: {spec.num_states} total, top five:")
for value in spect.eigenvalues[:5]:
    print(f"  {value:+.12f}")
print(f"  ... bottom: {spect.eigenvalues[-1]:+.12f}")
print(f"beta1 = {spect.beta1:.12f}")
print(f"beta* = {spect.beta_star:.12f}")
print(f"spectral gap 1 - beta* = {1 - spect.beta_star:.6e}\n")

kappa = kappa_exact(spec)
report = assemble_report(kernel, spect, kappa)
print("exact values against each bound:")
print(f"  beta1 exact                  {report.exact['beta1']:.10f}")
print(f"  congestion bound 1 - 1/kappa {report.kappa['poincare_beta1']:.10f}")
print(f"  closed-form bound            {report.bounds['theorem3']:.10f}")
print(f"  comparison bound             {report.bounds['ingrassia_beta1']:.10f}")
print(f"  beta_min exact               {report.exact['beta_min']:.10f}")
print(f"  beta_min floor               {report.bounds['ingrassia_lambda_min']:.10f}")
print()

print("full report as the CLI prints it:\n")
print(report_to_json(report))
