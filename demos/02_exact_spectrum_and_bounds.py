"""Exact spectrum of a small chain next to every closed-form bound.

The exact values come from dense solves of the kernel's color and
site-reversal symmetry blocks; the bounds are evaluated from their formulas
and the congestion constant.  The kernel is positive semidefinite, so the
second eigenvalue beta1 is also the rate of convergence.  The report at the
end is the same one the `bounds` CLI command emits, and like that command
this script builds no kernel.
"""

from spectral_gibbs import ModelSpec, assemble_report, kappa_exact, report_to_json
from spectral_gibbs.spectral import spectrum_at

spec = ModelSpec(n=4, num_colors=3, temp=1.0)
spect = spectrum_at(spec)

print(f"chain: n={spec.n}, {spec.num_colors} colors, T={spec.temp}")
print(f"beta1 = {spect.beta1:.12f}")
print(f"spectral gap 1 - beta1 = {1 - spect.beta1:.6e}\n")

kappa = kappa_exact(spec)
report = assemble_report(spec, spect, kappa)
print("exact values against each bound:")
print(f"  beta1 exact                  {report['exact']['beta1']:.10f}")
print(f"  congestion bound 1 - 1/kappa {report['kappa']['poincare_beta1']:.10f}")
print(f"  closed-form bound            {report['bounds']['theorem3']:.10f}")
print(f"  comparison bound             {report['bounds']['ingrassia_beta1']:.10f}")
print()

print("full report as the CLI prints it:\n")
print(report_to_json(report))
