"""Closed-form eigenvalue bounds and dominance verdicts against exact data.

All formulas are elementary functions of the chain length ``n``, the color
count ``N``, and the temperature ``T``.  The report assembler compares each
bound with the exact spectrum and the exact congestion constant and records a
pass/fail verdict per comparison.

Total variation here and everywhere in this package means half the L1
distance between two distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelSpec
from .kernel import SparseKernel
from .spectral import Spectrum, check_gap_resolved
from .paths import CLOSED_FORM_RTOL, KappaResult, kappa_closed_form
from .serialize import canonical_json

# Exact eigenvalues carry at most ~1e-10 solver error; comparisons that are
# equalities in exact arithmetic get this much room.
EXACT_TOLERANCE = 1e-10


def theorem2_bound(n: int, temp: float) -> float:
    """Three-color upper bound for the second largest eigenvalue.

    Equals ``theorem3_bound(n, 3, temp)``.
    """
    return theorem3_bound(n, 3, temp)


def theorem3_bound(n: int, num_colors: int, temp: float) -> float:
    """N-color upper bound ``1 - N n^{-2} e^{-4/T} / (1 + (N-1) e^{-4/T})``.

    Algebraically identical to ``1 - 1/kappa_closed_form``.
    """
    if n < 1 or num_colors < 2 or not temp > 0:
        raise ValueError("need n >= 1, num_colors >= 2, temp > 0")
    u = math.exp(-4.0 / temp)
    return 1.0 - num_colors * u / (n * n * (1.0 + (num_colors - 1) * u))


def ingrassia_lambda_min_bound(num_colors: int, temp: float) -> float:
    """Lower bound ``-1 + 2 / (1 + (N-1) e^{2/T})`` for the smallest eigenvalue."""
    if num_colors < 2 or not temp > 0:
        raise ValueError("need num_colors >= 2, temp > 0")
    try:
        return -1.0 + 2.0 / (1.0 + (num_colors - 1) * math.exp(2.0 / temp))
    except OverflowError:
        # e^{2/T} is past the float range, so the bound rounds to -1.
        return -1.0


def corollary_gate(n: int, num_colors: int) -> bool:
    """Whether ``n > N / sqrt(2)``, the regime where the second-eigenvalue
    bound also dominates the full eigenvalue modulus."""
    return n > num_colors / math.sqrt(2.0)


def ingrassia_beta1_bound(n: int, num_colors: int, temp: float) -> float:
    """Second-eigenvalue comparison bound assembled from the general recipe.

    The recipe's constants are: ``N`` configurations reachable by one move,
    least total elevation gain 2, at most ``N^{n-1}`` paths through an edge,
    longest path ``n``, ``n`` sites, and the upper bound
    ``N (1 + (N-1) e^{-1/(2T)})^{n-1}`` for the normalizing constant.  This
    evaluates to ``1 - n^{-2} ((1 + (N-1) e^{-1/(2T)}) / N)^{n-1} e^{-2/T}``.
    Using the upper bound makes this the most favorable form of the general
    bound; it is used as a comparison quantity, not as a certified bound on
    the exact eigenvalue.
    """
    if n < 1 or num_colors < 2 or not temp > 0:
        raise ValueError("need n >= 1, num_colors >= 2, temp > 0")
    z_upper = num_colors * (
        1.0 + (num_colors - 1) * math.exp(-1.0 / (2.0 * temp))
    ) ** (n - 1)
    denominator = float(num_colors) ** (n - 1) * float(n) * float(num_colors) * float(n)
    return 1.0 - z_upper * math.exp(-2.0 / temp) / denominator


def _log_theta_terms(num_colors: int, temp: float) -> tuple[float, float]:
    """Logs of the two factors of :func:`theta`, finite at any temperature."""
    log_head = (
        2.0 / temp
        + math.log1p((num_colors - 1) * math.exp(-4.0 / temp))
        - math.log(num_colors)
    )
    log_ratio = (
        math.log1p((num_colors - 1) * math.exp(-1.0 / (2.0 * temp)))
        - math.log(num_colors)
    )
    return log_head, log_ratio


def theta(n: int, num_colors: int, temp: float) -> float:
    """Ratio of the two gap terms; below 1 the path bound is the tighter one.

    Equals ``(e^{2/T} + (N-1) e^{-2/T}) / N`` times
    ``((1 + (N-1) e^{-1/(2T)}) / N)^{n-1}`` and is strictly decreasing in
    ``n``.  Evaluated in log form; ``math.inf`` when the ratio is past the
    float range.
    """
    log_head, log_ratio = _log_theta_terms(num_colors, temp)
    try:
        return math.exp(log_head + (n - 1) * log_ratio)
    except OverflowError:
        return math.inf


def crossover_n(num_colors: int, temp: float) -> float:
    """Real chain length above which the ratio :func:`theta` drops below 1."""
    log_head, log_ratio = _log_theta_terms(num_colors, temp)
    return log_head / -log_ratio + 1.0


def ds_tv_envelope(
    pi_x: float, beta_star: float, k: int | np.ndarray
) -> float | np.ndarray:
    """Total-variation envelope ``(1/2) sqrt((1-pi_x)/pi_x) beta_star^k``.

    The underlying inequality bounds ``4 TV^2`` by
    ``((1-pi_x)/pi_x) beta_star^{2k}``; this returns the equivalent direct
    TV form, elementwise when ``k`` is an array of step counts.

    Raises:
        ValueError: If ``pi_x`` is not strictly inside ``(0, 1)``, the rate
            is outside ``[0, 1)``, or a step count is negative.
    """
    if not 0.0 < pi_x < 1.0:
        raise ValueError(f"start-state probability must be in (0, 1), got {pi_x}")
    if not 0.0 <= beta_star < 1.0:
        raise ValueError(f"rate must be in [0, 1), got {beta_star}")
    if np.any(np.less(k, 0)):
        raise ValueError(f"step count must be nonnegative, got {k}")
    return 0.5 * math.sqrt((1.0 - pi_x) / pi_x) * beta_star**k


def kappa_vs_beta1(beta1: float, kappa: float) -> tuple[float, bool]:
    """Margin of the Poincare inequality ``beta1 <= 1 - 1/kappa``, and whether
    it holds within ``EXACT_TOLERANCE``."""
    margin = (1.0 - 1.0 / kappa) - beta1
    return margin, margin >= -EXACT_TOLERANCE


def kappa_vs_closed_form(kappa: float, closed_form: float) -> tuple[float, bool]:
    """Margin of ``kappa <= closed_form``, and whether it holds within
    ``CLOSED_FORM_RTOL`` of the closed form."""
    margin = closed_form - kappa
    return margin, margin >= -CLOSED_FORM_RTOL * closed_form


@dataclass(frozen=True)
class BoundReport:
    """Every closed-form bound, the exact quantities, and the verdicts.

    Verdict values are "pass", "fail", or "not-applicable".

    Attributes:
        spec: Chain parameters.
        thm2: Three-color bound; None unless ``num_colors == 3``.
        thm3: N-color second-eigenvalue bound.
        ingrassia_beta1: General-recipe comparison bound.
        ingrassia_lambda_min: Smallest-eigenvalue lower bound.
        theta: Gap-term ratio.
        crossover_n: Real length threshold for ``theta < 1``.
        exact_beta1: Second largest eigenvalue.
        exact_beta_min: Smallest eigenvalue.
        exact_beta_star: Second largest eigenvalue modulus.
        exact_log_z: Log of the exact normalizing constant.
        kappa_exact: Exact congestion constant.
        kappa_closed_form: Its closed-form upper bound.
        envelope_start: Rank of the envelope's start state: the least likely
            state, which maximizes the envelope prefactor.
        envelope_pi_start: Its stationary probability.
        verdicts: Pass/fail per dominance relation.
    """

    spec: ModelSpec
    thm2: float | None
    thm3: float
    ingrassia_beta1: float
    ingrassia_lambda_min: float
    theta: float
    crossover_n: float
    exact_beta1: float
    exact_beta_min: float
    exact_beta_star: float
    exact_log_z: float
    kappa_exact: float
    kappa_closed_form: float
    envelope_start: int
    envelope_pi_start: float
    verdicts: dict[str, str]

    @property
    def all_passed(self) -> bool:
        return all(v != "fail" for v in self.verdicts.values())


def assemble_report(
    kernel: SparseKernel, spectrum: Spectrum, kappa: KappaResult
) -> BoundReport:
    """Evaluate every bound for one chain and compare against exact data.

    Args:
        kernel: Built kernel; its spec names the chain.
        spectrum: Exact spectrum of that kernel.
        kappa: Exact congestion result for that kernel.

    Raises:
        ValueError: If the spectrum or kappa come from another chain.
        PrecisionLimitError: If the spectral gap rounded to 0, or a closed
            form is past the float range.
    """
    spec = kernel.spec
    if kappa.spec != spec or len(spectrum.eigenvalues) != spec.num_states:
        raise ValueError("kernel, spectrum, and kappa must come from one chain")
    check_gap_resolved(spectrum)

    n, num_colors, temp = spec.n, spec.num_colors, spec.temp
    thm3 = theorem3_bound(n, num_colors, temp)
    thm2 = theorem2_bound(n, temp) if num_colors == 3 else None
    ing_beta1 = ingrassia_beta1_bound(n, num_colors, temp)
    ing_lmin = ingrassia_lambda_min_bound(num_colors, temp)
    theta_value = theta(n, num_colors, temp)
    closed = kappa_closed_form(spec)

    envelope_start = int(np.argmin(kernel.pi.weights))
    pi_start = float(kernel.pi.weights[envelope_start])

    verdicts: dict[str, str] = {}
    verdicts["theorem3"] = "pass" if spectrum.beta1 < thm3 else "fail"
    if thm2 is not None:
        verdicts["theorem2"] = "pass" if spectrum.beta1 < thm2 else "fail"
    verdicts["lambda_min"] = (
        "pass" if spectrum.beta_min >= ing_lmin - EXACT_TOLERANCE else "fail"
    )
    if corollary_gate(n, num_colors):
        verdicts["corollary_beta_star"] = (
            "pass" if spectrum.beta_star < thm3 else "fail"
        )
    else:
        verdicts["corollary_beta_star"] = "not-applicable"
    _, passed = kappa_vs_beta1(spectrum.beta1, kappa.kappa)
    verdicts["kappa_vs_beta1"] = "pass" if passed else "fail"
    _, passed = kappa_vs_closed_form(kappa.kappa, closed)
    verdicts["kappa_vs_closed_form"] = "pass" if passed else "fail"
    improvement = theta_value < 1.0
    agrees = improvement == (thm3 < ing_beta1)
    near_boundary = abs(theta_value - 1.0) <= 1e-12
    verdicts["theta_consistency"] = (
        "pass" if agrees or near_boundary else "fail"
    )

    return BoundReport(
        spec=spec,
        thm2=thm2,
        thm3=thm3,
        ingrassia_beta1=ing_beta1,
        ingrassia_lambda_min=ing_lmin,
        theta=theta_value,
        crossover_n=crossover_n(num_colors, temp),
        exact_beta1=spectrum.beta1,
        exact_beta_min=spectrum.beta_min,
        exact_beta_star=spectrum.beta_star,
        exact_log_z=kernel.pi.log_z,
        kappa_exact=kappa.kappa,
        kappa_closed_form=closed,
        envelope_start=envelope_start,
        envelope_pi_start=pi_start,
        verdicts=verdicts,
    )


def report_to_dict(report: BoundReport) -> dict:
    """JSON-ready form of a report with a fixed field order."""
    spec = report.spec
    payload: dict = {
        "model": {
            "n": spec.n,
            "colors": spec.num_colors,
            "temp": float(spec.temp),
        },
        "exact": {
            "beta1": report.exact_beta1,
            "beta_min": report.exact_beta_min,
            "beta_star": report.exact_beta_star,
            "log_z": report.exact_log_z,
        },
        "bounds": {
            "theorem2": report.thm2,
            "theorem3": report.thm3,
            "ingrassia_beta1": report.ingrassia_beta1,
            "ingrassia_lambda_min": report.ingrassia_lambda_min,
            "theta": report.theta,
            "crossover_n": report.crossover_n,
        },
        "kappa": {
            "exact": report.kappa_exact,
            "closed_form": report.kappa_closed_form,
            "poincare_beta1": 1.0 - 1.0 / report.kappa_exact,
        },
        "envelope": {
            "start_state": report.envelope_start,
            "pi_start": report.envelope_pi_start,
            "beta_star": report.exact_beta_star,
        },
        "verdicts": dict(report.verdicts),
        "all_passed": report.all_passed,
    }
    return payload


def report_to_json(report: BoundReport) -> str:
    """Serialized form of :func:`report_to_dict`."""
    return canonical_json(report_to_dict(report))
