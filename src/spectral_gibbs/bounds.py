"""Closed-form eigenvalue bounds and dominance verdicts against exact data.

All formulas are elementary functions of the chain length ``n``, the color
count ``N``, and the temperature ``T``.  The report assembler compares each
bound with the exact spectrum and the exact congestion constant and records a
pass/fail verdict per comparison.  The paper's three-color Theorem 2 is its
Theorem 3 at ``N = 3``, which the report also lists as ``theorem2``.  It
reads ``log Z`` and the least likely state from their closed forms in
``model``, so it builds no kernel and enumerates no state.

Total variation here and everywhere in this package means half the L1
distance between two distributions.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .model import EIGENVALUE_TOLERANCE, LOG_FLOAT_MAX, ROUNDING_TOLERANCE, ModelSpec
from .model import least_likely_rank, log_excess, log_partition
from .spectral import Spectrum
from .paths import KappaResult, kappa_closed_form
from .serialize import canonical_json


def theorem3_bound(n: int, num_colors: int, temp: float) -> float:
    """N-color upper bound ``1 - N n^{-2} e^{-4/T} / (1 + (N-1) e^{-4/T})``.

    Algebraically identical to ``1 - 1/kappa_closed_form``.  Evaluated as
    ``(n^2 (1 - u) + N u (n^2 - 1)) / (n^2 (1 + (N-1) u))`` with
    ``u = e^{-4/T}``, a sum of nonnegative terms, so no digit cancels where
    the bound tends to 0 (``n = 1`` at high temperature).  Where the
    denominator is past the float range, both are divided by
    ``n^2 N max(1/N, u)``, taken in logs.  A bound on an eigenvalue, it is
    at most 1, also where rounding would put it above.
    """
    if n < 1 or num_colors < 2 or not temp > 0:
        raise ValueError("need n >= 1, num_colors >= 2, temp > 0")
    u = math.exp(-4.0 / temp)
    try:
        n2 = float(n) * n
        denominator = n2 * (1.0 + (num_colors - 1) * u)
    except OverflowError:  # n or N is past the float range
        denominator = math.inf
    if denominator < math.inf:
        numerator = n2 * -math.expm1(-4.0 / temp) + num_colors * u * (n2 - 1.0)
        return min(numerator / denominator, 1.0)
    log_r, log_u = -math.log(num_colors), -4.0 / temp
    r, u = (math.exp(x - max(log_r, log_u)) for x in (log_r, log_u))
    numerator = -math.expm1(-4.0 / temp) * r + u * (1.0 - (1 / n) ** 2)
    return min(numerator / (r + (num_colors - 1) / num_colors * u), 1.0)


def ingrassia_beta1_bound(n: int, num_colors: int, temp: float) -> float:
    """Second-eigenvalue comparison bound assembled from the general recipe.

    The recipe's constants are: ``N`` configurations reachable by one move,
    least total elevation gain 2, at most ``N^{n-1}`` paths through an edge,
    longest path ``n``, ``n`` sites, and the upper bound
    ``N (1 + (N-1) e^{-1/(2T)})^{n-1}`` for the normalizing constant.  This
    evaluates to ``1 - n^{-2} ((1 + (N-1) e^{-1/(2T)}) / N)^{n-1} e^{-2/T}``.
    Using the upper bound makes this the most favorable form of the general
    bound; it is used as a comparison quantity, not as a certified bound on
    the exact eigenvalue.  Evaluated as ``(1 - e^{-2/T}) + e^{-2/T} (1 - r)``
    with ``r = n^{-2} ((1 + (N-1) e^{-1/(2T)}) / N)^{n-1} <= 1``, a sum of
    nonnegative terms: no digit cancels where the bound tends to 0 (``n = 1``
    at high temperature), and no power overflows at any ``n`` or ``N``.  It
    is at most 1, also where rounding would put it above.
    """
    if n < 1 or num_colors < 2 or not temp > 0:
        raise ValueError("need n >= 1, num_colors >= 2, temp > 0")
    weight = math.exp(-0.5 / temp)
    try:
        base = (1.0 + (num_colors - 1) * weight) / num_colors
    except OverflowError:  # N is past the float range, where (N-1)/N rounds to 1
        base = 1 / num_colors + weight
    try:
        r = base ** (n - 1) / (float(n) * n)
    except OverflowError:  # n is past the float range, where r <= n^{-2} is 0
        r = 0.0
    return min(-math.expm1(-2.0 / temp) + math.exp(-2.0 / temp) * (1.0 - r), 1.0)


def _log_mean_weight(num_colors: int, x: float) -> float:
    """``log((1 + (N-1) e^{-x}) / N)`` for ``x > 0``, to a few ulps at any ``N``."""
    try:
        a = (num_colors - 1) * math.expm1(-x) / num_colors
    except OverflowError:  # N is past the float range, where (N-1)/N rounds to 1
        a = math.expm1(-x)
    if a >= 1 / 32 - 1:
        # log1p keeps every digit at high temperature, where the mean tends to 1.
        return math.log1p(a)
    # Below that, 1 + a keeps few digits: add the logs of the mean's two
    # terms 1/N and ((N-1)/N) e^{-x} instead.
    return float(np.logaddexp(-math.log(num_colors), math.log1p(-1 / num_colors) - x))


def _log_theta_terms(num_colors: int, temp: float) -> tuple[float, float]:
    """Logs of the two factors of :func:`theta`; the first is inf only where
    ``2/T`` is past the float range."""
    log_head = 2.0 / temp + _log_mean_weight(num_colors, 4.0 / temp)
    return log_head, _log_mean_weight(num_colors, 0.5 / temp)


def _log_gaps(n: int, num_colors: int, temp: float) -> tuple[float, float]:
    """Logs of the gap terms ``1 - theorem3`` and ``1 - ingrassia_beta1`` less
    their common ``log n^-2``, ``log(u / m(u))`` and ``(n-1) log m(w) - 2/T``
    (``u = e^{-4/T}``, ``w = e^{-1/(2T)}``, ``m(x) = 1/N + (1 - 1/N) x``):
    nothing overflows or cancels at any N, they stay apart where both bounds
    round to 1, and they share no arithmetic with :func:`theta`."""
    share = 1 / num_colors
    log_m = [math.log(share + (1 - share) * math.exp(-x / temp)) for x in (4.0, 0.5)]
    return -4.0 / temp - log_m[0], (n - 1) * log_m[1] - 2.0 / temp


def theta(n: int, num_colors: int, temp: float) -> float:
    """Ratio of the two gap terms; below 1 the path bound is the tighter one.

    Equals ``(e^{2/T} + (N-1) e^{-2/T}) / N`` times
    ``((1 + (N-1) e^{-1/(2T)}) / N)^{n-1}`` and is strictly decreasing in
    ``n``.  Evaluated in log form at any ``n``, as ``T log(theta)`` where
    ``2/T`` is past the float range; ``math.inf`` when the ratio is past it.
    """
    log_head, log_ratio = _log_theta_terms(num_colors, temp)
    scale = 1.0
    if log_head == math.inf:  # 2/T is past the float range, T log(theta) is not
        scale = temp
        log_head = 2.0 + temp * _log_mean_weight(num_colors, 4.0 / temp)
    try:
        decay = scale * (n - 1) * log_ratio
    except OverflowError:  # n is past the float range: multiply in logs
        log_decay = math.log(scale) + math.log(n - 1) + math.log(-log_ratio)
        decay = -math.exp(min(log_decay, LOG_FLOAT_MAX))
    try:
        return math.exp((log_head + decay) / scale)
    except OverflowError:
        return math.inf


def crossover_n(num_colors: int, temp: float) -> float:
    """Real chain length above which the ratio :func:`theta` drops below 1."""
    log_head, log_ratio = _log_theta_terms(num_colors, temp)
    if log_head < math.inf:
        return log_head / -log_ratio + 1.0
    # 2/T is past the float range: divide 2 by -log_ratio before T.
    scale = -log_ratio
    return 2.0 / scale / temp + _log_mean_weight(num_colors, 4.0 / temp) / scale + 1.0


def ds_tv_envelope(
    pi_x: float, beta1: float, k: int | np.ndarray
) -> float | np.ndarray:
    """Total-variation envelope ``(1/2) sqrt((1-pi_x)/pi_x) beta1^k``.

    The underlying inequality bounds ``4 TV^2`` by
    ``((1-pi_x)/pi_x) beta*^{2k}`` with ``beta*`` the largest modulus of an
    eigenvalue other than the leading 1, which is ``beta1`` for random-scan
    Gibbs, a positive semidefinite kernel; this returns the equivalent
    direct TV form, elementwise when ``k`` is an array of step counts.

    Raises:
        ValueError: If ``pi_x`` is not strictly inside ``(0, 1)``, the rate
            is outside ``[0, 1)``, or a step count is negative.
    """
    if not 0.0 < pi_x < 1.0:
        raise ValueError(f"start-state probability must be in (0, 1), got {pi_x}")
    if not 0.0 <= beta1 < 1.0:
        raise ValueError(f"rate must be in [0, 1), got {beta1}")
    if np.any(np.less(k, 0)):
        raise ValueError(f"step count must be nonnegative, got {k}")
    return 0.5 * math.sqrt((1.0 - pi_x) / pi_x) * beta1**k


def kappa_vs_beta1(beta1: float, kappa: float) -> tuple[float, bool]:
    """Margin of the Poincare inequality ``beta1 <= 1 - 1/kappa``, and whether
    it holds within ``EIGENVALUE_TOLERANCE``."""
    margin = (1.0 - 1.0 / kappa) - beta1
    return margin, margin >= -EIGENVALUE_TOLERANCE


def kappa_vs_closed_form(kappa: float, closed_form: float) -> tuple[float, bool]:
    """Margin of ``kappa <= closed_form``, and whether it holds within
    ``ROUNDING_TOLERANCE`` of the closed form."""
    margin = closed_form - kappa
    return margin, margin >= -ROUNDING_TOLERANCE * closed_form


def assemble_report(
    spec: ModelSpec, spectrum: Spectrum, kappa: KappaResult
) -> dict[str, dict]:
    """Evaluate every bound for one chain, compare it against exact data,
    and build each group of the report once.

    Args:
        spec: The chain.
        spectrum: Exact spectrum of that chain, whose gap is resolved.
        kappa: Exact congestion result for that chain.

    Returns:
        The report's groups, in the order that ``bounds --format json``
        prints them:

        - ``model``: the chain's ``n``, ``colors`` and ``temp``.
        - ``exact``: ``beta1`` of the exact spectrum, and ``log_z``, the log
          of the normalizing constant.  The kernel is positive
          semidefinite, so ``beta1`` is also the paper's rate, the largest
          modulus of an eigenvalue other than the leading 1, and every
          bound on ``beta1`` bounds it.
        - ``bounds``: ``theorem2`` (the paper's three-color bound:
          ``theorem3`` at ``N = 3``, else None), ``theorem3``,
          ``ingrassia_beta1``, the gap-term ratio ``theta`` and
          ``crossover_n``, the real length where it crosses 1.
        - ``kappa``: the ``exact`` congestion constant, its ``closed_form``
          upper bound, and ``poincare_beta1 = 1 - 1/exact``.
        - ``envelope``: the envelope's ``start_state``, the rank of the
          least likely state, which maximizes the envelope prefactor (None
          where it has more digits than Python prints, from n = 14286 at
          N = 2), and its stationary probability ``pi_start``; its rate is
          ``beta1``.
        - ``verdicts``: "pass" or "fail" per dominance relation.

    Raises:
        ValueError: If the spectrum or kappa come from another chain.
        PrecisionLimitError: If a closed form is past the float range.
    """
    if kappa.spec != spec or spectrum.spec != spec:
        raise ValueError("spec, spectrum, and kappa must come from one chain")

    n, num_colors, temp = spec.n, spec.num_colors, spec.temp
    thm3 = theorem3_bound(n, num_colors, temp)
    bounds = {
        "theorem2": thm3 if num_colors == 3 else None,
        "theorem3": thm3,
        "ingrassia_beta1": ingrassia_beta1_bound(n, num_colors, temp),
        "theta": theta(n, num_colors, temp),
        "crossover_n": crossover_n(num_colors, temp),
    }
    closed = kappa_closed_form(spec)
    log_z = log_partition(spec)

    # Theorem 3 is 1 - 1/kappa_closed_form, so it holds where the Poincare
    # inequality does with the closed form in place of the exact kappa.
    names = ("theorem3", "theorem2") if num_colors == 3 else ("theorem3",)
    passed = dict.fromkeys(names, kappa_vs_beta1(spectrum.beta1, closed)[1])
    passed["kappa_vs_beta1"] = kappa_vs_beta1(spectrum.beta1, kappa.kappa)[1]
    passed["kappa_vs_closed_form"] = kappa_vs_closed_form(kappa.kappa, closed)[1]
    # theta is the ratio of the gap terms, Ingrassia's over Theorem 3's.
    log_thm3_gap, log_ingrassia_gap = _log_gaps(n, num_colors, temp)
    agrees = (bounds["theta"] < 1.0) == (log_ingrassia_gap < log_thm3_gap)
    at_one = abs(bounds["theta"] - 1.0) <= ROUNDING_TOLERANCE
    passed["theta_consistency"] = agrees or at_one
    verdicts = {name: "pass" if ok else "fail" for name, ok in passed.items()}

    return {
        "model": {"n": n, "colors": num_colors, "temp": float(temp)},
        "exact": {"beta1": spectrum.beta1, "log_z": log_z},
        "bounds": bounds,
        "kappa": {
            "exact": kappa.kappa,
            "closed_form": closed,
            "poincare_beta1": 1.0 - 1.0 / kappa.kappa,
        },
        "envelope": {
            "start_state": _printable_least_likely_rank(spec),
            # The least likely state's energy is -(n - 1), as in stationary_measure.
            "pi_start": float(np.exp(-2 * (n - 1) / temp - log_excess(spec))),
        },
        "verdicts": verdicts,
    }


def _printable_least_likely_rank(spec: ModelSpec) -> int | None:
    """:func:`least_likely_rank`, or None where it has more decimal digits
    than Python converts to text, ``sys.get_int_max_str_digits()`` (0 means
    no limit).  The rank is at least ``2^(n-2)``, so past ``n - 2 > 4 limit``
    it has more than ``limit`` digits and is not formed."""
    limit = sys.get_int_max_str_digits()
    if limit and spec.n - 2 > 4 * limit:
        return None
    rank = least_likely_rank(spec)
    return rank if not limit or rank < 10**limit else None


def report_to_dict(report: dict[str, dict]) -> dict:
    """JSON-ready form of a report: its groups in order, then
    ``all_passed``, whether every verdict is "pass"."""
    all_passed = all(v == "pass" for v in report["verdicts"].values())
    return {**report, "all_passed": all_passed}


def report_to_json(report: dict[str, dict]) -> str:
    """Serialized form of :func:`report_to_dict`."""
    return canonical_json(report_to_dict(report))
