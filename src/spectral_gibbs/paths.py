"""Canonical paths, the exact path-congestion constant, and its certificates.

For every ordered pair of distinct states ``(x, y)`` the canonical path
corrects the disagreeing sites of ``x`` one at a time, in increasing site
order, until ``y`` is reached.  The congestion constant is

    kappa = max over directed edges e of
            (1/Q(e)) * sum over paths traversing e of |path| * pi(x) * pi(y)

where ``Q(u, v) = pi(u) P(u, v)`` is the (symmetric) edge measure.  Loads are
accumulated per directed edge, matching the traversal orientation of the
paths; with one path per ordered pair this makes the single-pair, single-edge
chain carry exactly its own pair, so the degenerate one-site chain yields
``kappa = 1``.  An edge's ratio depends only on its site, the colors of its
two neighbors and its own two colors, so :func:`kappa_exact` and
:func:`certify_all_edges` read one table of worst ratios per such neighbor
pattern, in ``O(n N^4)`` and with no kernel.  The sums over marginals of
``pi`` and the enumeration of pairs are kept only as the tests' oracles.

The module also evaluates the closed-form upper bound ``(n^2/N)(N-1+e^{4/T})``
together with the quantities that prove it, each as one table over every
neighbor pattern: the proof's edge factor ``alpha + beta``, which is
``alpha/p`` with ``p`` read from the conditional table, the interior bound
``(n^2/N) alpha/p``, the boundary bound ``(n^2/N)(N-1+e^{2/T})``, and the
slice-sum identities the derivation rests on, summed over the enumerated
``pi``.  The scalar ``alpha`` and ``beta`` are kept as a test oracle.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import ModelSpec, PrecisionLimitError, color_letter
from .model import colors_table  # noqa: F401 -- perfbench/spans.py wraps this name
from .kernel import SparseKernel, local_conditionals, local_scores
from .kernel import conditional_table  # noqa: F401 -- and this one
from .serialize import canonical_json  # noqa: F401 -- and this one


@dataclass(frozen=True)
class EdgeLoad:
    """The worst directed edge of one neighbor pattern: a site, its two
    neighbors' colors and the edge's two colors.

    Attributes:
        ratio: Largest ``load / (pi(z) P(z, z'))`` over the pattern's edges.
        site: 1-based site that the edge recolors.
        color_from: Color at that site before the move.
        color_to: Color at that site after the move.
        left: Color of the left neighbor, or None at site 1.
        right: Color of the right neighbor, or None at site n.
    """

    ratio: float
    site: int
    color_from: int
    color_to: int
    left: int | None
    right: int | None


@dataclass(frozen=True)
class KappaResult:
    """Exact congestion constant plus the worst ratio of every neighbor pattern.

    ``patterns`` is indexed ``[site - 1, left + 1, right + 1, color_from,
    color_to]``, where a neighbor index of 0 means no neighbor.  Every edge's
    ratio is positive; slots that are no edge (equal colors, or a neighbor
    index that does not fit the site) hold zeros.
    """

    spec: ModelSpec
    kappa: float
    argmax_edge: EdgeLoad
    patterns: np.ndarray


# A ratio may exceed its closed-form bound only by rounding, relative to the
# bound: the edge certificates and the kappa verdict allow this much.
CLOSED_FORM_RTOL = 1e-12
# The witness is chosen among the patterns whose ratio is within this
# relative distance of kappa, so last-digit rounding cannot pick between
# edges that symmetry makes equally loaded.
WITNESS_RTOL = 1e-12


def _marginal(p: np.ndarray, sites) -> np.ndarray:
    """Marginal of ``p`` (indexed by site colors) on ``sites``.

    The other axes are kept at length 1, so the marginal broadcasts against
    ``p`` and reads off each state's colors at ``sites``.
    """
    keep = set(sites)
    return p.sum(axis=tuple(k for k in range(p.ndim) if k not in keep), keepdims=True)


def _edge_at(patterns: np.ndarray, index) -> EdgeLoad:
    """The pattern at ``index`` into a ``KappaResult.patterns`` table."""
    i, left, right, color_from, color_to = (int(k) for k in index)
    return EdgeLoad(
        ratio=float(patterns[i, left, right, color_from, color_to]),
        site=i + 1,
        color_from=color_from,
        color_to=color_to,
        left=left - 1 if left else None,
        right=right - 1 if right else None,
    )


def _worst_state(n: int, index) -> bytes:
    """The smallest state at which the edge of a pattern has its worst ratio,
    as bytes, which compare in rank order: past the neighbors, the smallest
    color other than ``color_from`` (left) or ``color_to`` (right)."""
    i, left, right, color_from, color_to = index
    state = bytearray([color_from == 0]) * i + bytearray([color_from])
    state += bytearray([color_to == 0]) * (n - 1 - i)
    if left:
        state[i - 1] = left - 1
    if right:
        state[i + 1] = right - 1
    return bytes(state)


def kappa_exact(spec: ModelSpec) -> KappaResult:
    """Compute the congestion constant from the worst ratio of every pattern.

    With free boundaries ``pi`` is a stationary Markov chain along the sites:
    ``P(x_j = a | x_i = c) = 1/N + (delta_ac - 1/N) rho^{|i-j|}`` with
    ``e = e^{2/T}`` and ``rho = (e-1)/(e+N-1)``.  The paths through the edge
    that recolors site ``i`` of ``z`` from ``c`` to ``c'`` run from
    ``(any x_{<i}, z_{>=i})`` to ``(z_{<i}, c', any y_{>i})``, so its ratio is
    ``(n/N) (alpha/p) L``: ``alpha = e^{(s(l,c') - s(l,c))/T}``, ``p`` the
    conditional of ``c'`` between the neighbors ``l`` and ``r``, and
    ``L = 1 + sum_{j<i} P(x_j != z_j | x_i = c) + sum_{j>i} P(y_j != z_j | y_i = c')``.
    Past the neighbors each term is largest, ``1 - 1/N + rho^d/N`` at
    distance ``d``, where ``z_j`` differs from ``c`` (left) or ``c'``
    (right).  The table costs ``O(n N^4)`` and needs no kernel.  The witness
    is the pattern within a relative ``WITNESS_RTOL`` of kappa whose worst
    state comes first in rank order, then the lowest site and ``color_to``.

    Raises:
        PrecisionLimitError: Where :func:`kappa_closed_form` would be past
            the float range.
    """
    alpha, cond = _edge_factors(spec)
    n, num_colors, t = spec.n, spec.num_colors, spec.temp
    e = math.exp(2.0 / t)
    rho = math.expm1(2.0 / t) / (e + num_colors - 1)
    # far[k]: the worst terms at distances 2..k, summed term by term.
    far_terms = 1.0 - 1.0 / num_colors + rho ** np.arange(2, n) / num_colors
    far = np.concatenate(([0.0, 0.0], np.cumsum(far_terms)))[:n]
    # near[u + 1, c]: P(neighbor != u | site = c), 0 with no neighbor; it is
    # (1 - 1/N)(1 - rho) if u = c and 1 - (1 - rho)/N otherwise, with
    # 1 - rho = N/(e+N-1) taken without cancellation.
    near = np.full((num_colors + 1, num_colors), 1.0 - 1.0 / (e + num_colors - 1))
    near[0] = 0.0
    np.fill_diagonal(near[1:], (num_colors - 1) / (e + num_colors - 1))
    patterns = (1.0 + far + far[::-1])[:, None, None, None, None]
    patterns = patterns + near[:, None, :, None] + near[None, :, None, :]
    patterns *= n / num_colors * alpha / cond
    # An edge has two colors, and a missing neighbor exactly past an end.
    patterns[..., range(num_colors), range(num_colors)] = 0.0
    patterns[1:, 0] = patterns[:-1, :, 0] = 0.0
    patterns[0, 1:] = patterns[-1, :, 1:] = 0.0
    patterns.flags.writeable = False

    kappa = float(patterns.max())
    tied = np.argwhere(patterns >= (1.0 - WITNESS_RTOL) * kappa)
    witness = _first_pattern(tied, patterns.shape)
    edge = _edge_at(patterns, witness)
    return KappaResult(spec=spec, kappa=kappa, argmax_edge=edge, patterns=patterns)


def _first_pattern(candidates: np.ndarray, shape: tuple[int, ...]) -> list[int]:
    """The row of ``candidates``, indices into a table of ``shape`` indexed
    like ``KappaResult.patterns``, whose worst state comes first in rank
    order, then the lowest site and ``color_to``."""
    n = shape[0]
    # Ties span the interior sites at large n.  Within one neighbor pattern
    # the worst states there are ordered by the site: a later site's is the
    # smaller iff l > b, or l == b and c > b, where l is the left neighbor's
    # color, c is color_from and b = [c == 0] fills the sites left of l.
    # So keep one site per pattern: its last if later wins, else its first.
    i, left, _, color_from, _ = candidates.T
    b = color_from == 0
    later = (left - 1 > b) | ((left - 1 == b) & (color_from > b))
    order = np.argsort(np.where(later, -i, i), kind="stable")
    pattern = np.ravel_multi_index(candidates[order, 1:].T, shape[1:])
    candidates = candidates[order[np.unique(pattern, return_index=True)[1]]]
    # Compare the worst states' first colors at once: ties are many at large N.
    i, left, _, color_from, _ = candidates.T
    first = np.select([i == 0, i == 1], [color_from, left - 1], color_from == 0)
    candidates = candidates[first == first.min()].tolist()
    return min(candidates, key=lambda k: (_worst_state(n, k), k[0], k[4]))


# Log of the largest finite float64.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _check_float_range(spec: ModelSpec) -> None:
    """Refuse a temperature at which the closed-form quantities overflow.

    Every closed-form quantity of this module (the bounds, the edge factor
    ``alpha/p``, the slice scale ``e^{2/T}``) is at most
    ``max(1, n^2/N) N e^{4/T}``, since ``alpha/p <= N - 1 + e^{4/T}``.

    Raises:
        PrecisionLimitError: If that bound is past the float range.
    """
    n, num_colors = spec.n, spec.num_colors
    log_bound = math.log(max(1.0, n * n / num_colors) * num_colors) + 4.0 / spec.temp
    if log_bound >= _LOG_FLOAT_MAX:
        raise PrecisionLimitError(
            f"the closed-form bound (n^2/N)(N-1+e^(4/T)) is past the float range "
            f"at temp {spec.temp!r}"
        )


def kappa_closed_form(spec: ModelSpec) -> float:
    """Closed-form upper bound ``(n^2/N)(N-1+e^{4/T})`` for the constant.

    Raises:
        PrecisionLimitError: If it is past the float range.
    """
    _check_float_range(spec)
    n, num_colors = spec.n, spec.num_colors
    return (n * n / num_colors) * (num_colors - 1 + math.exp(4.0 / spec.temp))


def boundary_edge_bound(spec: ModelSpec) -> float:
    """Per-edge bound ``(n^2/N)(N-1+e^{2/T})`` for edges at site 1 or n.

    Raises:
        PrecisionLimitError: Where :func:`kappa_closed_form` would be past
            the float range.
    """
    _check_float_range(spec)
    n, num_colors = spec.n, spec.num_colors
    return (n * n / num_colors) * (num_colors - 1 + math.exp(2.0 / spec.temp))


def _edge_factors(spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """``alpha`` and ``p``, the local factors of every edge's ratio.

    ``alpha = e^{(s(l,c') - s(l,c))/T}``, the bond change at the left
    neighbor, is indexed ``[left + 1, 0, color_from, color_to]``; ``p``, the
    conditional of ``c'``, is :func:`local_conditionals` indexed
    ``[left + 1, right + 1, 0, color_to]``.  ``alpha / p`` is the proof's
    ``alpha + beta``, as ``beta`` is ``alpha`` times the other colors'
    weights over that of ``c'``.

    Raises:
        PrecisionLimitError: Where :func:`kappa_closed_form` would be past
            the float range.
    """
    _check_float_range(spec)
    # With no right neighbor the score is the single bond s(left, c).
    bond = local_scores(spec)[:, 0]
    alpha = np.exp((bond[:, None, None, :] - bond[:, None, :, None]) / spec.temp)
    return alpha, local_conditionals(spec)[:, :, None, :]


@dataclass(frozen=True)
class WorstFactors:
    """Maximum of ``alpha + beta = alpha/p`` over all neighbor-color patterns.

    Attributes:
        value: The maximum of the factor.
        argmax: Neighbor color pairs ``(left, right)`` within a relative
            ``WITNESS_RTOL`` of it, in row-major order.
        closed_form: ``N - 1 + e^{4/T}``.
    """

    value: float
    argmax: tuple[tuple[int, int], ...]
    closed_form: float


def worst_alpha_beta(
    spec: ModelSpec, color_from: int = 0, color_to: int = 1
) -> WorstFactors:
    """Scan all neighbor-color patterns of an interior edge for the worst factor.

    By color symmetry the result does not depend on the chosen edge colors.
    Patterns that symmetry makes equal can differ in the last digit, so every
    pattern within a relative ``WITNESS_RTOL`` of the maximum is returned.

    Raises:
        ValueError: If the edge colors are equal or not colors of the chain.
        PrecisionLimitError: Where :func:`kappa_closed_form` would be past
            the float range.
    """
    if color_from == color_to or {color_from, color_to} - set(range(spec.num_colors)):
        raise ValueError("edge colors must be two different colors of the chain")
    alpha, cond = _edge_factors(spec)
    sums = (alpha / cond)[1:, 1:, color_from, color_to]
    best = float(sums.max())
    lefts, rights = np.nonzero(sums >= (1.0 - WITNESS_RTOL) * best)
    return WorstFactors(
        value=best,
        argmax=tuple(zip(lefts.tolist(), rights.tolist())),
        closed_form=spec.num_colors - 1 + math.exp(4.0 / spec.temp),
    )


@dataclass(frozen=True)
class EdgeCertificate:
    """Outcome of checking one edge's load ratio against its bound.

    Attributes:
        edge: The checked edge.
        bound: ``(n^2/N) alpha/p`` for interior edges, the boundary
            closed form otherwise.
        slack: ``bound - ratio``; nonnegative when the certificate passes.
        interior: Whether the interior bound applied.
        passed: ``slack >= 0``.
    """

    edge: EdgeLoad
    bound: float
    slack: float
    interior: bool
    passed: bool


@dataclass(frozen=True)
class CertificateSummary:
    """Aggregate of the per-edge certificates over every directed edge."""

    num_edges: int
    min_slack: float
    worst: EdgeCertificate
    all_passed: bool


def certify_all_edges(result: KappaResult) -> CertificateSummary:
    """Check every directed edge's ratio against its per-edge bound.

    Interior edges use their own ``(n^2/N)(alpha+beta) = (n^2/N) alpha/p``,
    edges at site 1 or n the boundary closed form.  As the worst ratio is
    ``(n/N)(alpha/p) L`` (see :func:`kappa_exact`), the interior certificate
    checks the path-length factor ``L <= n`` and the boundary one
    ``(alpha/p) L <= n (N-1+e^{2/T})``.  Every edge of a neighbor pattern
    has the pattern's bound and at most its worst ratio, so comparing the
    two certifies all ``N^n n (N-1)`` directed edges.  The worst certificate
    is chosen like the witness of :func:`kappa_exact`, among the patterns
    whose slack is within ``WITNESS_RTOL`` times their bound of the least
    slack, so last-digit rounding cannot pick between patterns that symmetry
    makes equal.  An edge passes when its slack is at least
    ``-CLOSED_FORM_RTOL`` times its bound.
    """
    spec = result.spec
    n, num_colors = spec.n, spec.num_colors
    alpha, cond = _edge_factors(spec)
    bounds = np.full(result.patterns.shape, boundary_edge_bound(spec))
    bounds[1:-1, 1:, 1:] = (n * n / num_colors) * (alpha / cond)[1:, 1:]
    slack = np.where(result.patterns > 0, bounds - result.patterns, np.inf)
    min_slack = float(slack.min())
    tied = np.argwhere(slack <= min_slack + WITNESS_RTOL * bounds)
    index = tuple(_first_pattern(tied, slack.shape))
    edge = _edge_at(result.patterns, index)
    worst = EdgeCertificate(
        edge=edge,
        bound=float(bounds[index]),
        slack=float(slack[index]),
        interior=edge.site not in (1, n),
        passed=bool(slack[index] >= -CLOSED_FORM_RTOL * bounds[index]),
    )
    return CertificateSummary(
        num_edges=spec.num_states * n * (num_colors - 1),
        min_slack=min_slack,
        worst=worst,
        all_passed=bool(np.all(slack >= -CLOSED_FORM_RTOL * bounds)),
    )


@dataclass(frozen=True)
class SliceIdentityReport:
    """Exactly summed slice identities at one site and color pair.

    For ``W^(k) = {w : w_i = color_from, w_{i+1} = c^(k)}`` the checked
    identities are: the agreeing slice outweighs each disagreeing slice by
    exactly ``e^{2/T}``; the slices total ``1/N``; and the two
    exponential-weighted slice sums (``a_prime`` over ``w_i = color_from``
    weighted by the bond change at ``(i, i+1)`` when that site is recolored
    to ``color_to``, and ``b_prime`` over ``w_i = color_to`` weighted by the
    bond change at ``(i-1, i)`` when it is recolored back) both equal
    ``1/N``.  ``b_prime`` needs a left neighbor and is skipped at site 1.

    Attributes:
        site: 1-based site ``i``.
        color_from: Color defining the ``W`` slices.
        color_to: Replacement color of the weighted sums.
        w_slice_sums: Measure of each ``W^(k)``, indexed by color ``k``.
        agree_ratio_error: Worst ``|W^(from) - e^{2/T} W^(k)|`` over
            ``k != color_from``.
        total_error: ``|sum_k W^(k) - 1/N|``.
        a_prime: Weighted sum over ``w_i = color_from``.
        b_prime: Weighted sum over ``w_i = color_to``, or None at site 1.
        max_error: Largest deviation among all applicable identities.
        passed: ``max_error <= 1e-12``.
    """

    site: int
    color_from: int
    color_to: int
    w_slice_sums: tuple[float, ...]
    agree_ratio_error: float
    total_error: float
    a_prime: float
    b_prime: float | None
    max_error: float
    passed: bool

SLICE_TOLERANCE = 1e-12


def verify_slice_identities(
    kernel: SparseKernel, site: int, color_from: int, color_to: int
) -> SliceIdentityReport:
    """Sum the slice identities exactly over the whole state space.

    Args:
        kernel: Built kernel (provides the stationary weights).
        site: 1-based site ``i`` with ``1 <= i <= n-1``; the identities
            involve the bond ``(i, i+1)``.
        color_from: Slice color (the color the site currently holds).
        color_to: Replacement color; must differ from ``color_from``.

    Raises:
        ValueError: If the site has no right neighbor or the colors match.
        PrecisionLimitError: Where :func:`kappa_closed_form` would be past
            the float range.
    """
    spec = kernel.spec
    if not 1 <= site <= spec.n - 1:
        raise ValueError(
            f"site {site} out of range 1..{spec.n - 1}; the identities need a "
            "right neighbor"
        )
    if color_from == color_to:
        raise ValueError("colors must differ")
    alpha, _ = _edge_factors(spec)
    num_colors = spec.num_colors
    p = kernel.pi.weights.reshape((num_colors,) * spec.n)
    i = site - 1

    # pair[u, v] is the measure of {w : w_i = u, w_{i+1} = v}.
    pair = _marginal(p, (i, i + 1)).reshape(num_colors, num_colors)
    w_sums = tuple(float(w) for w in pair[color_from])
    scale = math.exp(2.0 / spec.temp)
    agree_ratio_error = max(
        abs(w_sums[color_from] - scale * w_sums[k])
        for k in range(num_colors)
        if k != color_from
    )
    total_error = abs(sum(w_sums) - 1.0 / num_colors)

    # The bond changes, indexed by the neighbor's color, are copied out of
    # alpha: numpy's dot sums a strided vector in another order.
    change = alpha[1:, 0, color_from, color_to].copy()
    a_prime = float(pair[color_from] @ change)
    errors = [agree_ratio_error, total_error, abs(a_prime - 1.0 / num_colors)]

    b_prime = None
    if site >= 2:
        # prev[u, v] is the measure of {w : w_{i-1} = u, w_i = v}.
        prev = _marginal(p, (i - 1, i)).reshape(num_colors, num_colors)
        change = alpha[1:, 0, color_to, color_from].copy()
        b_prime = float(prev[:, color_to] @ change)
        errors.append(abs(b_prime - 1.0 / num_colors))

    max_error = max(errors)
    return SliceIdentityReport(
        site=site,
        color_from=color_from,
        color_to=color_to,
        w_slice_sums=w_sums,
        agree_ratio_error=agree_ratio_error,
        total_error=total_error,
        a_prime=a_prime,
        b_prime=b_prime,
        max_error=max_error,
        passed=max_error <= SLICE_TOLERANCE,
    )


def kappa_report(result: KappaResult) -> dict:
    """JSON-ready summary: the constant, its witness edge, and the bound."""
    edge = result.argmax_edge
    closed = kappa_closed_form(result.spec)
    return {
        "kappa": result.kappa,
        "argmax_edge": {
            "site": edge.site,
            "colorFrom": color_letter(edge.color_from),
            "colorTo": color_letter(edge.color_to),
            "neighbors": {
                "left": None if edge.left is None else color_letter(edge.left),
                "right": None if edge.right is None else color_letter(edge.right),
            },
        },
        "closed_form": closed,
        "slack": closed - result.kappa,
    }
