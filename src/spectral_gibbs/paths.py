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
``kappa = 1``.  :func:`kappa_exact` sums every load from marginals of ``pi`` in
``O(n^2 N^n)``; the enumeration of pairs is kept only as the tests' oracle.

The module also evaluates the closed-form upper bound ``(n^2/N)(N-1+e^{4/T})``
together with the quantities that prove it, each as one table over every
edge or neighbor pattern: the edge-local factors ``alpha`` and ``beta``, the
interior bound ``(n^2/N)(alpha+beta)``, the boundary bound
``(n^2/N)(N-1+e^{2/T})``, and the slice-sum identities the derivation rests
on.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import ModelSpec, PrecisionLimitError, color_letter
from .model import colors_table  # noqa: F401 -- perfbench/spans.py wraps this name
from .kernel import SparseKernel, conditional_table, local_scores
from .serialize import canonical_json


@dataclass(frozen=True)
class EdgeLoad:
    """Load data of one directed edge.

    Attributes:
        edge: ``(rank_from, rank_to)`` of the traversal direction.
        load: Sum of ``|path| * pi(x) * pi(y)`` over paths traversing it.
        q: Edge measure ``pi(rank_from) * P(rank_from, rank_to)``.
        ratio: ``load / q``.
        site: 1-based site where the two endpoint states differ.
        color_from: Color at that site before the move.
        color_to: Color at that site after the move.
    """

    edge: tuple[int, int]
    load: float
    q: float
    ratio: float
    site: int
    color_from: int
    color_to: int


@dataclass(frozen=True)
class KappaResult:
    """Exact congestion constant plus the full directed-edge tables.

    The tables are indexed ``[source rank, site - 1, target color]``; slots
    where the target color equals the source state's color are not edges and
    hold zeros.
    """

    spec: ModelSpec
    kappa: float
    argmax_edge: EdgeLoad
    loads: np.ndarray
    qs: np.ndarray
    ratios: np.ndarray


# The witness edge is the lowest-ranked edge whose ratio is within this
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


def _block_masses(p: np.ndarray, block, others) -> tuple[np.ndarray, np.ndarray]:
    """Mass agreeing with each state on ``block``, and that mass by mismatches.

    The second array sums, over ``j`` in ``others``, the part of the first
    that differs from the state at site ``j``.
    """
    agree = _marginal(p, block)
    mismatch = sum(
        (agree - _marginal(p, [*block, j]) for j in others), np.zeros_like(agree)
    )
    return agree, mismatch


def kappa_exact(kernel: SparseKernel) -> KappaResult:
    """Compute the congestion constant and every directed edge's load exactly.

    The canonical paths through the edge that recolors site ``i`` of ``z``
    to ``c'`` are those of the pairs ``x = (any x_{<i}, z_{>=i})`` and
    ``y = (z_{<i}, c', any y_{>i})``, of length
    ``1 + #{j<i: x_j != z_j} + #{j>i: y_j != z_j}``.  So the load is
    ``B (A + D) + A E``: ``A`` and ``B`` are the marginals of ``pi`` on sites
    ``i..n`` at ``z_{>=i}`` and on sites ``1..i`` at ``(z_{<i}, c')``, and
    ``D`` and ``E`` sum, over each ``j``, the mass of the same marginals where
    site ``j`` disagrees with ``z``.  Every term is a marginal of ``pi``, so
    the cost is ``O(n^2 N^n)`` with no enumeration of pairs.  There is no
    budget of its own: the kernel was already held to the state-space budget.

    Raises:
        PrecisionLimitError: If the capacity ``pi(z) P(z, z')`` of an edge
            underflowed to 0, as it does at low enough temperature.
    """
    spec = kernel.spec
    m = spec.num_states
    n, num_colors = spec.n, spec.num_colors
    pi = kernel.pi.weights
    p = pi.reshape((num_colors,) * n)
    loads = np.empty((m, n, num_colors))
    for i in range(n):
        # Sources agree with z on sites i..n, targets on 1..i with site i at
        # c', which moves to a last axis.
        a, d = _block_masses(p, range(i, n), range(i))
        b, e = _block_masses(p, range(i + 1), range(i + 1, n))
        b, e = (np.swapaxes(arr[..., None], i, -1) for arr in (b, e))
        loads[:, i] = (b * (a + d)[..., None] + a[..., None] * e).reshape(m, num_colors)

    valid = kernel.colors[:, :, None] != np.arange(num_colors)[None, None, :]
    loads = np.where(valid, loads, 0.0)
    qs = pi[:, None, None] * conditional_table(spec, kernel.colors) / n
    underflowed = int(np.count_nonzero(valid & (qs == 0.0)))
    if underflowed:
        raise PrecisionLimitError(
            f"{underflowed} of {int(valid.sum())} edge capacities pi*P underflowed "
            f"to 0 at temp {spec.temp!r}, so their load ratios are undefined"
        )
    ratios = np.divide(loads, qs, out=np.zeros_like(loads), where=valid)
    for arr in (loads, qs, ratios):
        arr.flags.writeable = False

    kappa = float(ratios.max())
    flat = int(np.argmax(ratios >= (1.0 - WITNESS_RTOL) * kappa))
    return KappaResult(
        spec=spec,
        kappa=kappa,
        argmax_edge=_edge_at_flat(kernel, loads, qs, flat),
        loads=loads,
        qs=qs,
        ratios=ratios,
    )


def _edge_at_flat(
    kernel: SparseKernel, loads: np.ndarray, qs: np.ndarray, flat: int
) -> EdgeLoad:
    """The edge at a flat index into the ``[rank, site - 1, color_to]`` tables."""
    spec = kernel.spec
    rank, i, color_to = (int(v) for v in np.unravel_index(flat, loads.shape))
    color_from = int(kernel.colors[rank, i])
    target = rank + (color_to - color_from) * spec.num_colors ** (spec.n - 1 - i)
    load = float(loads[rank, i, color_to])
    q = float(qs[rank, i, color_to])
    return EdgeLoad(
        edge=(rank, target),
        load=load,
        q=q,
        ratio=load / q,
        site=i + 1,
        color_from=color_from,
        color_to=color_to,
    )


# Log of the largest finite float64.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _check_float_range(spec: ModelSpec) -> None:
    """Refuse a temperature at which the closed-form quantities overflow.

    Every closed-form quantity of this module (the bounds, the edge factors
    ``alpha`` and ``beta``, the slice scale ``e^{2/T}``) is at most
    ``max(1, n^2/N) N e^{4/T}``, since ``alpha + beta <= N - 1 + e^{4/T}``.

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


def _edge_factor_tables(spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Edge-local factors ``alpha`` and ``beta`` of every interior edge.

    Both are read off :func:`local_scores` and indexed
    ``[left, right, color_from, color_to]`` by the colors of the updated
    site's two neighbors and the edge's two colors.

    Raises:
        PrecisionLimitError: Where :func:`kappa_closed_form` would be past
            the float range.
    """
    _check_float_range(spec)
    t = spec.temp
    scores = local_scores(spec)
    # With no right neighbor the score is the single bond s(left, c).
    bond = scores[1:, 0]
    alpha = np.exp((bond[:, None, None, :] - bond[:, None, :, None]) / t)
    prefactor = np.exp((-bond[:, None, :, None] - bond.T[None, :, None, :]) / t)
    weights = np.exp(scores[1:, 1:] / t)
    # others[left, right, color_to] sums the weights of every c != color_to
    # one color at a time, so it rounds like the scalar sum in color order.
    others = np.zeros_like(weights)
    colors = np.arange(spec.num_colors)
    for c in colors:
        others += weights[:, :, c, None] * (colors != c)
    beta = prefactor * others[:, :, None, :]
    return np.broadcast_to(alpha, beta.shape), beta


@dataclass(frozen=True)
class WorstFactors:
    """Maximum of ``alpha + beta`` over all neighbor-color patterns.

    Attributes:
        value: The maximum of the factor sum.
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
    """Scan all neighbor-color patterns of an interior edge for the worst sum.

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
    alpha, beta = _edge_factor_tables(spec)
    sums = (alpha + beta)[:, :, color_from, color_to]
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
        bound: ``(n^2/N)(alpha+beta)`` for interior edges, the boundary
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


def certify_all_edges(kernel: SparseKernel, result: KappaResult) -> CertificateSummary:
    """Check every directed edge's ratio against its per-edge bound.

    Interior edges use their own ``(n^2/N)(alpha+beta)`` value computed from
    the neighbor colors; boundary edges use the boundary closed form.  The
    worst certificate is read off the same bound and slack tables.
    """
    spec = kernel.spec
    m, n, num_colors = spec.num_states, spec.n, spec.num_colors
    table = kernel.colors
    alpha, beta = _edge_factor_tables(spec)
    bounds = np.full((m, n, num_colors), boundary_edge_bound(spec))
    bounds[:, 1:-1] = (n * n / num_colors) * (alpha + beta)[
        table[:, :-2], table[:, 2:], table[:, 1:-1]
    ]

    valid = table[:, :, None] != np.arange(num_colors)[None, None, :]
    slack = np.where(valid, bounds - result.ratios, np.inf)
    flat = int(np.argmin(slack))
    edge = _edge_at_flat(kernel, result.loads, result.qs, flat)
    min_slack = float(slack.flat[flat])
    worst = EdgeCertificate(
        edge=edge,
        bound=float(bounds.flat[flat]),
        slack=min_slack,
        interior=edge.site not in (1, n),
        passed=min_slack >= 0,
    )
    return CertificateSummary(
        num_edges=int(valid.sum()),
        min_slack=min_slack,
        worst=worst,
        all_passed=min_slack >= 0,
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
    _check_float_range(spec)
    num_colors = spec.num_colors
    p = kernel.pi.weights.reshape((num_colors,) * spec.n)
    t = spec.temp
    i = site - 1

    # pair[u, v] is the measure of {w : w_i = u, w_{i+1} = v}.
    pair = _marginal(p, (i, i + 1)).reshape(num_colors, num_colors)
    w_sums = tuple(float(w) for w in pair[color_from])
    scale = math.exp(2.0 / t)
    agree_ratio_error = max(
        abs(w_sums[color_from] - scale * w_sums[k])
        for k in range(num_colors)
        if k != color_from
    )
    total_error = abs(sum(w_sums) - 1.0 / num_colors)

    # With no right neighbor the score is the single bond s(u, c), indexed
    # here by the neighbor's color u.
    bond = local_scores(spec)[1:, 0]
    change = np.exp((bond[:, color_to] - bond[:, color_from]) / t)
    a_prime = float(pair[color_from] @ change)
    errors = [agree_ratio_error, total_error, abs(a_prime - 1.0 / num_colors)]

    b_prime = None
    if site >= 2:
        # prev[u, v] is the measure of {w : w_{i-1} = u, w_i = v}.
        prev = _marginal(p, (i - 1, i)).reshape(num_colors, num_colors)
        change = np.exp((bond[:, color_from] - bond[:, color_to]) / t)
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


def kappa_report(kernel: SparseKernel, result: KappaResult) -> dict:
    """JSON-ready summary: the constant, its witness edge, and the bound."""
    spec = kernel.spec
    edge = result.argmax_edge
    source = kernel.colors[edge.edge[0]]
    left = color_letter(int(source[edge.site - 2])) if edge.site >= 2 else None
    right = color_letter(int(source[edge.site])) if edge.site <= spec.n - 1 else None
    closed = kappa_closed_form(spec)
    return {
        "kappa": result.kappa,
        "argmax_edge": {
            "site": edge.site,
            "colorFrom": color_letter(edge.color_from),
            "colorTo": color_letter(edge.color_to),
            "neighbors": {"left": left, "right": right},
        },
        "closed_form": closed,
        "slack": closed - result.kappa,
    }


def kappa_report_json(kernel: SparseKernel, result: KappaResult) -> str:
    """Serialized form of :func:`kappa_report`."""
    return canonical_json(kappa_report(kernel, result))
