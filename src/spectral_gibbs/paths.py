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
two neighbors and its own two colors, and on an interior site only through
one path-length sum, so :func:`kappa_exact` and :func:`certify_all_edges`
read three slabs of worst ratios per such neighbor pattern: site 1, the
middle site, where that sum peaks, and site n, each sum in closed form.
They cost ``O(N^4)`` at any n and need no kernel; the first names its
witness, an :class:`EdgeLoad`, from the slabs alone.  The table of every
site, the sums over marginals of ``pi`` and the enumeration of pairs are
kept only as the tests' oracles.

The module also evaluates the closed-form upper bound ``(n^2/N)(N-1+e^{4/T})``
together with the quantities that prove it, each as one table over every
neighbor pattern: the proof's edge factor ``alpha + beta``, which is
``alpha/p`` with ``p`` read from the conditional table, and its maximum, the
interior bound ``(n^2/N) alpha/p`` and the boundary bound
``(n^2/N)(N-1+e^{2/T})``.  The slice-sum identities the derivation rests on
are checked at every site and color pair at once, from the adjacent pair
marginals of the enumerated ``pi``.  The scalar ``alpha`` and ``beta``, and
the slice identities summed state by state, are kept as test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import LOG_FLOAT_MAX, ROUNDING_TOLERANCE, ModelSpec
from .model import PrecisionLimitError
from .model import color_letter
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
        site: 1-based site that the edge recolors; kappa's witness is at
            site 1, the middle site ``(n + 1) // 2`` or site n.
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
    """Exact congestion constant, its witness edge, and the worst ratio of
    every neighbor pattern at three sites.

    ``slabs`` is indexed ``[slab, left + 1, right + 1, color_from,
    color_to]``, where a neighbor index of 0 means no neighbor.  Slab 0 is
    site 1 and slab 2 site n, the same site at n = 1.  Slab 1 is the middle
    site ``(n + 1) // 2``, and zeros at n <= 2: every interior site has the
    same patterns, and each ratio grows with the site's path-length sum,
    which is concave and symmetric in the site and so peaks there, so
    slab 1 holds each pattern's largest ratio over sites 2..n-1.  Every
    edge's ratio is positive; slots that are no edge (equal colors, or a
    neighbor index that does not fit the site) hold zeros.
    """

    spec: ModelSpec
    kappa: float
    argmax_edge: EdgeLoad
    slabs: np.ndarray


def _marginal(p: np.ndarray, sites) -> np.ndarray:
    """Marginal of ``p`` (indexed by site colors) on ``sites``.

    The other axes are kept at length 1, so the marginal broadcasts against
    ``p`` and reads off each state's colors at ``sites``.
    """
    keep = set(sites)
    return p.sum(axis=tuple(k for k in range(p.ndim) if k not in keep), keepdims=True)


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
    (right).  So ``L = S_i + near[l, c] + near[r, c']``, with the site's
    sum ``S_i = 1 + far(i-1) + far(n-i)`` of the terms past the neighbors,
    a geometric sum in closed form, and only ``S_i`` depends on an interior
    site: the ratios are read from the three slabs of :class:`KappaResult`,
    in ``O(N^4)`` at any n and with no kernel.  The witness is the first
    pattern, in table order, of the first slab that holds one within a
    relative ``ROUNDING_TOLERANCE`` of kappa (so rounding cannot pick
    between edges that symmetry makes equally loaded), named at its slab's
    site, with its slab entry as its ratio.

    Raises:
        PrecisionLimitError: Where :func:`kappa_closed_form` would be past
            the float range.
    """
    alpha, cond = _edge_factors(spec)
    n, num_colors, t = spec.n, spec.num_colors, spec.temp
    e = math.exp(2.0 / t)
    rho = math.expm1(2.0 / t) / (e + num_colors - 1)
    # 1 - rho, without cancellation; 1 (so no log of 0) where e^{2/T} rounds to 1.
    rho_bar = num_colors / (e + num_colors - 1)

    def far(k: int) -> float:
        """The worst terms at distances 2..k: ``(k-1)(1-1/N) +
        rho^2 (1 - rho^{k-1}) / (N (1 - rho))``, and 0 at k < 2."""
        if k < 2:
            return 0.0
        decay = -math.expm1((k - 1) * math.log1p(-rho_bar)) if rho_bar < 1.0 else 1.0
        return (k - 1) * (1.0 - 1.0 / num_colors) + rho * rho * decay / (num_colors * rho_bar)

    # near[u + 1, c]: P(neighbor != u | site = c), 0 with no neighbor; it is
    # (1 - 1/N)(1 - rho) if u = c and 1 - (1 - rho)/N otherwise.
    near = np.full((num_colors + 1, num_colors), 1.0 - 1.0 / (e + num_colors - 1))
    near[0] = 0.0
    np.fill_diagonal(near[1:], (num_colors - 1) / (e + num_colors - 1))
    factor = n / num_colors * alpha / cond
    sites = (1, (n + 1) // 2, n)
    sums = np.array([1.0 + far(i - 1) + far(n - i) for i in sites]).reshape(3, 1, 1, 1, 1)
    slabs = sums + near[:, None, :, None] + near[None, :, None, :]
    slabs *= factor
    # An edge has two colors, and a neighbor exactly where the site has one.
    place = np.array(sites)[:, None] - 1
    neighbor = np.arange(num_colors + 1) > 0
    fits = ((place > 0) == neighbor)[:, :, None] & ((place < n - 1) == neighbor)[:, None]
    slabs[~fits] = 0.0
    slabs[..., range(num_colors), range(num_colors)] = 0.0
    if n <= 2:
        slabs[1] = 0.0
    slabs.flags.writeable = False

    kappa = float(slabs.max())
    # The first tied slot in row-major order: slab by slab, in site order.
    tied = slabs >= (1.0 - ROUNDING_TOLERANCE) * kappa
    first = np.unravel_index(np.argmax(tied), slabs.shape)
    slab, left, right, color_from, color_to = map(int, first)
    edge = EdgeLoad(
        ratio=float(slabs[first]),
        site=sites[slab],
        color_from=color_from,
        color_to=color_to,
        left=left - 1 if left else None,
        right=right - 1 if right else None,
    )
    return KappaResult(spec=spec, kappa=kappa, argmax_edge=edge, slabs=slabs)


def _check_float_range(spec: ModelSpec) -> None:
    """Refuse a chain at which the closed-form quantities overflow.

    Every closed-form quantity of this module (the bounds, the edge factor
    ``alpha/p``, the slice scale ``e^{2/T}``) is at most
    ``max(1, n^2/N) N e^{4/T}``, since ``alpha/p <= N - 1 + e^{4/T}``.

    Raises:
        PrecisionLimitError: If that bound is past the float range.
    """
    n, num_colors = spec.n, spec.num_colors
    try:
        log_bound = math.log(max(1.0, n * n / num_colors) * num_colors) + 4.0 / spec.temp
    except OverflowError:  # max(n^2, N), and so the bound, is past the float range
        raise PrecisionLimitError(
            f"the closed-form bound (n^2/N)(N-1+e^(4/T)) is past the float range "
            f"at n ~ 10^{math.log10(n):.1f}, N ~ 10^{math.log10(num_colors):.1f}"
        ) from None
    if log_bound >= LOG_FLOAT_MAX:
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
    """Maximum of ``alpha + beta = alpha/p`` over all interior edge patterns.

    Attributes:
        value: The maximum of the factor.
        argmax: The patterns ``(left, right, color_from, color_to)`` within a
            relative ``ROUNDING_TOLERANCE`` of it, in row-major order.
        closed_form: ``N - 1 + e^{4/T}``.
    """

    value: float
    argmax: tuple[tuple[int, int, int, int], ...]
    closed_form: float


def worst_alpha_beta(spec: ModelSpec) -> WorstFactors:
    """Scan every neighbor-color pattern of an interior edge for the worst factor.

    Patterns that symmetry makes equal can differ in the last digit, so every
    pattern within a relative ``ROUNDING_TOLERANCE`` of the maximum is
    returned.

    Raises:
        PrecisionLimitError: Where :func:`kappa_closed_form` would be past
            the float range.
    """
    alpha, cond = _edge_factors(spec)
    # An edge has two colors; alpha/p of the c = c' slots is no edge factor.
    edges = ~np.eye(spec.num_colors, dtype=bool)
    sums = np.where(edges, alpha / cond, 0.0)[1:, 1:]
    best = float(sums.max())
    tied = np.argwhere(sums >= (1.0 - ROUNDING_TOLERANCE) * best)
    return WorstFactors(
        value=best,
        argmax=tuple(map(tuple, tied.tolist())),
        closed_form=spec.num_colors - 1 + math.exp(4.0 / spec.temp),
    )


@dataclass(frozen=True)
class CertificateSummary:
    """Every directed edge's ratio checked against its per-edge bound.

    Attributes:
        min_slack: Least ``bound - ratio`` over the edges; the bound is
            ``(n^2/N) alpha/p`` at an interior site, the boundary closed
            form at site 1 or n.
        all_passed: Whether every slack is at least
            ``-ROUNDING_TOLERANCE`` times its bound.
        spec: Chain parameters.
    """

    min_slack: float
    all_passed: bool
    spec: ModelSpec

    @property
    def num_edges(self) -> int:
        """The ``N^n n (N-1)`` directed edges checked, counted exactly when
        read: an integer of about ``n log2 N`` bits."""
        spec = self.spec
        return spec.num_states * spec.n * (spec.num_colors - 1)


def certify_all_edges(result: KappaResult) -> CertificateSummary:
    """Check every directed edge's ratio against its per-edge bound.

    Interior edges use their own ``(n^2/N)(alpha+beta) = (n^2/N) alpha/p``,
    edges at site 1 or n the boundary closed form.  As the worst ratio is
    ``(n/N)(alpha/p) L`` (see :func:`kappa_exact`), the interior certificate
    checks the path-length factor ``L <= n`` and the boundary one
    ``(alpha/p) L <= n (N-1+e^{2/T})``.  Every edge of a neighbor pattern
    has the pattern's bound and at most its worst ratio, so comparing the
    two certifies all ``N^n n (N-1)`` directed edges.  An interior
    pattern's bound does not depend on the site, so its least slack is at
    the worst interior site, and the three slabs of :class:`KappaResult`
    hold every least slack.  An edge passes when its slack is at least
    ``-ROUNDING_TOLERANCE`` times its bound: a ratio may exceed its bound
    only by rounding.
    """
    spec = result.spec
    n, num_colors = spec.n, spec.num_colors
    alpha, cond = _edge_factors(spec)
    bounds = np.full(result.slabs.shape, boundary_edge_bound(spec))
    bounds[1, 1:, 1:] = (n * n / num_colors) * (alpha / cond)[1:, 1:]
    slack = np.where(result.slabs > 0, bounds - result.slabs, np.inf)
    return CertificateSummary(
        min_slack=float(slack.min()),
        all_passed=bool(np.all(slack >= -ROUNDING_TOLERANCE * bounds)),
        spec=spec,
    )


@dataclass(frozen=True)
class SliceIdentityReport:
    """Exactly summed slice identities at every site ``i < n`` and every pair
    of colors ``c != c'``.

    For ``W^(k) = {w : w_i = c, w_{i+1} = k}`` the checked identities are:
    the agreeing slice outweighs each disagreeing slice by exactly
    ``e^{2/T}``; the slices total ``1/N``; and the two exponential-weighted
    slice sums (``a_prime`` over ``w_i = c`` weighted by the bond change at
    ``(i, i+1)`` when that site is recolored to ``c'``, and ``b_prime`` over
    ``w_i = c'`` weighted by the bond change at ``(i-1, i)`` when it is
    recolored back) both equal ``1/N``.

    Attributes:
        w_slice_sums: Measure of each ``W^(k)``, indexed ``[i - 1, c, k]``.
        a_prime: Weighted sums indexed ``[i - 1, c, c']``.
        b_prime: Weighted sums indexed like ``a_prime``.  ``b_prime`` needs a
            left neighbor, so its row of site 1 is NaN, as are the
            ``c = c'`` slots of both, which are no edge.
        max_error: Largest deviation among all the identities.
        checked: The ``(n-1) N (N-1)`` sites and color pairs checked.
        passed: ``max_error <= ROUNDING_TOLERANCE``.
    """

    w_slice_sums: np.ndarray
    a_prime: np.ndarray
    b_prime: np.ndarray
    max_error: float
    checked: int
    passed: bool


def verify_slice_identities(kernel: SparseKernel) -> SliceIdentityReport:
    """Sum the slice identities exactly over the whole state space, at every
    site with a right neighbor and every ordered pair of distinct colors.

    Raises:
        PrecisionLimitError: Where :func:`kappa_closed_form` would be past
            the float range.
    """
    spec = kernel.spec
    n, num_colors = spec.n, spec.num_colors
    alpha, _ = _edge_factors(spec)
    p = kernel.pi.reshape((num_colors,) * n)
    # pair[i - 1, u, v] is the measure of {w : w_i = u, w_{i+1} = v}.
    pair = np.array(
        [_marginal(p, (i, i + 1)).reshape(num_colors, num_colors) for i in range(n - 1)]
    ).reshape(n - 1, num_colors, num_colors)
    # bond[c, c', k]: the bond change at a neighbor of color k when a site
    # is recolored from c to c'.  It is copied out of alpha, so that matmul
    # sums each weighted slice in the order of one contiguous dot product.
    bond = np.moveaxis(alpha[1:, 0], 0, -1).copy()

    def weighted(slices: np.ndarray) -> np.ndarray:
        """``sum_k slices[i, c, k] bond[c, c', k]``, indexed ``[i, c, c']``."""
        return (slices[:, :, None, None, :] @ bond[..., None])[..., 0, 0]

    a_prime = weighted(pair)
    # b' at site i sums the pairs of sites (i-1, i) over w_{i-1}, at w_i = c'.
    b_prime = np.full_like(a_prime, np.nan)
    b_prime[1:] = weighted(pair[:-1].transpose(0, 2, 1)).transpose(0, 2, 1)

    edges = ~np.eye(num_colors, dtype=bool)
    a_prime[:, ~edges] = b_prime[:, ~edges] = np.nan
    agree = np.diagonal(pair, axis1=1, axis2=2)[:, :, None]
    errors = [
        np.abs(agree - math.exp(2.0 / spec.temp) * pair)[:, edges],
        np.abs(pair.sum(axis=2) - 1.0 / num_colors),
        np.abs(a_prime - 1.0 / num_colors)[:, edges],
        np.abs(b_prime - 1.0 / num_colors)[1:, edges],
    ]
    max_error = max(float(e.max(initial=0.0)) for e in errors)
    for table in (pair, a_prime, b_prime):
        table.flags.writeable = False
    return SliceIdentityReport(
        w_slice_sums=pair,
        a_prime=a_prime,
        b_prime=b_prime,
        max_error=max_error,
        checked=(n - 1) * num_colors * (num_colors - 1),
        passed=max_error <= ROUNDING_TOLERANCE,
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
