"""Canonical paths, the congestion constant, and the edge-local bounds."""

import itertools
import math

import numpy as np
import pytest

from conftest import grid_specs, kappa_for, kernel_for, marginal_tables_for
from oracles import edge_factors, marginal_witness, pattern_witness

from spectral_gibbs import (
    ModelSpec,
    PrecisionLimitError,
    boundary_edge_bound,
    build_kernel,
    canonical_json,
    certify_all_edges,
    kappa_closed_form,
    kappa_exact,
    kappa_report,
    verify_slice_identities,
    worst_alpha_beta,
)
from spectral_gibbs import kernel, model, paths
from spectral_gibbs.kernel import conditional_table
from spectral_gibbs.model import colors_table
from spectral_gibbs.paths import CLOSED_FORM_RTOL, WITNESS_RTOL, _edge_factors


def brute_force_kappa(n, colors, temp):
    """Independent oracle: scalar arithmetic only, no shared code paths."""
    states = list(itertools.product(range(colors), repeat=n))

    def ham(x):
        return sum(1 if x[k] == x[k + 1] else -1 for k in range(n - 1))

    weights = {x: math.exp(ham(x) / temp) for x in states}
    z = sum(weights.values())
    pi = {x: weights[x] / z for x in states}

    def cond(x, i, c):
        num, den = 0.0, 0.0
        for col in range(colors):
            s = 0
            if i > 0:
                s += 1 if x[i - 1] == col else -1
            if i < n - 1:
                s += 1 if x[i + 1] == col else -1
            term = math.exp(s / temp)
            den += term
            if col == c:
                num = term
        return num / den

    load = {}
    for x in states:
        for y in states:
            if x == y:
                continue
            length = sum(a != b for a, b in zip(x, y))
            current = list(x)
            for i in range(n):
                if current[i] != y[i]:
                    nxt = list(current)
                    nxt[i] = y[i]
                    key = (tuple(current), tuple(nxt))
                    load[key] = load.get(key, 0.0) + length * pi[x] * pi[y]
                    current = nxt
    best = 0.0
    for (u, v), total in load.items():
        i = next(k for k in range(n) if u[k] != v[k])
        q = pi[u] * cond(u, i, v[i]) / n
        best = max(best, total / q)
    return best


def _pairwise_sum(arrays):
    """Merge partial load tables pairwise in a fixed order."""
    items = list(arrays)
    while len(items) > 1:
        merged = [items[k] + items[k + 1] for k in range(0, len(items) - 1, 2)]
        if len(items) % 2 == 1:
            merged.append(items[-1])
        items = merged
    return items[0]


def pair_enumeration_tables(kernel, block_size=512):
    """Oracle: the load, capacity and ratio tables by enumerating every pair.

    Every ordered pair ``(x, y)`` with ``x != y`` adds
    ``|path| * pi(x) * pi(y)`` to each directed edge its canonical path
    traverses.  Source states run in blocks whose partial tables are merged
    pairwise in a fixed order, so the result does not depend on scheduling.
    Costs ``O(m^2 n)`` time for ``m`` states.
    """
    spec = kernel.spec
    m, n, num_colors = spec.num_states, spec.n, spec.num_colors
    pi = kernel.pi.weights
    table = colors_table(spec).astype(np.int64)
    places = np.array([num_colors ** (n - 1 - i) for i in range(n)], dtype=np.int64)

    block_tables = []
    for start in range(0, m, block_size):
        src = np.arange(start, min(start + block_size, m), dtype=np.int64)
        src_colors = table[src]
        diff = src_colors[:, None, :] != table[None, :, :]
        weight = pi[src][:, None] * pi[None, :] * diff.sum(axis=2, dtype=np.float64)
        current = np.broadcast_to(src[:, None], (len(src), m)).copy()
        partial = np.zeros(m * n * num_colors, dtype=np.float64)
        for i in range(n):
            step = diff[:, :, i]
            if not step.any():
                continue
            target_color = np.broadcast_to(table[:, i][None, :], step.shape)[step]
            at = current[step]
            np.add.at(partial, (at * n + i) * num_colors + target_color, weight[step])
            source_color = np.broadcast_to(src_colors[:, i][:, None], step.shape)[step]
            current[step] = at + (target_color - source_color) * places[i]
        block_tables.append(partial)

    loads = _pairwise_sum(block_tables).reshape(m, n, num_colors)
    valid = table[:, :, None] != np.arange(num_colors)[None, None, :]
    qs = np.where(valid, pi[:, None, None] * conditional_table(spec, table) / n, 0.0)
    ratios = np.divide(loads, qs, out=np.zeros_like(loads), where=valid)
    return loads, qs, ratios


def pattern_maxima(kernel, ratios):
    """Oracle: the largest edge ratio of each neighbor pattern, as a table
    indexed ``[site - 1, left + 1, right + 1, color_from, color_to]``."""
    spec = kernel.spec
    n, num_colors = spec.n, spec.num_colors
    colors = kernel.colors.astype(np.int64)
    padded = np.zeros((len(colors), n + 2), dtype=np.int64)
    padded[:, 1:-1] = colors + 1
    index = np.broadcast_arrays(
        np.arange(n)[None, :, None],
        padded[:, :-2, None],
        padded[:, 2:, None],
        colors[:, :, None],
        np.arange(num_colors)[None, None, :],
    )
    table = np.zeros((n, num_colors + 1, num_colors + 1, num_colors, num_colors))
    np.maximum.at(table, tuple(index), ratios)
    return table


def per_edge_all_passed(kernel, ratios):
    """Oracle: every edge's ratio against its own bound, one edge at a time."""
    spec = kernel.spec
    n, num_colors = spec.n, spec.num_colors
    table = kernel.colors
    alpha, cond = _edge_factors(spec)
    bounds = np.full(ratios.shape, boundary_edge_bound(spec))
    bounds[:, 1:-1] = (n * n / num_colors) * (alpha / cond)[
        table[:, :-2] + 1, table[:, 2:] + 1, table[:, 1:-1]
    ]
    valid = table[:, :, None] != np.arange(num_colors)[None, None, :]
    return bool(np.all(~valid | (bounds - ratios >= -CLOSED_FORM_RTOL * bounds)))


def _pattern_index(edge):
    """Index of an edge's pattern into ``KappaResult.patterns``."""
    left = 0 if edge.left is None else edge.left + 1
    right = 0 if edge.right is None else edge.right + 1
    return (edge.site - 1, left, right, edge.color_from, edge.color_to)


def test_canonical_path_left_to_right():
    # the edge aa -> ba carries the pair aa -> ba (length 1) and aa -> bb
    # (length 2), which corrects site 1 first and so passes through ba
    spec = ModelSpec(2, 2, 1.0)
    aa, ab, ba, bb = range(4)
    pi = kernel_for(spec).pi.weights
    want = pi[aa] * (pi[ba] + 2 * pi[bb])
    loads, _, _ = marginal_tables_for(spec)
    assert math.isclose(loads[aa, 0, 1], want, rel_tol=1e-14)


def test_canonical_path_skips_agreeing_sites():
    # the edge aaa -> aab recolors the last site, so it carries every source
    # (x1, x2, a) to aab; each path takes one step per disagreeing site only
    spec = ModelSpec(3, 2, 1.0)
    pi = kernel_for(spec).pi.weights.reshape(2, 2, 2)
    want = pi[0, 0, 1] * sum(
        pi[x1, x2, 0] * (1 + x1 + x2) for x1 in (0, 1) for x2 in (0, 1)
    )
    loads, _, _ = marginal_tables_for(spec)
    assert math.isclose(loads[0, 2, 1], want, rel_tol=1e-14)


def test_single_site_kappa_is_one():
    # each ordered pair is its own unit-length path, so every edge carries
    # load pi(x)pi(y) = Q(x,y) exactly, at every color count
    for colors in range(2, 27):
        for temp in (0.3, 1.0, 5.0):
            result = kappa_exact(ModelSpec(1, colors, temp))
            assert result.kappa == 1.0, (colors, temp)
            edge = result.argmax_edge
            assert (edge.site, edge.color_from, edge.color_to) == (1, 0, 1)
            assert edge.left is None and edge.right is None


@pytest.mark.parametrize(
    "n,colors,temp",
    [(2, 2, 1.0), (2, 3, 0.5), (3, 2, 2.0), (3, 3, 1.0), (2, 4, 5.0)],
)
def test_kappa_matches_brute_force_oracle(n, colors, temp):
    result = kappa_for(ModelSpec(n, colors, temp))
    oracle = brute_force_kappa(n, colors, temp)
    assert math.isclose(result.kappa, oracle, rel_tol=1e-12)


def test_kappa_below_closed_form():
    for spec in [ModelSpec(2, 2, 1.0), ModelSpec(3, 3, 1.0), ModelSpec(4, 2, 0.5)]:
        result = kappa_for(spec)
        assert result.kappa <= kappa_closed_form(spec) * (1 + 1e-12)


def test_closed_form_value():
    # (n^2/N)(N-1+e^{4/T}) at n=3, N=3, T=4
    got = kappa_closed_form(ModelSpec(3, 3, 4.0))
    assert math.isclose(got, 3 * (2 + math.exp(1)), rel_tol=1e-15)
    assert math.isclose(got, 14.154845485377134, rel_tol=1e-15)


def test_argmax_edge_consistent():
    result = kappa_for(ModelSpec(3, 3, 1.0))
    edge = result.argmax_edge
    assert math.isclose(edge.ratio, result.kappa, rel_tol=1e-15)
    assert result.patterns[_pattern_index(edge)] == edge.ratio
    assert result.kappa == result.patterns.max()


@pytest.mark.parametrize(
    "spec",
    grid_specs(max_states=1024)
    + [ModelSpec(8, 2, 1.0), ModelSpec(5, 3, 0.3)],
    ids=str,
)
def test_kappa_tables_match_pair_enumeration(spec):
    # the marginal oracle against its own oracle, the enumeration of pairs
    tables = pair_enumeration_tables(kernel_for(spec))
    for got, want in zip(marginal_tables_for(spec), tables):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert math.isclose(kappa_for(spec).kappa, tables[2].max(), rel_tol=1e-12)


@pytest.mark.parametrize(
    "spec",
    grid_specs()
    + [ModelSpec(7, 4, 1.0), ModelSpec(14, 2, 1.0), ModelSpec(5, 3, 0.3),
       ModelSpec(8, 2, 0.06)],
    ids=str,
)
def test_kappa_matches_marginal_oracle(spec):
    kern = kernel_for(spec)
    _, _, ratios = marginal_tables_for(spec)
    result = kappa_for(spec)
    # every pattern's worst ratio, so kappa and the certificates too
    np.testing.assert_allclose(
        result.patterns, pattern_maxima(kern, ratios), rtol=1e-12, atol=0
    )
    assert math.isclose(result.kappa, ratios.max(), rel_tol=1e-12)
    edge = result.argmax_edge
    assert marginal_witness(kern, ratios, WITNESS_RTOL) == {
        "site": edge.site,
        "color_from": edge.color_from,
        "color_to": edge.color_to,
        "left": edge.left,
        "right": edge.right,
    }
    assert certify_all_edges(result).all_passed == per_edge_all_passed(kern, ratios)


def test_kappa_deterministic_and_block_size_stable():
    spec = ModelSpec(3, 2, 1.0)
    a = kappa_exact(spec)
    b = kappa_exact(spec)
    assert a.kappa == b.kappa
    assert a.argmax_edge == b.argmax_edge
    assert np.array_equal(a.patterns, b.patterns)
    kern = kernel_for(spec)
    # the oracle's block split changes only the summation order
    whole = pair_enumeration_tables(kern)
    split = pair_enumeration_tables(kern, block_size=3)
    for table_whole, table_split in zip(whole, split):
        np.testing.assert_allclose(table_split, table_whole, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "spec", [ModelSpec(7, 4, 1.0), ModelSpec(14, 2, 1.0), ModelSpec(1000, 3, 1.0)]
)
def test_kappa_past_dense_budget(spec, monkeypatch):
    # past the dense eigensolve's cap (16384 states) and the enumeration's
    # (3^1000): kappa and the certificates enumerate no state
    def fail(spec):
        raise AssertionError("a state table was built")

    for module in (kernel, model, paths):
        monkeypatch.setattr(module, "colors_table", fail)
    result = kappa_exact(spec)
    assert result.kappa <= kappa_closed_form(spec) * (1 + 1e-12)
    assert result.argmax_edge.ratio >= (1 - WITNESS_RTOL) * result.kappa
    assert result.argmax_edge.ratio <= result.kappa
    assert certify_all_edges(result).all_passed


@pytest.mark.parametrize(
    "spec",
    [ModelSpec(1000, colors, 1.0) for colors in (2, 3, 4)]
    + [ModelSpec(200, colors, 1.0) for colors in (5, 6, 7, 8)]
    + [ModelSpec(1000, 3, 0.3), ModelSpec(1000, 2, 5.0), ModelSpec(2, 26, 1.0)],
    ids=str,
)
def test_witness_matches_scan_of_tied_patterns(spec):
    # ties span the interior sites at large n; the witness keeps one site per
    # pattern, and must equal the scan of every tied pattern's worst state
    result = kappa_exact(spec)
    edge = result.argmax_edge
    index = [
        edge.site - 1,
        0 if edge.left is None else edge.left + 1,
        0 if edge.right is None else edge.right + 1,
        edge.color_from,
        edge.color_to,
    ]
    assert index == pattern_witness(result.patterns, WITNESS_RTOL)


def test_kappa_share_of_closed_form_at_large_n():
    # for N >= 3 the worst pattern (l = r off the edge's colors) makes
    # alpha/p the closed form's N-1+e^{4/T}; the mean path length is about
    # n(1 - 1/N) rather than n
    spec = ModelSpec(1000, 3, 1.0)
    share = kappa_exact(spec).kappa / kappa_closed_form(spec)
    assert share == pytest.approx(0.668, abs=5e-4)


@pytest.mark.parametrize("temp", [0.06, 0.3, 1.0, 5.0, 100.0])
@pytest.mark.parametrize("colors", range(2, 6))
def test_alpha_over_p_is_scalar_alpha_plus_beta(colors, temp):
    # beta is alpha times the weights of the colors other than c' over the
    # weight of c', so alpha + beta = alpha/p on every neighbor pattern,
    # boundary sites included
    alpha, cond = _edge_factors(ModelSpec(3, colors, temp))
    factors = alpha / cond
    neighbors = [None, *range(colors)]
    for left, right in itertools.product(neighbors, repeat=2):
        l, r = (0 if u is None else u + 1 for u in (left, right))
        for c_from, c_to in itertools.permutations(range(colors), 2):
            want_alpha, want_beta = edge_factors(colors, temp, left, right, c_from, c_to)
            assert math.isclose(alpha[l, 0, c_from, c_to], want_alpha, rel_tol=1e-14)
            got = factors[l, r, c_from, c_to]
            assert math.isclose(got, want_alpha + want_beta, rel_tol=1e-14)


def test_worst_factors_third_color_pattern():
    # with a third color available the maximum is exactly N-1+e^{4/T},
    # attained exactly when both neighbors share a color off the edge, and
    # every such pattern ties, also at low temperature, where the sum is so
    # large that 1e-12 is below its last digit
    for colors, temp in [(3, 1.0), (4, 0.5), (3, 2.0), (4, 0.3), (5, 0.2)]:
        spec = ModelSpec(3, colors, temp)
        worst = worst_alpha_beta(spec)
        assert math.isclose(worst.value, worst.closed_form, rel_tol=1e-12)
        assert set(worst.argmax) == {(c, c) for c in range(2, colors)}, (colors, temp)


def test_worst_factors_two_colors_strictly_below():
    # no third color exists, so the closed form is strict at N=2
    spec = ModelSpec(3, 2, 1.0)
    worst = worst_alpha_beta(spec)
    assert math.isclose(worst.value, 2 * math.exp(2.0), rel_tol=1e-12)
    assert worst.value < worst.closed_form


def test_worst_factors_validation():
    # equal colors, and colors outside the chain's three
    for color_from, color_to in [(1, 1), (0, 3), (-1, 0)]:
        with pytest.raises(ValueError):
            worst_alpha_beta(ModelSpec(3, 3, 1.0), color_from, color_to)


def _certify_at(spec):
    return certify_all_edges(kappa_exact(spec))


@pytest.mark.parametrize(
    "closed_form",
    [
        kappa_closed_form,
        boundary_edge_bound,
        worst_alpha_beta,
        _certify_at,
        lambda spec: verify_slice_identities(build_kernel(spec), 1, 0, 1),
    ],
    ids=["kappa_closed_form", "boundary", "worst_alpha_beta", "certify", "slices"],
)
def test_closed_forms_refuse_past_float_range(closed_form):
    # (n^2/N)(N-1+e^{4/T}) is past the float range at n=2, N=2, T=0.005,
    # though no edge capacity underflows there
    with pytest.raises(PrecisionLimitError, match="float range"):
        closed_form(ModelSpec(2, 2, 0.005))
    assert math.isfinite(kappa_closed_form(ModelSpec(2, 2, 0.006)))


def test_per_edge_certificates():
    spec = ModelSpec(3, 3, 1.0)
    result = kappa_for(spec)
    summary = certify_all_edges(result)
    assert summary.num_edges == spec.num_states * spec.n * (spec.num_colors - 1)
    assert summary.all_passed
    assert summary.min_slack >= 0
    assert summary.worst.passed
    # the worst certificate is its pattern's own bound minus its worst ratio
    edge = summary.worst.edge
    assert edge.ratio == result.patterns[_pattern_index(edge)]
    assert summary.worst.slack == summary.min_slack
    assert summary.min_slack == summary.worst.bound - edge.ratio


@pytest.mark.parametrize("seed", range(8))
def test_worst_certificate_stable_under_one_ulp(seed, monkeypatch):
    # At (4,3,1) the colors are symmetric, so patterns that a permutation of
    # the colors maps onto each other have equal slack up to rounding: the
    # worst certificate must not follow a move of the bounds by one ulp.
    spec = ModelSpec(4, 3, 1.0)
    result = kappa_for(spec)
    want = certify_all_edges(result).worst.edge
    rng = np.random.default_rng(seed)
    edge_factors, boundary = paths._edge_factors, paths.boundary_edge_bound

    def nudged_factors(spec):
        alpha, cond = edge_factors(spec)
        return np.nextafter(alpha, rng.choice([-np.inf, np.inf], alpha.shape)), cond

    def nudged_boundary(spec):
        return float(np.nextafter(boundary(spec), rng.choice([-np.inf, np.inf])))

    monkeypatch.setattr(paths, "_edge_factors", nudged_factors)
    monkeypatch.setattr(paths, "boundary_edge_bound", nudged_boundary)
    assert certify_all_edges(result).worst.edge == want


def test_certificates_boundary_vs_interior():
    # at n=2 every edge sits at an end and takes the boundary bound
    spec = ModelSpec(2, 2, 1.0)
    worst = certify_all_edges(kappa_for(spec)).worst
    assert not worst.interior
    assert worst.bound == boundary_edge_bound(spec)
    # at n=3 the worst edge is interior and takes its neighbors' bound
    spec = ModelSpec(3, 2, 1.0)
    worst = certify_all_edges(kappa_for(spec)).worst
    assert worst.interior and worst.edge.site == 2
    alpha, cond = _edge_factors(spec)
    edge = worst.edge
    at = (edge.left + 1, edge.right + 1, edge.color_from, edge.color_to)
    assert worst.bound == (9 / 2) * (alpha / cond)[at]


def test_slice_identities_paper_scale():
    spec = ModelSpec(3, 3, 1.0)
    kern = kernel_for(spec)
    report = verify_slice_identities(kern, 2, 0, 1)
    assert report.passed
    assert report.max_error <= 1e-12
    # agreeing slice worked by hand: 1 / (3(1 + 2e^{-2}))
    expected = 1.0 / (3 * (1 + 2 * math.exp(-2)))
    assert math.isclose(report.w_slice_sums[0], expected, rel_tol=1e-14)
    assert math.isclose(report.w_slice_sums[0], 0.26232868072053284, rel_tol=1e-14)
    # each disagreeing slice is smaller by exactly e^{2/T}
    ratio = report.w_slice_sums[0] / report.w_slice_sums[1]
    assert math.isclose(ratio, math.exp(2.0), rel_tol=1e-12)
    assert math.isclose(sum(report.w_slice_sums), 1 / 3, abs_tol=1e-14)
    assert math.isclose(report.a_prime, 1 / 3, abs_tol=1e-14)
    assert math.isclose(report.b_prime, 1 / 3, abs_tol=1e-14)


def test_slice_identities_every_site_and_pair():
    spec = ModelSpec(4, 3, 0.5)
    kern = kernel_for(spec)
    for site in range(1, spec.n):
        for cf in range(spec.num_colors):
            for ct in range(spec.num_colors):
                if cf == ct:
                    continue
                report = verify_slice_identities(kern, site, cf, ct)
                assert report.passed, (site, cf, ct, report.max_error)
                if site == 1:
                    assert report.b_prime is None
                else:
                    assert math.isclose(report.b_prime, 1 / 3, abs_tol=1e-12)


def test_slice_identities_validation():
    kern = kernel_for(ModelSpec(3, 3, 1.0))
    with pytest.raises(ValueError):
        verify_slice_identities(kern, 0, 0, 1)
    with pytest.raises(ValueError):
        verify_slice_identities(kern, 3, 0, 1)  # needs a right neighbor
    with pytest.raises(ValueError):
        verify_slice_identities(kern, 1, 2, 2)


def test_kappa_report_shape():
    import json

    spec = ModelSpec(2, 3, 1.0)
    result = kappa_for(spec)
    report = kappa_report(result)
    assert set(report) == {"kappa", "argmax_edge", "closed_form", "slack"}
    assert set(report["argmax_edge"]) == {"site", "colorFrom", "colorTo", "neighbors"}
    assert report["slack"] == report["closed_form"] - report["kappa"]
    parsed = json.loads(canonical_json(kappa_report(result)))
    assert parsed["kappa"] == result.kappa
