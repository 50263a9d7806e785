"""Canonical paths, the congestion constant, and the edge-local bounds."""

import itertools
import math

import numpy as np
import pytest

from conftest import grid_specs, kappa_for, kernel_for

from spectral_gibbs import (
    ModelSpec,
    bond_score,
    boundary_edge_bound,
    build_kernel,
    certify_all_edges,
    config_from_rank,
    kappa_closed_form,
    kappa_exact,
    kappa_report,
    kappa_report_json,
    verify_slice_identities,
    worst_alpha_beta,
)
from spectral_gibbs.kernel import conditional_table
from spectral_gibbs.model import colors_table
from spectral_gibbs.paths import WITNESS_RTOL, _edge_factor_tables


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
    qs = pi[:, None, None] * conditional_table(spec, table) / n
    valid = table[:, :, None] != np.arange(num_colors)[None, None, :]
    ratios = np.where(valid, loads / qs, 0.0)
    return loads, qs, ratios


def test_canonical_path_left_to_right():
    # the edge aa -> ba carries the pair aa -> ba (length 1) and aa -> bb
    # (length 2), which corrects site 1 first and so passes through ba
    spec = ModelSpec(2, 2, 1.0)
    aa, ab, ba, bb = range(4)
    pi = kernel_for(spec).pi.weights
    want = pi[aa] * (pi[ba] + 2 * pi[bb])
    assert math.isclose(kappa_for(spec).loads[aa, 0, 1], want, rel_tol=1e-14)


def test_canonical_path_skips_agreeing_sites():
    # the edge aaa -> aab recolors the last site, so it carries every source
    # (x1, x2, a) to aab; each path takes one step per disagreeing site only
    spec = ModelSpec(3, 2, 1.0)
    pi = kernel_for(spec).pi.weights.reshape(2, 2, 2)
    want = pi[0, 0, 1] * sum(
        pi[x1, x2, 0] * (1 + x1 + x2) for x1 in (0, 1) for x2 in (0, 1)
    )
    assert math.isclose(kappa_for(spec).loads[0, 2, 1], want, rel_tol=1e-14)


def test_single_site_kappa_is_one():
    # each ordered pair is its own unit-length path, so every edge carries
    # load pi(x)pi(y) = Q(x,y) exactly
    result = kappa_for(ModelSpec(1, 3, 1.0))
    assert result.kappa == 1.0
    assert result.argmax_edge.site == 1


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
    assert math.isclose(edge.load / edge.q, edge.ratio, rel_tol=1e-15)
    i = edge.site - 1
    assert result.ratios[edge.edge[0], i, edge.color_to] == edge.ratio


@pytest.mark.parametrize(
    "spec",
    grid_specs(max_states=1024)
    + [ModelSpec(8, 2, 1.0), ModelSpec(5, 3, 0.3)],
    ids=str,
)
def test_kappa_tables_match_pair_enumeration(spec):
    kern = kernel_for(spec)
    result = kappa_for(spec)
    loads, qs, ratios = pair_enumeration_tables(kern)
    for got, want in [(result.loads, loads), (result.qs, qs), (result.ratios, ratios)]:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    # the witness is the lowest flat index within 1e-12 of the maximum
    flat = int(np.argmax(ratios >= (1 - 1e-12) * ratios.max()))
    edge = result.argmax_edge
    assert (edge.edge[0], edge.site - 1, edge.color_to) == np.unravel_index(
        flat, ratios.shape
    )
    assert result.kappa == result.ratios.max()


def test_kappa_deterministic_and_block_size_stable():
    kern = kernel_for(ModelSpec(3, 2, 1.0))
    a = kappa_exact(kern)
    b = kappa_exact(kern)
    assert a.kappa == b.kappa
    assert a.argmax_edge == b.argmax_edge
    for table_a, table_b in [(a.loads, b.loads), (a.qs, b.qs), (a.ratios, b.ratios)]:
        assert np.array_equal(table_a, table_b)
    # the oracle's block split changes only the summation order
    whole = pair_enumeration_tables(kern)
    split = pair_enumeration_tables(kern, block_size=3)
    for table_whole, table_split in zip(whole, split):
        np.testing.assert_allclose(table_split, table_whole, rtol=1e-12, atol=0)


@pytest.mark.parametrize("spec", [ModelSpec(7, 4, 1.0), ModelSpec(14, 2, 1.0)])
def test_kappa_past_dense_budget(spec):
    # 16384 states: past the dense eigensolve's cap, which kappa does not share
    kern = build_kernel(spec)
    result = kappa_exact(kern)
    assert result.kappa <= kappa_closed_form(spec) * (1 + 1e-12)
    assert result.argmax_edge.ratio >= (1 - WITNESS_RTOL) * result.kappa
    assert result.argmax_edge.ratio <= result.kappa
    assert certify_all_edges(kern, result).all_passed


def test_edge_local_factors_hand_value():
    alpha, beta = _edge_factor_tables(ModelSpec(3, 3, 1.0))
    # recolor the middle site of (c, a, b) to b: left=c, right=b
    at = (2, 1, 0, 1)
    # alpha = e^{(s(c,b)-s(c,a))/T} = e^0 = 1
    assert math.isclose(alpha[at], 1.0, rel_tol=1e-15)
    # beta = e^{(-s(c,a)-s(b,b))/T} * sum_{c'!=b} e^{(s(c,c')+s(c',b))/T}
    expected_beta = math.exp(0.0) * (
        math.exp((-1 - 1) / 1.0) + math.exp((1 - 1) / 1.0)
    )
    assert math.isclose(beta[at], expected_beta, rel_tol=1e-14)


@pytest.mark.parametrize("colors,temp", [(2, 0.5), (3, 1.0), (4, 2.0)])
def test_edge_local_factors_match_scalar_formula(colors, temp):
    # reference: the per-edge scalar formula over bond_score, every pattern
    alpha, beta = _edge_factor_tables(ModelSpec(3, colors, temp))
    s = bond_score
    for left, c_from, right in itertools.product(range(colors), repeat=3):
        for c_to in set(range(colors)) - {c_from}:
            at = (left, right, c_from, c_to)
            others = sum(
                math.exp((s(left, c) + s(c, right)) / temp)
                for c in range(colors)
                if c != c_to
            )
            prefactor = math.exp((-s(left, c_from) - s(c_to, right)) / temp)
            expected = math.exp((s(left, c_to) - s(left, c_from)) / temp)
            assert math.isclose(alpha[at], expected, rel_tol=1e-14)
            assert math.isclose(beta[at], prefactor * others, rel_tol=1e-14)


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


def test_per_edge_certificates():
    spec = ModelSpec(3, 3, 1.0)
    kern = kernel_for(spec)
    result = kappa_for(spec)
    summary = certify_all_edges(kern, result)
    assert summary.num_edges == spec.num_states * spec.n * (spec.num_colors - 1)
    assert summary.all_passed
    assert summary.min_slack >= 0
    assert summary.worst.passed
    # the worst certificate is its edge's own bound minus its own ratio
    edge = summary.worst.edge
    assert edge.ratio == result.ratios[edge.edge[0], edge.site - 1, edge.color_to]
    assert summary.worst.slack == summary.min_slack
    assert summary.min_slack == summary.worst.bound - edge.ratio


def test_certificates_boundary_vs_interior():
    # at n=2 every edge sits at an end and takes the boundary bound
    spec = ModelSpec(2, 2, 1.0)
    worst = certify_all_edges(kernel_for(spec), kappa_for(spec)).worst
    assert not worst.interior
    assert worst.bound == boundary_edge_bound(spec)
    # at n=3 the worst edge is interior and takes its neighbors' bound
    spec = ModelSpec(3, 2, 1.0)
    worst = certify_all_edges(kernel_for(spec), kappa_for(spec)).worst
    assert worst.interior and worst.edge.site == 2
    left, _, right = config_from_rank(spec, worst.edge.edge[0]).colors
    alpha, beta = _edge_factor_tables(spec)
    at = (left, right, worst.edge.color_from, worst.edge.color_to)
    assert worst.bound == (9 / 2) * (alpha[at] + beta[at])


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
    kern = kernel_for(spec)
    result = kappa_for(spec)
    report = kappa_report(kern, result)
    assert set(report) == {"kappa", "argmax_edge", "closed_form", "slack"}
    assert set(report["argmax_edge"]) == {"site", "colorFrom", "colorTo", "neighbors"}
    assert report["slack"] == report["closed_form"] - report["kappa"]
    parsed = json.loads(kappa_report_json(kern, result))
    assert parsed["kappa"] == result.kappa
