"""Canonical paths, the congestion constant, and the edge-local bounds."""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from conftest import grid_specs, kappa_for, kernel_for, marginal_tables_for
from oracles import (
    edge_factors,
    marginal_witness,
    pattern_certificates,
    pattern_kappa,
    pattern_slabs,
    pattern_table,
    pattern_witness,
    slice_identities,
    slice_pair_table,
)

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
from spectral_gibbs.model import ROUNDING_TOLERANCE, colors_table
from spectral_gibbs.paths import _edge_factors


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
    pi = kernel.pi
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


def per_edge_bounds(kernel, ratios):
    """Oracle: every edge's own bound, one edge at a time, indexed like
    ``ratios``, and which entries are edges."""
    spec = kernel.spec
    n, num_colors = spec.n, spec.num_colors
    table = kernel.colors
    alpha, cond = _edge_factors(spec)
    bounds = np.full(ratios.shape, boundary_edge_bound(spec))
    bounds[:, 1:-1] = (n * n / num_colors) * (alpha / cond)[
        table[:, :-2] + 1, table[:, 2:] + 1, table[:, 1:-1]
    ]
    valid = table[:, :, None] != np.arange(num_colors)[None, None, :]
    return bounds, valid


def per_edge_all_passed(kernel, ratios):
    """Oracle: every edge's ratio against its own bound."""
    bounds, valid = per_edge_bounds(kernel, ratios)
    return bool(np.all(~valid | (bounds - ratios >= -ROUNDING_TOLERANCE * bounds)))


def _pattern_index(edge):
    """Index of an edge's pattern into the oracle's ``pattern_table``."""
    left = 0 if edge.left is None else edge.left + 1
    right = 0 if edge.right is None else edge.right + 1
    return (edge.site - 1, left, right, edge.color_from, edge.color_to)


def test_canonical_path_left_to_right():
    # the edge aa -> ba carries the pair aa -> ba (length 1) and aa -> bb
    # (length 2), which corrects site 1 first and so passes through ba
    spec = ModelSpec(2, 2, 1.0)
    aa, ab, ba, bb = range(4)
    pi = kernel_for(spec).pi
    want = pi[aa] * (pi[ba] + 2 * pi[bb])
    loads, _, _ = marginal_tables_for(spec)
    assert math.isclose(loads[aa, 0, 1], want, rel_tol=1e-14)


def test_canonical_path_skips_agreeing_sites():
    # the edge aaa -> aab recolors the last site, so it carries every source
    # (x1, x2, a) to aab; each path takes one step per disagreeing site only
    spec = ModelSpec(3, 2, 1.0)
    pi = kernel_for(spec).pi.reshape(2, 2, 2)
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
    want = pattern_table(result.spec)[_pattern_index(edge)]
    assert math.isclose(edge.ratio, want, rel_tol=1e-15)
    assert result.kappa == result.slabs.max()


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
    # every pattern's worst ratio at every site, which the package reads
    # from three of them, so kappa and the certificates too
    table = pattern_table(spec)
    np.testing.assert_allclose(table, pattern_maxima(kern, ratios), rtol=1e-12, atol=0)
    np.testing.assert_allclose(result.slabs, pattern_slabs(table), rtol=1e-15, atol=0)
    assert math.isclose(result.kappa, ratios.max(), rel_tol=1e-12)
    edge = result.argmax_edge
    assert marginal_witness(kern, ratios, ROUNDING_TOLERANCE) == {
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
    assert np.array_equal(a.slabs, b.slabs)
    kern = kernel_for(spec)
    # the oracle's block split changes only the summation order
    whole = pair_enumeration_tables(kern)
    split = pair_enumeration_tables(kern, block_size=3)
    for table_whole, table_split in zip(whole, split):
        np.testing.assert_allclose(table_split, table_whole, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "spec",
    [ModelSpec(7, 4, 1.0), ModelSpec(14, 2, 1.0), ModelSpec(1000, 3, 1.0),
     ModelSpec(10**6, 2, 1.0)],
)
def test_kappa_past_dense_budget(spec, monkeypatch):
    # past the dense eigensolve's cap (16384 states) and the enumeration's
    # (3^1000): kappa and the certificates enumerate no state, and read no
    # table of every site
    def fail(spec):
        raise AssertionError("a state table was built")

    for module in (kernel, model, paths):
        monkeypatch.setattr(module, "colors_table", fail)
    result = kappa_exact(spec)
    assert result.kappa <= kappa_closed_form(spec) * (1 + 1e-12)
    assert result.argmax_edge.ratio >= (1 - ROUNDING_TOLERANCE) * result.kappa
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
    # ties span the interior sites at large n; the witness must be the one
    # that a scan of every site's table, slab by slab and one pattern at a
    # time, finds
    edge = kappa_exact(spec).argmax_edge
    index = list(_pattern_index(edge))
    assert index == pattern_witness(pattern_table(spec), ROUNDING_TOLERANCE)


# kappa's acceptance grid: N = 2..8, n = 1..12, 16 and 30 and, at N <= 3,
# n = 100, 257, 1000 and 4096, each at eight temperatures; 848 chains.
SLAB_TEMPS = (0.06, 0.1, 0.3, 1.0, 2.0, 5.0, 20.0, 100.0)
SLAB_CHAINS = [
    (n, colors)
    for colors in range(2, 9)
    for n in [*range(1, 13), 16, 30, *([100, 257, 1000, 4096] if colors <= 3 else [])]
]


def test_witness_is_a_maximum():
    # The witness's ratio is kappa but for rounding, and an interior witness
    # sits at the middle site, where every interior load peaks; also where
    # patterns whose ratios really differ come within ROUNDING_TOLERANCE.
    specs = [ModelSpec(n, colors, temp) for n, colors in SLAB_CHAINS for temp in SLAB_TEMPS]
    specs += [ModelSpec(256, 2, 5.0), ModelSpec(1024, 2, 5.0), ModelSpec(10**5, 3, 1.0),
              ModelSpec(10**6, 2, 1.0), ModelSpec(10**4, 26, 1.0)]
    for spec in specs:
        result = kappa_exact(spec)
        edge = result.argmax_edge
        assert 0 <= result.kappa - edge.ratio <= 1e-15 * result.kappa, spec
        assert edge.site in (1, (spec.n + 1) // 2, spec.n), spec


@pytest.mark.parametrize("n,colors", SLAB_CHAINS)
def test_slabs_match_every_site(n, colors):
    # The three slabs, kappa and the witness's ratio within 1e-15 of the
    # table of every site, whose site sums are rounded once from 40 digits;
    # the witness's pattern and site and the verdict exactly, and the least
    # slack within the rounding tolerance of its bound.
    for temp in SLAB_TEMPS:
        spec = ModelSpec(n, colors, temp)
        result = kappa_exact(spec)
        table = pattern_table(spec)
        np.testing.assert_allclose(
            result.slabs, pattern_slabs(table), rtol=1e-15, atol=0, err_msg=str(spec)
        )
        kappa, witness, ratio = pattern_kappa(table, ROUNDING_TOLERANCE)
        edge = result.argmax_edge
        assert math.isclose(result.kappa, kappa, rel_tol=1e-15), spec
        assert list(_pattern_index(edge)) == witness, spec
        assert math.isclose(edge.ratio, ratio, rel_tol=1e-15), spec
        summary = certify_all_edges(result)
        slack, bound, passed = pattern_certificates(spec, table)
        assert summary.all_passed == passed, spec
        assert abs(summary.min_slack - slack) <= ROUNDING_TOLERANCE * bound, spec


def test_kappa_at_any_n():
    # The site sums are read from their closed form, so kappa allocates
    # nothing that grows with n: at 10^15 sites its witness is the middle
    # one, and below its closed form.
    spec = ModelSpec(10**15, 2, 1.0)
    result = kappa_exact(spec)
    assert result.argmax_edge.site == (spec.n + 1) // 2
    assert result.argmax_edge.ratio == result.kappa
    assert result.kappa <= kappa_closed_form(spec)


@pytest.mark.parametrize(
    "spec,kappa",
    [(ModelSpec(7, 3, 1e17), 35.000000000000014),
     (ModelSpec(5, 26, 1.7e308), 24.230769230769234)],
    ids=str,
)
def test_kappa_where_e_rounds_to_one(spec, kappa):
    # e^{2/T} rounds to 1, so 1 - rho is 1 and rho^(k-1) is not taken
    # through log(rho); kappa is that of the running sum of the terms.
    assert kappa_exact(spec).kappa == kappa


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
        want = {
            (shared, shared, c, c_to)
            for shared, c, c_to in itertools.permutations(range(colors), 3)
        }
        assert set(worst.argmax) == want, (colors, temp)
        assert list(worst.argmax) == sorted(want)


def test_worst_factors_two_colors_strictly_below():
    # no third color exists, so the closed form is strict at N=2
    spec = ModelSpec(3, 2, 1.0)
    worst = worst_alpha_beta(spec)
    assert math.isclose(worst.value, 2 * math.exp(2.0), rel_tol=1e-12)
    assert worst.value < worst.closed_form
    # both neighbors hold the color the edge leaves
    assert worst.argmax == ((0, 1, 1, 0), (1, 0, 0, 1))


def _certify_at(spec):
    return certify_all_edges(kappa_exact(spec))


@pytest.mark.parametrize(
    "closed_form",
    [
        kappa_closed_form,
        boundary_edge_bound,
        worst_alpha_beta,
        _certify_at,
        lambda spec: verify_slice_identities(build_kernel(spec)),
    ],
    ids=["kappa_closed_form", "boundary", "worst_alpha_beta", "certify", "slices"],
)
def test_closed_forms_refuse_past_float_range(closed_form):
    # (n^2/N)(N-1+e^{4/T}) is past the float range at n=2, N=2, T=0.005,
    # though no edge capacity underflows there
    with pytest.raises(PrecisionLimitError, match="float range"):
        closed_form(ModelSpec(2, 2, 0.005))
    assert math.isfinite(kappa_closed_form(ModelSpec(2, 2, 0.006)))


@pytest.mark.parametrize(
    "spec, name",
    [
        (ModelSpec(10**200, 2, 1.0), r"n ~ 10\^200\.0"),
        (ModelSpec(2, 10**400, 1.0), r"N ~ 10\^400\.0"),
    ],
    ids=["n", "N"],
)
def test_closed_forms_refuse_past_float_range_of_n(spec, name):
    # n^2/N (or N) itself is past the float range, so that division (or the
    # product by N) raises OverflowError; every caller refuses it as a
    # precision limit instead.  kappa_exact refuses first, so certify reads
    # a small chain's result that carries the spec.
    result = dataclasses.replace(kappa_exact(ModelSpec(3, 2, 1.0)), spec=spec)
    callers = [kappa_closed_form, boundary_edge_bound, worst_alpha_beta, kappa_exact,
               lambda spec: certify_all_edges(result)]
    for caller in callers:
        with pytest.raises(PrecisionLimitError, match=name):
            caller(spec)


def test_per_edge_certificates():
    spec = ModelSpec(3, 3, 1.0)
    summary = certify_all_edges(kappa_for(spec))
    assert summary.num_edges == spec.num_states * spec.n * (spec.num_colors - 1)
    assert summary.all_passed
    assert summary.min_slack >= 0


@pytest.mark.parametrize("n", [10**9, 10**15])
def test_certificates_at_any_n(n, monkeypatch):
    # num_edges counts the 2^n states only when read: at n = 10^9 that took
    # 4.9 s, and at 10^15 it would not fit in memory
    result = kappa_exact(ModelSpec(n, 2, 1.0))
    with monkeypatch.context() as patch:
        patch.setattr(
            model.ModelSpec, "num_states",
            property(lambda spec: pytest.fail("the states were counted")),
        )
        begin = time.perf_counter()
        summary = certify_all_edges(result)
        assert time.perf_counter() - begin < 1.0
    assert summary.all_passed and summary.min_slack >= 0


@pytest.mark.parametrize(
    "spec",
    [ModelSpec(2, 2, 1.0), ModelSpec(3, 2, 1.0), ModelSpec(3, 3, 1.0),
     ModelSpec(4, 3, 1.0)],
    ids=str,
)
def test_min_slack_matches_edge_by_edge_oracle(spec):
    # at n=2 every edge sits at an end and takes the boundary bound; from
    # n=3 on the interior edges take their neighbors' bound
    _, _, ratios = marginal_tables_for(spec)
    bounds, valid = per_edge_bounds(kernel_for(spec), ratios)
    slack = np.where(valid, bounds - ratios, np.inf)
    at = np.unravel_index(np.argmin(slack), slack.shape)
    got = certify_all_edges(kappa_for(spec)).min_slack
    assert abs(got - slack[at]) <= 1e-12 * bounds[at]


def test_slice_identities_paper_scale():
    spec = ModelSpec(3, 3, 1.0)
    kern = kernel_for(spec)
    report = verify_slice_identities(kern)
    assert report.passed
    assert report.max_error <= 1e-12
    assert report.checked == 2 * 3 * 2
    # the slices at site 2 with w_2 = a, indexed by w_3
    slices = report.w_slice_sums[1, 0]
    # agreeing slice worked by hand: 1 / (3(1 + 2e^{-2}))
    expected = 1.0 / (3 * (1 + 2 * math.exp(-2)))
    assert math.isclose(slices[0], expected, rel_tol=1e-14)
    assert math.isclose(slices[0], 0.26232868072053284, rel_tol=1e-14)
    # each disagreeing slice is smaller by exactly e^{2/T}
    ratio = slices[0] / slices[1]
    assert math.isclose(ratio, math.exp(2.0), rel_tol=1e-12)
    assert math.isclose(slices.sum(), 1 / 3, abs_tol=1e-14)
    assert math.isclose(report.a_prime[1, 0, 1], 1 / 3, abs_tol=1e-14)
    assert math.isclose(report.b_prime[1, 0, 1], 1 / 3, abs_tol=1e-14)


def test_slice_identities_every_site_and_pair():
    spec = ModelSpec(4, 3, 0.5)
    report = verify_slice_identities(kernel_for(spec))
    assert report.passed, report.max_error
    assert report.checked == 3 * 3 * 2
    edges = ~np.eye(3, dtype=bool)
    # b' needs a left neighbor, and c = c' is no edge
    assert np.isnan(report.b_prime[0]).all()
    assert np.isnan(report.a_prime[:, ~edges]).all()
    assert np.isnan(report.b_prime[:, ~edges]).all()
    assert np.allclose(report.a_prime[:, edges], 1 / 3, rtol=0, atol=1e-12)
    assert np.allclose(report.b_prime[1:, edges], 1 / 3, rtol=0, atol=1e-12)


@pytest.mark.parametrize("spec", grid_specs(), ids=str)
def test_slice_identities_match_scalar_oracle(spec):
    kern = kernel_for(spec)
    report = verify_slice_identities(kern)
    pair = slice_pair_table(kern)
    share = 1 / spec.num_colors
    checked, errors = 0, [0.0]
    for site in range(1, spec.n):
        for c, c_to in itertools.permutations(range(spec.num_colors), 2):
            want = slice_identities(spec, pair, site, c, c_to)
            i = site - 1
            slices = report.w_slice_sums[i, c]
            assert np.allclose(slices, want["w_slice_sums"], rtol=1e-13, atol=0)
            a_prime, b_prime = want["a_prime"], want["b_prime"]
            assert math.isclose(report.a_prime[i, c, c_to], a_prime, rel_tol=1e-13)
            errors += [want["agree_error"], want["total_error"], abs(a_prime - share)]
            if b_prime is None:
                assert math.isnan(report.b_prime[i, c, c_to])
            else:
                assert math.isclose(report.b_prime[i, c, c_to], b_prime, rel_tol=1e-13)
                errors.append(abs(b_prime - share))
            checked += 1
    assert report.checked == checked
    # The oracle adds up to 4096 states one at a time, so its rounding is the
    # larger: both margins are rounding, and their verdicts must agree.
    assert math.isclose(report.max_error, max(errors), rel_tol=0, abs_tol=1e-14)
    assert report.passed == (max(errors) <= 1e-12)


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
