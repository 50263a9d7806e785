"""Transition kernel construction and its reversibility invariants."""

import math

import numpy as np
import pytest

from conftest import grid_specs, kernel_for

from spectral_gibbs import (
    ModelSpec,
    bond_score,
    build_kernel,
    check_detailed_balance,
    check_irreducible,
    check_stationarity,
    conditional_probability,
    config_from_colors,
    config_from_rank,
    coordinate_text,
    transition_probability,
)
from spectral_gibbs.kernel import local_conditionals


def test_bond_score():
    assert bond_score(2, 2) == 1
    assert bond_score(0, 1) == -1


def test_conditional_two_site_example():
    # resampling site 1 of (a,a): P(a | neighbor a) = e / (e + e^-1)
    spec = ModelSpec(2, 2, 1.0)
    aa = config_from_colors(spec, (0, 0))
    p = math.e / (math.e + 1 / math.e)
    got = conditional_probability(spec, aa, 1, 0)
    assert math.isclose(got, p, rel_tol=1e-14)
    assert math.isclose(got, 0.8807970779778824, rel_tol=1e-14)
    assert math.isclose(conditional_probability(spec, aa, 1, 1), 1 - p, rel_tol=1e-14)


def test_conditional_depends_only_on_neighbors():
    spec = ModelSpec(4, 3, 0.7)
    # site 2 sees only sites 1 and 3; vary site 4 freely
    a = conditional_probability(spec, config_from_colors(spec, (1, 0, 2, 0)), 2, 1)
    b = conditional_probability(spec, config_from_colors(spec, (1, 2, 2, 1)), 2, 1)
    c = conditional_probability(spec, config_from_colors(spec, (1, 1, 2, 2)), 2, 1)
    assert a == b == c


def test_conditional_normalizes():
    spec = ModelSpec(3, 4, 0.5)
    x = config_from_colors(spec, (0, 1, 2))
    total = sum(conditional_probability(spec, x, 2, c) for c in range(4))
    assert math.isclose(total, 1.0, rel_tol=1e-14)


@pytest.mark.parametrize("temp", [0.05, 1.0, 5.0])
@pytest.mark.parametrize("colors", [2, 3, 5])
def test_local_conditionals_match_logsumexp_oracle(colors, temp):
    # independent route: scalar bond sums normalized by log-sum-exp
    table = local_conditionals(ModelSpec(3, colors, temp))
    assert table.shape == (colors + 1, colors + 1, colors)
    for left in [None, *range(colors)]:
        for right in [None, *range(colors)]:
            logits = [
                sum(bond_score(u, c) for u in (left, right) if u is not None) / temp
                for c in range(colors)
            ]
            top = max(logits)
            log_z = top + math.log(sum(math.exp(v - top) for v in logits))
            li = 0 if left is None else left + 1
            ri = 0 if right is None else right + 1
            for c in range(colors):
                assert math.isclose(
                    table[li, ri, c], math.exp(logits[c] - log_z), rel_tol=1e-13
                ), (left, right, c)


def test_conditional_validation():
    spec = ModelSpec(2, 2, 1.0)
    aa = config_from_colors(spec, (0, 0))
    with pytest.raises(ValueError):
        conditional_probability(spec, aa, 0, 0)
    with pytest.raises(ValueError):
        conditional_probability(spec, aa, 3, 0)
    with pytest.raises(ValueError):
        conditional_probability(spec, aa, 1, 2)


def test_transition_probability_hand_values():
    spec = ModelSpec(2, 2, 1.0)
    aa = config_from_colors(spec, (0, 0))
    ba = config_from_colors(spec, (1, 0))
    bb = config_from_colors(spec, (1, 1))
    p = math.e / (math.e + 1 / math.e)
    q = 1 - p
    # one-site moves carry (1/n) * conditional
    got = transition_probability(spec, aa, ba)
    assert math.isclose(got, q / 2, rel_tol=1e-14)
    assert math.isclose(got, 0.05960146101105878, rel_tol=1e-13)
    # two sites differ: unreachable in one step
    assert transition_probability(spec, aa, bb) == 0.0
    # holding probability sums the own-color conditionals
    assert math.isclose(transition_probability(spec, aa, aa), p, rel_tol=1e-14)


def test_kernel_matches_scalar_route():
    # matrix entries must agree with the scalar transition_probability
    spec = ModelSpec(2, 3, 0.8)
    kern = kernel_for(spec)
    dense = kern.matrix.toarray()
    for x in range(spec.num_states):
        xs = config_from_rank(spec, x)
        for y in range(spec.num_states):
            ys = config_from_rank(spec, y)
            assert math.isclose(
                dense[x, y], transition_probability(spec, xs, ys), abs_tol=1e-15
            )


@pytest.mark.parametrize(
    "spec",
    [ModelSpec(1, 3, 1.0), ModelSpec(2, 2, 0.5), ModelSpec(3, 3, 1.0), ModelSpec(4, 2, 5.0)],
)
def test_kernel_invariants_small(spec):
    kern = kernel_for(spec)
    rows = np.asarray(kern.matrix.sum(axis=1)).ravel()
    assert np.abs(rows - 1).max() <= 1e-12
    assert check_detailed_balance(kern) <= 1e-12
    assert check_stationarity(kern) <= 1e-12
    assert check_irreducible(kern)


def test_edge_count():
    # every single-site recoloring has positive probability
    for spec in [ModelSpec(2, 3, 1.0), ModelSpec(3, 2, 0.5), ModelSpec(2, 4, 2.0)]:
        kern = kernel_for(spec)
        expected = spec.num_states * spec.n * (spec.num_colors - 1)
        assert kern.edges.shape == (expected, 2)
        offdiag = kern.matrix.count_nonzero() - spec.num_states
        assert offdiag == expected


def test_edges_sorted_and_frozen():
    kern = kernel_for(ModelSpec(2, 3, 1.0))
    order = np.lexsort((kern.edges[:, 1], kern.edges[:, 0]))
    assert np.array_equal(order, np.arange(len(kern.edges)))
    with pytest.raises(ValueError):
        kern.edges[0, 0] = 5


def test_row_entries():
    spec = ModelSpec(2, 2, 1.0)
    kern = kernel_for(spec)
    entries = kern.row_entries(0)
    dense = kern.matrix.toarray()
    assert len(entries) == np.count_nonzero(dense[0])
    for col, val in entries:
        assert isinstance(col, int)
        assert val == dense[0, col]
    assert math.isclose(sum(v for _, v in entries), 1.0, rel_tol=1e-14)


def test_coordinate_text_round_trip():
    spec = ModelSpec(2, 2, 1.0)
    kern = kernel_for(spec)
    text = coordinate_text(kern)
    assert text.endswith("\n")
    lines = text.splitlines()
    assert len(lines) == kern.matrix.count_nonzero()
    dense = kern.matrix.toarray()
    rebuilt = np.zeros_like(dense)
    for line in lines:
        r, c, v = line.split(" ")
        rebuilt[int(r), int(c)] = float(v)
    assert np.array_equal(rebuilt, dense)


def test_build_kernel_budget():
    with pytest.raises(Exception, match="budget"):
        build_kernel(ModelSpec(3, 3, 1.0), budget=10)


def test_grid_kernels_all_valid():
    # cheap slice of the full acceptance sweep, kept in unit scope
    for spec in grid_specs(max_states=256):
        kern = kernel_for(spec)
        rows = np.asarray(kern.matrix.sum(axis=1)).ravel()
        assert np.abs(rows - 1).max() <= 1e-12
        assert check_detailed_balance(kern) <= 1e-12
