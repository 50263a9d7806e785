"""Transition kernel construction and its reversibility invariants."""

import math

import numpy as np
import pytest

from conftest import grid_specs, kernel_for
from oracles import (
    csr_detailed_balance,
    csr_irreducible,
    csr_row_sum_error,
    csr_stationarity,
    neighbor_conditional,
    transition_probability,
)

from spectral_gibbs import (
    BudgetExceededError,
    ModelSpec,
    SparseKernel,
    bond_score,
    build_kernel,
    check_detailed_balance,
    check_irreducible,
    check_row_sums,
    check_stationarity,
    decode_rank,
    encode_rank,
)
from spectral_gibbs.kernel import conditional_table, local_conditionals
from spectral_gibbs.model import colors_table


def test_bond_score():
    assert bond_score(2, 2) == 1
    assert bond_score(0, 1) == -1


def test_conditional_two_site_example():
    # resampling site 1 of (a,a): P(a | neighbor a) = e / (e + e^-1)
    spec = ModelSpec(2, 2, 1.0)
    aa = encode_rank(spec, (0, 0))
    p = math.e / (math.e + 1 / math.e)
    got = conditional_table(spec, colors_table(spec))[aa, 0]
    assert math.isclose(got[0], p, rel_tol=1e-14)
    assert math.isclose(got[0], 0.8807970779778824, rel_tol=1e-14)
    assert math.isclose(got[1], 1 - p, rel_tol=1e-14)


def test_conditional_depends_only_on_neighbors():
    spec = ModelSpec(4, 3, 0.7)
    table = conditional_table(spec, colors_table(spec))
    # site 2 sees only sites 1 and 3; vary site 4 freely
    a, b, c = (
        table[encode_rank(spec, colors), 1]
        for colors in [(1, 0, 2, 0), (1, 2, 2, 1), (1, 1, 2, 2)]
    )
    assert np.array_equal(a, b) and np.array_equal(b, c)


def test_conditional_normalizes():
    spec = ModelSpec(3, 4, 0.5)
    table = conditional_table(spec, colors_table(spec))
    assert np.abs(table.sum(axis=2) - 1.0).max() <= 1e-14


@pytest.mark.parametrize("temp", [0.05, 1.0, 5.0])
@pytest.mark.parametrize("colors", [2, 3, 5])
def test_local_conditionals_match_logsumexp_oracle(colors, temp):
    # independent route: scalar bond sums normalized by log-sum-exp
    table = local_conditionals(ModelSpec(3, colors, temp))
    assert table.shape == (colors + 1, colors + 1, colors)
    for left in [None, *range(colors)]:
        for right in [None, *range(colors)]:
            want = neighbor_conditional(colors, temp, left, right)
            li = 0 if left is None else left + 1
            ri = 0 if right is None else right + 1
            for c in range(colors):
                got = table[li, ri, c]
                assert math.isclose(got, want[c], rel_tol=1e-13), (left, right, c)


def test_transition_probability_hand_values():
    spec = ModelSpec(2, 2, 1.0)
    dense = kernel_for(spec).matrix.toarray()
    aa, ba, bb = 0, 2, 3
    p = math.e / (math.e + 1 / math.e)
    q = 1 - p
    # one-site moves carry (1/n) * conditional
    assert math.isclose(dense[aa, ba], q / 2, rel_tol=1e-14)
    assert math.isclose(dense[aa, ba], 0.05960146101105878, rel_tol=1e-13)
    # two sites differ: unreachable in one step
    assert dense[aa, bb] == 0.0
    # holding probability sums the own-color conditionals
    assert math.isclose(dense[aa, aa], p, rel_tol=1e-14)


def test_kernel_matches_scalar_route():
    # matrix entries must agree with the scalar transition_probability
    spec = ModelSpec(2, 3, 0.8)
    kern = kernel_for(spec)
    dense = kern.matrix.toarray()
    for x in range(spec.num_states):
        xs = decode_rank(spec, x)
        for y in range(spec.num_states):
            ys = decode_rank(spec, y)
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
    # every single-site recoloring is in the sparsity pattern, even where its
    # probability underflowed to an explicit 0, so the move graph stays whole
    for spec in [
        ModelSpec(2, 3, 1.0),
        ModelSpec(3, 2, 0.5),
        ModelSpec(2, 4, 2.0),
        ModelSpec(3, 2, 0.001),
    ]:
        kern = kernel_for(spec)
        expected = spec.num_states * spec.n * (spec.num_colors - 1)
        assert kern.matrix.nnz - spec.num_states == expected
        assert check_irreducible(kern)
    # 12 of the 24 moves at T=0.001 underflow
    cold = kernel_for(ModelSpec(3, 2, 0.001)).matrix
    assert cold.count_nonzero() - 8 == 12


def test_row_entries():
    # one row read through indptr, as the demo does, in column order
    spec = ModelSpec(2, 2, 1.0)
    matrix = kernel_for(spec).matrix
    row = slice(matrix.indptr[0], matrix.indptr[1])
    cols, vals = matrix.indices[row], matrix.data[row]
    assert list(cols) == [0, 1, 2]
    assert np.array_equal(vals, matrix.toarray()[0, cols])
    assert math.isclose(vals.sum(), 1.0, rel_tol=1e-14)


def test_build_kernel_budget():
    with pytest.raises(BudgetExceededError, match="65536"):
        build_kernel(ModelSpec(17, 2, 1.0))


def test_grid_kernels_all_valid():
    # cheap slice of the full acceptance sweep, kept in unit scope
    for spec in grid_specs(max_states=256):
        kern = kernel_for(spec)
        rows = np.asarray(kern.matrix.sum(axis=1)).ravel()
        assert np.abs(rows - 1).max() <= 1e-12
        assert check_detailed_balance(kern) <= 1e-12


# At (3,2,0.005) and (3,2,0.001) some moves underflow to 0.
@pytest.mark.parametrize(
    "spec", grid_specs() + [ModelSpec(3, 2, 0.005), ModelSpec(3, 2, 0.001)], ids=str
)
def test_checks_match_csr_oracles(spec):
    kern = kernel_for(spec)
    assert abs(check_row_sums(kern) - csr_row_sum_error(kern)) <= 1e-15
    assert abs(check_detailed_balance(kern) - csr_detailed_balance(kern)) <= 1e-15
    assert abs(check_stationarity(kern) - csr_stationarity(kern)) <= 1e-15
    assert check_irreducible(kern) == csr_irreducible(kern)


def test_irreducible_rejects_disconnected_table():
    # Every slot of every row points back at its own state.
    kern = kernel_for(ModelSpec(2, 3, 1.0))
    cols = np.repeat(np.arange(kern.dimension)[:, None], kern.cols.shape[1], axis=1)
    stuck = SparseKernel(
        spec=kern.spec, colors=kern.colors, pi=kern.pi, cols=cols, data=kern.data
    )
    assert not check_irreducible(stuck)
    assert not csr_irreducible(stuck)


def test_matrix_copies_the_row_table():
    # csr_matrix wraps views of the arrays it is given, and sorting the
    # indices would then reorder the row table in place.
    kern = build_kernel(ModelSpec(3, 2, 0.5))
    cols, data = kern.cols.copy(), kern.data.copy()
    matrix = kern.matrix
    assert matrix is kern.matrix
    assert matrix.has_sorted_indices
    assert np.array_equal(kern.cols, cols) and kern.data.tobytes() == data.tobytes()
    assert not np.shares_memory(matrix.data, kern.data)
    rows = np.arange(kern.dimension)[:, None]
    assert matrix.toarray()[rows, cols].tobytes() == data.tobytes()
    assert check_detailed_balance(kern) <= 1e-12
