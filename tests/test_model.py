"""State encoding, energies, and the stationary measure."""

import math

import numpy as np
import oracles
import pytest
from conftest import CLOSED_FORM_CHAINS, CLOSED_FORM_TEMPS

from spectral_gibbs import (
    BudgetExceededError,
    ModelSpec,
    PrecisionLimitError,
    colors_to_string,
    decode_rank,
    encode_rank,
    stationary_measure,
    string_to_colors,
)
from spectral_gibbs.model import check_exponent_range, colors_table, energies_table
from spectral_gibbs.model import least_likely_rank, log_partition


def measure(spec):
    return stationary_measure(spec, colors_table(spec))


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(0, 2, 1.0)
    with pytest.raises(ValueError):
        ModelSpec(2, 1, 1.0)
    with pytest.raises(ValueError):
        ModelSpec(2, 3, 0.0)
    with pytest.raises(ValueError):
        ModelSpec(2, 3, -1.0)
    with pytest.raises(ValueError):
        ModelSpec(2, 3, math.nan)
    with pytest.raises(ValueError):
        ModelSpec(2, 3, math.inf)


def test_num_states():
    assert ModelSpec(3, 2, 1.0).num_states == 8
    assert ModelSpec(6, 4, 1.0).num_states == 4096


def test_rank_is_big_endian():
    spec = ModelSpec(3, 2, 1.0)
    # site 1 is the most significant digit
    assert encode_rank(spec, (0, 0, 1)) == 1
    assert encode_rank(spec, (1, 0, 0)) == 4
    assert decode_rank(spec, 6) == (1, 1, 0)


@pytest.mark.parametrize("n,colors", [(1, 2), (3, 2), (2, 3), (2, 4)])
def test_rank_roundtrip_exhaustive(n, colors):
    spec = ModelSpec(n, colors, 1.0)
    for rank in range(spec.num_states):
        assert encode_rank(spec, decode_rank(spec, rank)) == rank


def test_encode_rejects_bad_colors():
    spec = ModelSpec(2, 3, 1.0)
    with pytest.raises(ValueError):
        encode_rank(spec, (0, 3))
    with pytest.raises(ValueError):
        encode_rank(spec, (0, -1))
    with pytest.raises(ValueError):
        encode_rank(spec, (0, 0, 0))


def test_energy_hand_values():
    spec = ModelSpec(3, 2, 1.0)
    energies = energies_table(colors_table(spec))
    # each adjacent pair contributes +1 on agreement, -1 on disagreement
    assert energies[encode_rank(spec, (0, 0, 0))] == 2
    assert energies[encode_rank(spec, (0, 0, 1))] == 0
    assert energies[encode_rank(spec, (0, 1, 0))] == -2
    assert list(energies_table(colors_table(ModelSpec(1, 2, 1.0)))) == [0, 0]


def test_stationary_measure_two_site():
    spec = ModelSpec(2, 2, 1.0)
    pi = measure(spec)
    # pi(aa) = e / (2e + 2e^-1), worked by hand
    e = math.e
    assert math.isclose(pi[0], e / (2 * e + 2 / e), rel_tol=1e-14)
    assert math.isclose(pi[0], 0.4403985389889412, rel_tol=1e-14)
    assert math.isclose(pi[1], pi[2], rel_tol=1e-14)
    assert math.isclose(sum(pi), 1.0, abs_tol=1e-12)
    assert math.isclose(log_partition(spec), math.log(2 * e + 2 / e), rel_tol=1e-14)


def test_stationary_measure_single_site_uniform():
    pi = measure(ModelSpec(1, 4, 0.7))
    assert np.allclose(pi, 0.25, atol=1e-15)


def test_stationary_measure_high_temp_limit():
    pi = measure(ModelSpec(3, 3, 1e9))
    assert np.allclose(pi, 1 / 27, atol=1e-8)


def test_stationary_measure_low_temp_concentrates():
    # T -> 0 puts nearly all mass on the monochromatic strings
    pi = measure(ModelSpec(4, 2, 0.05))
    mono = pi[0] + pi[-1]
    assert mono > 1 - 1e-10


@pytest.mark.parametrize("n,colors", CLOSED_FORM_CHAINS)
def test_log_partition_matches_enumeration(n, colors):
    for temp in CLOSED_FORM_TEMPS:
        spec = ModelSpec(n, colors, temp)
        expected = oracles.log_partition(spec)
        assert abs(log_partition(spec) - expected) <= 4 * math.ulp(expected), spec


@pytest.mark.parametrize("spec", [ModelSpec(6, 4, 0.01), ModelSpec(4, 3, 0.02)], ids=str)
def test_ground_states_keep_relative_accuracy(spec):
    # Every other state weighs below e^-100 of a ground state, so each of the
    # N one-color states has pi = 1/N to the last place.  pi is taken as
    # exp((H - (n-1))/T - r), with H - (n-1) an exact integer, so the
    # rounding of log Z near (n-1)/T, 500 at (6,4,0.01), does not enter:
    # exp(H/T - log Z) gave 0.24999999999999906 there.
    pi = measure(spec)
    ground = [encode_rank(spec, [color] * spec.n) for color in range(spec.num_colors)]
    share = 1 / spec.num_colors
    assert all(abs(p - share) <= math.ulp(share) for p in pi[ground])


@pytest.mark.parametrize("n,colors", CLOSED_FORM_CHAINS)
def test_stationary_measure_sums_to_one(n, colors):
    # At most 1.6e-15 off on this grid, at (4,6,20); exp(H/T - log Z) was
    # 1.5e-14 off at (14,2,0.06).
    for temp in CLOSED_FORM_TEMPS:
        spec = ModelSpec(n, colors, temp)
        assert abs(math.fsum(measure(spec)) - 1.0) <= 4e-15, spec


@pytest.mark.parametrize("colors", [2, 3, 4, 7, 26])
def test_least_likely_rank_closed_form_matches_the_sum(colors):
    # the rank of 0, 1, 0, 1, ... summed place by place, as it was before
    for n in range(1, 300):
        want = sum(colors ** (n - 1 - i) for i in range(1, n, 2))
        assert least_likely_rank(ModelSpec(n, colors, 1.0)) == want, n


def test_least_likely_rank_at_large_n():
    # 1010...10 in binary, so three times it is 2^n - 1 at even n; the sum
    # over places was quadratic in n, 5.6 s here.
    assert 3 * least_likely_rank(ModelSpec(10**5, 2, 1.0)) == 2**10**5 - 1


def test_exponent_range_refuses_an_n_past_the_float_range():
    # 2(n - 1) itself does not convert to a float
    with pytest.raises(PrecisionLimitError, match="float range"):
        check_exponent_range(ModelSpec(10**400, 2, 1.0))
    check_exponent_range(ModelSpec(10**300, 2, 1e10))


def test_weights_are_read_only():
    pi = measure(ModelSpec(2, 2, 1.0))
    with pytest.raises(ValueError):
        pi[0] = 0.0


def test_budget_enforced():
    spec = ModelSpec(9, 4, 1.0)  # 262144 states
    with pytest.raises(BudgetExceededError, match="65536"):
        colors_table(spec)


def test_color_strings():
    spec = ModelSpec(3, 3, 1.0)
    assert colors_to_string((0, 1, 2)) == "abc"
    assert string_to_colors(spec, "abc") == (0, 1, 2)
    with pytest.raises(ValueError):
        string_to_colors(spec, "abd")  # color d needs N >= 4
    with pytest.raises(ValueError):
        string_to_colors(spec, "ab")  # wrong length
    with pytest.raises(ValueError):
        colors_to_string((26,))  # past 'z'
    wide = ModelSpec(1, 26, 1.0)
    assert string_to_colors(wide, "z") == (25,)
    assert colors_to_string((25,)) == "z"
