"""State encoding, energies, and the stationary measure."""

import math

import numpy as np
import pytest

from spectral_gibbs import (
    BudgetExceededError,
    ModelSpec,
    colors_to_string,
    config_from_colors,
    config_from_rank,
    decode_rank,
    encode_rank,
    stationary_measure,
    string_to_colors,
)
from spectral_gibbs.model import colors_table, energies_table


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


def test_config_constructors_agree():
    spec = ModelSpec(3, 3, 1.0)
    for rank in range(spec.num_states):
        from_rank = config_from_rank(spec, rank)
        from_colors = config_from_colors(spec, from_rank.colors)
        assert from_rank == from_colors
        assert from_rank.rank == rank
        assert config_from_rank(spec, encode_rank(spec, from_rank.colors)) == from_rank


def test_energy_hand_values():
    spec = ModelSpec(3, 2, 1.0)
    energies = energies_table(colors_table(spec))
    # each adjacent pair contributes +1 on agreement, -1 on disagreement
    assert energies[config_from_colors(spec, (0, 0, 0)).rank] == 2
    assert energies[config_from_colors(spec, (0, 0, 1)).rank] == 0
    assert energies[config_from_colors(spec, (0, 1, 0)).rank] == -2
    assert list(energies_table(colors_table(ModelSpec(1, 2, 1.0)))) == [0, 0]


def test_stationary_measure_two_site():
    spec = ModelSpec(2, 2, 1.0)
    pi = measure(spec)
    # pi(aa) = e / (2e + 2e^-1), worked by hand
    e = math.e
    assert math.isclose(pi.weights[0], e / (2 * e + 2 / e), rel_tol=1e-14)
    assert math.isclose(pi.weights[0], 0.4403985389889412, rel_tol=1e-14)
    assert math.isclose(pi.weights[1], pi.weights[2], rel_tol=1e-14)
    assert math.isclose(sum(pi.weights), 1.0, abs_tol=1e-12)
    assert math.isclose(pi.log_z, math.log(2 * e + 2 / e), rel_tol=1e-14)


def test_stationary_measure_single_site_uniform():
    pi = measure(ModelSpec(1, 4, 0.7))
    assert np.allclose(pi.weights, 0.25, atol=1e-15)


def test_stationary_measure_high_temp_limit():
    pi = measure(ModelSpec(3, 3, 1e9))
    assert np.allclose(pi.weights, 1 / 27, atol=1e-8)


def test_stationary_measure_low_temp_concentrates():
    # T -> 0 puts nearly all mass on the monochromatic strings
    pi = measure(ModelSpec(4, 2, 0.05))
    mono = pi.weights[0] + pi.weights[-1]
    assert mono > 1 - 1e-10


def test_weights_are_read_only():
    pi = measure(ModelSpec(2, 2, 1.0))
    with pytest.raises(ValueError):
        pi.weights[0] = 0.0


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
