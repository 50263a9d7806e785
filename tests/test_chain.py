"""Propagation, simulation, and TV decay curves."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import grid_specs, kernel_for, spectrum_for
from oracles import conditional_probability, mc_tv_oracle, propagate

from spectral_gibbs import (
    ModelSpec,
    config_from_colors,
    make_rng,
    simulate,
    simulate_trajectory,
    tv_curve,
    tv_distance,
)
from spectral_gibbs import chain
from spectral_gibbs.chain import _block_length, _distributions


def test_make_rng_reproducible():
    assert make_rng(42).random(4).tolist() == make_rng(42).random(4).tolist()
    assert make_rng(1).random(4).tolist() != make_rng(2).random(4).tolist()


def test_propagate_point_mass_and_one_step():
    spec = ModelSpec(2, 2, 1.0)
    kern = kernel_for(spec)
    zero, one = _distributions(kern, 0, 1)
    assert zero[0] == 1.0 and zero.sum() == 1.0
    assert np.allclose(one, kern.matrix.toarray()[0], atol=1e-15)


def test_propagate_converges_to_pi():
    # the streamed distributions follow the dense matrix power all the way
    spec = ModelSpec(3, 3, 1.0)
    kern = kernel_for(spec)
    for k, dist in enumerate(_distributions(kern, 5, 400)):
        if k % 50 == 0:
            assert np.allclose(dist, propagate(kern, 5, k), rtol=0, atol=1e-14), k
    assert tv_distance(dist, kern.pi.weights) < 1e-8


def test_tv_distance():
    assert tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    assert tv_distance(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0
    assert math.isclose(
        tv_distance(np.array([0.7, 0.3]), np.array([0.4, 0.6])), 0.3, rel_tol=1e-15
    )
    with pytest.raises(ValueError):
        tv_distance(np.zeros(2), np.zeros(3))


def test_trajectory_shape_and_moves():
    spec = ModelSpec(4, 3, 1.0)
    start = config_from_colors(spec, (0, 1, 2, 0))
    path = simulate_trajectory(spec, start, 500, seed=11)
    assert path.shape == (501, 4)
    assert tuple(path[0]) == start.colors
    diffs = (path[1:] != path[:-1]).sum(axis=1)
    assert diffs.max() <= 1  # single-site dynamics
    assert path.min() >= 0 and path.max() <= 2


def test_trajectory_reproducible():
    spec = ModelSpec(3, 2, 0.8)
    start = config_from_colors(spec, (0, 0, 0))
    a = simulate_trajectory(spec, start, 200, seed=5)
    b = simulate_trajectory(spec, start, 200, seed=5)
    assert np.array_equal(a, b)
    c = simulate_trajectory(spec, start, 200, seed=6)
    assert not np.array_equal(a, c)


def test_trajectory_spans_blocks():
    # crossing the internal block boundary must not disturb the stream
    spec = ModelSpec(2, 2, 1.0)
    start = config_from_colors(spec, (0, 0))
    long = simulate_trajectory(spec, start, 8200, seed=3)
    short = simulate_trajectory(spec, start, 100, seed=3)
    assert np.array_equal(long[:101], short)


def test_simulate_returns_final_state():
    spec = ModelSpec(3, 3, 1.0)
    start = config_from_colors(spec, (0, 1, 2))
    final = simulate(spec, start, 50, seed=9)
    path = simulate_trajectory(spec, start, 50, seed=9)
    assert final.colors == tuple(int(c) for c in path[-1])


def test_simulate_holds_one_configuration():
    # a trajectory of 10^5 steps at n=64 would take 6.4 MB
    spec = ModelSpec(64, 3, 1.0)
    start = config_from_colors(spec, (0,) * 64)
    tracemalloc.start()
    try:
        simulate(spec, start, 100_000, seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_simulate_validation():
    spec = ModelSpec(2, 2, 1.0)
    start = config_from_colors(spec, (0, 0))
    with pytest.raises(ValueError):
        simulate(spec, start, -1, seed=0)
    with pytest.raises(ValueError):
        simulate(ModelSpec(3, 2, 1.0), start, 1, seed=0)


def test_simulation_consumes_documented_stream():
    # two uniforms per step: site = floor(n u), color by inverse CDF
    spec = ModelSpec(3, 3, 1.0)
    start = config_from_colors(spec, (0, 1, 2))
    steps, seed = 40, 123
    path = simulate_trajectory(spec, start, steps, seed)

    uniforms = make_rng(seed).random(2 * steps)
    colors = list(start.colors)
    for t in range(steps):
        site = min(int(uniforms[2 * t] * spec.n), spec.n - 1)
        total, chosen = 0.0, spec.num_colors - 1
        for c in range(spec.num_colors):
            total += conditional_probability(spec, colors, site + 1, c)
            if uniforms[2 * t + 1] < total:
                chosen = c
                break
        colors[site] = chosen
        assert tuple(colors) == tuple(int(v) for v in path[t + 1]), f"step {t}"


def test_long_run_occupancy_matches_pi():
    # effective sample size accounting: var ~ pi(1-pi) tau / steps with
    # tau = (1+beta*)/(1-beta*); assert within three sigma
    spec = ModelSpec(2, 2, 1.0)
    kern = kernel_for(spec)
    spect = spectrum_for(spec)
    steps = 60000
    start = config_from_colors(spec, (0, 1))
    path = simulate_trajectory(spec, start, steps, seed=2024)
    ranks = path[:, 0].astype(int) * 2 + path[:, 1].astype(int)
    occupancy = np.bincount(ranks[1:], minlength=4) / steps
    tau = (1 + spect.beta_star) / (1 - spect.beta_star)
    for state in range(4):
        p = kern.pi.weights[state]
        sigma = math.sqrt(p * (1 - p) * tau / steps)
        assert abs(occupancy[state] - p) < 3 * sigma, (state, occupancy[state], p)


def test_tv_curve_exact_arm():
    spec = ModelSpec(2, 2, 1.0)
    curve = tv_curve(kernel_for(spec), 1, 30)
    kern = kernel_for(spec)
    assert curve.start_state == 1
    assert list(curve.ks) == list(range(31))
    assert math.isclose(curve.exact_tv[0], 1 - kern.pi.weights[1], rel_tol=1e-14)
    assert curve.mc_tv is None and curve.seed is None
    assert curve.within_envelope
    # spot-check one interior point against the dense matrix power; the TV
    # there is 1.7e-7, a difference of O(1) entries, so compare absolutely
    direct = tv_distance(propagate(kern, 1, 7), kern.pi.weights)
    assert math.isclose(curve.exact_tv[7], direct, rel_tol=0, abs_tol=1e-15)


def test_tv_curve_zero_steps():
    spec = ModelSpec(2, 2, 1.0)
    curve = tv_curve(kernel_for(spec), 0, 0)
    assert len(curve.ks) == 1
    assert math.isclose(
        curve.exact_tv[0], 1 - kernel_for(spec).pi.weights[0], rel_tol=1e-14
    )


def test_tv_curve_accepts_configuration():
    spec = ModelSpec(2, 3, 1.0)
    start = config_from_colors(spec, (1, 2))
    curve = tv_curve(kernel_for(spec), start, 5)
    assert curve.start_state == start.rank


def test_tv_curve_mc_arm():
    spec = ModelSpec(2, 2, 1.0)
    curve = tv_curve(kernel_for(spec), 1, 12, seed=7)
    assert curve.seed == 7
    assert curve.mc_tv is not None and len(curve.mc_tv) == 13
    # all replicas start at the same point: step zero is exact
    assert math.isclose(curve.mc_tv[0], curve.exact_tv[0], rel_tol=1e-15)
    # later steps are noisy but must stay within TV's [0,1] range
    assert np.all(curve.mc_tv >= 0) and np.all(curve.mc_tv <= 1)
    again = tv_curve(kernel_for(spec), 1, 12, seed=7)
    assert np.array_equal(curve.mc_tv, again.mc_tv)


def test_tv_curve_mc_arm_follows_documented_stream():
    # one replica consumes the same (site, color) uniforms per step as
    # simulate_trajectory, so its empirical TV is 1 - pi(visited state)
    spec = ModelSpec(4, 3, 0.7)
    start = config_from_colors(spec, (2, 0, 1, 1))  # "cabb"
    curve = tv_curve(kernel_for(spec), start, 300, seed=11, mc_replicas=1)
    path = simulate_trajectory(spec, start, 300, seed=11).astype(np.int64)
    ranks = path @ (spec.num_colors ** np.arange(spec.n - 1, -1, -1))
    expected = 1.0 - kernel_for(spec).pi.weights[ranks]
    np.testing.assert_allclose(curve.mc_tv, expected, rtol=0, atol=1e-12)


def test_tv_curve_envelope_formula():
    spec = ModelSpec(3, 2, 1.0)
    kern = kernel_for(spec)
    spect = spectrum_for(spec)
    curve = tv_curve(kernel_for(spec), 0, 10)
    pi0 = kern.pi.weights[0]
    coef = 0.5 * math.sqrt((1 - pi0) / pi0)
    expected = coef * spect.beta_star ** np.arange(11)
    assert np.allclose(curve.envelope, expected, rtol=1e-13)


def test_tv_curve_rejects_bad_arguments():
    kern = kernel_for(ModelSpec(2, 2, 1.0))
    with pytest.raises(ValueError, match="out of range"):
        tv_curve(kern, 9, 3)
    with pytest.raises(ValueError, match="nonnegative"):
        tv_curve(kern, 0, -1)


def test_tv_curve_serialization():
    spec = ModelSpec(2, 2, 1.0)
    curve = tv_curve(kernel_for(spec), 1, 4, seed=3)
    text = curve.to_csv()
    lines = text.splitlines()
    assert lines[0] == "k,exact_tv,envelope,mc_tv"
    assert len(lines) == 6
    assert text.endswith("\n")
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == curve.exact_tv[0]

    payload = json.loads(curve.to_json())
    assert payload["model"] == {"n": 2, "colors": 2, "temp": 1}
    assert payload["start_state"] == 1
    assert payload["seed"] == 3
    assert payload["exact_tv"][2] == curve.exact_tv[2]

    bare = tv_curve(kernel_for(spec), 1, 4)
    rows = bare.to_csv().splitlines()
    assert rows[1].endswith(",")  # empty cell, not a zero
    assert json.loads(bare.to_json())["mc_tv"] is None


# Specs whose block length is at most 256 steps, so both arms can be run past
# three blocks; every grid spec, these and the smaller ones, is also run
# with a shortened block below.
LONG_BLOCK_SPECS = [s for s in grid_specs(1024) if s.num_states >= 64] + [
    ModelSpec(2, 26, 1.0),
    ModelSpec(6, 4, 1.0),
    ModelSpec(12, 2, 1.0),
]


def _straddling(block):
    """Step counts that end inside, on and just past block boundaries."""
    return [0, 1, block - 1, block, block + 1, 3 * block + 5]


@pytest.fixture
def cached_spectrum(monkeypatch):
    # the arms do not read the spectrum; the session cache saves a solve
    # per tv_curve call
    monkeypatch.setattr(chain, "compute_spectrum", lambda kern: spectrum_for(kern.spec))


def _check_both_arms(spec, block):
    kern = kernel_for(spec)
    start = spec.num_states // 2
    k_values = _straddling(block)
    pi = kern.pi.weights
    exact = [tv_distance(d, pi) for d in _distributions(kern, start, max(k_values))]
    for replicas in (1, 7, 256):
        mc = mc_tv_oracle(kern, start, max(k_values), 7, replicas)
        for k_max in k_values:
            curve = tv_curve(kern, start, k_max, seed=7, mc_replicas=replicas)
            where = f"replicas={replicas} k_max={k_max}"
            np.testing.assert_allclose(
                curve.exact_tv, exact[: k_max + 1], rtol=0, atol=1e-15, err_msg=where
            )
            # a different color choice anywhere moves some TV by >= 1/replicas
            np.testing.assert_allclose(
                curve.mc_tv, mc[: k_max + 1], rtol=0, atol=1e-15, err_msg=where
            )


@pytest.mark.parametrize("spec", LONG_BLOCK_SPECS, ids=str)
def test_tv_arms_match_oracles_across_blocks(spec, cached_spectrum):
    _check_both_arms(spec, _block_length(spec.num_states))


@pytest.mark.parametrize("spec", grid_specs(1024), ids=str)
def test_tv_arms_match_oracles_across_short_blocks(spec, cached_spectrum, monkeypatch):
    # the block logic does not depend on why a block has its length, so a
    # three-step block puts every grid spec across several boundaries
    monkeypatch.setattr(chain, "_block_length", lambda num_states: 3)
    _check_both_arms(spec, 3)
