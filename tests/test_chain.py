"""Propagation, the Monte Carlo stepper, and TV decay curves."""

import json
import math

import numpy as np
import pytest

import oracles
from conftest import grid_specs, kernel_for, spectrum_for
from oracles import (
    conditional_probability,
    mc_tv_oracle,
    propagate,
    stepwise_distributions,
)

from spectral_gibbs import (
    ModelSpec,
    PrecisionLimitError,
    Spectrum,
    build_kernel,
    encode_rank,
    make_rng,
    tv_curve,
    tv_distance,
)
from spectral_gibbs import chain
from spectral_gibbs.chain import _block_length, _distribution_blocks, _mc_distributions
from spectral_gibbs.kernel import conditional_table, local_conditionals
from spectral_gibbs.model import DENSE_SOLVE_BUDGET


def test_make_rng_reproducible():
    assert make_rng(42).random(4).tolist() == make_rng(42).random(4).tolist()
    assert make_rng(1).random(4).tolist() != make_rng(2).random(4).tolist()


def propagated(kern, start, k_max):
    """Every distribution the package's propagation yields, as rows."""
    # Each block is a view that the next one overwrites.
    blocks = _distribution_blocks(kern, start, k_max)
    return np.vstack([block.copy() for block in blocks])


def test_propagate_point_mass_and_one_step():
    spec = ModelSpec(2, 2, 1.0)
    kern = kernel_for(spec)
    zero, one = propagated(kern, 0, 1)
    assert zero[0] == 1.0 and zero.sum() == 1.0
    assert np.allclose(one, kern.matrix.toarray()[0], atol=1e-15)


def test_propagate_converges_to_pi():
    # the streamed distributions follow the dense matrix power all the way
    spec = ModelSpec(3, 3, 1.0)
    kern = kernel_for(spec)
    dists = propagated(kern, 5, 400)
    for k in range(0, len(dists), 50):
        assert np.allclose(dists[k], propagate(kern, 5, k), rtol=0, atol=1e-14), k
    assert tv_distance(dists[-1], kern.pi) < 1e-8


# Every dense spec with N <= 5 at low temperatures: at T = 0.01 products of
# moves are subnormal, and at T = 0.005 the least likely moves underflowed
# to 0.  Then the largest alphabet.
LOW_TEMP_SPECS = [
    ModelSpec(n, colors, temp)
    for temp in (0.06, 0.01, 0.005)
    for colors in range(2, 6)
    for n in range(1, 13)
    if colors**n <= DENSE_SOLVE_BUDGET
] + [ModelSpec(2, 26, 0.06), ModelSpec(2, 26, 1.0)]


@pytest.mark.parametrize("spec", LOW_TEMP_SPECS, ids=str)
def test_exact_arm_is_the_sparse_product_bitwise(spec):
    # the row-table gather adds each state's terms in the order of the CSR
    # product of the oracle, so every distribution is equal to the last bit
    kern = build_kernel(spec)
    for start in {int(np.argmin(kern.pi)), 0, kern.dimension // 3}:
        got = propagated(kern, start, 300)
        oracle = np.vstack(list(stepwise_distributions(kern, start, 300)))
        assert np.array_equal(got, oracle[: len(got)]), start
        # past the float fixed point every distribution is the last one
        assert (oracle[len(got) :] == got[-1]).all(), start


def _fixed_point(kern, start, k_max):
    """First step count whose distribution one more step leaves bitwise
    unchanged, by the non-stopping loop, with the exact TV at every step."""
    pi = kern.pi
    found, tvs, previous = None, [], None
    for k, dist in enumerate(stepwise_distributions(kern, start, k_max)):
        if found is None and previous is not None and np.array_equal(dist, previous):
            found = k - 1
        tvs.append(tv_distance(dist, pi))
        previous = dist
    return found, np.array(tvs)


@pytest.fixture
def stub_spectrum(monkeypatch):
    # the exact arm does not read the spectrum, only the envelope does
    resolved = Spectrum(eigenvalues=np.array([1.0, 0.5, 0.0]))
    monkeypatch.setattr(chain, "compute_spectrum", lambda kern: resolved)


@pytest.mark.parametrize(
    "spec, offsets",
    [(ModelSpec(5, 3, 2.0), (-1, 0, 1, 2)), (ModelSpec(10, 2, 0.5), (0,))],
    ids=str,
)
def test_exact_arm_stops_at_float_fixed_point(spec, offsets, stub_spectrum):
    # the benchmark's spec and a small one both reach the fixed point well
    # before 20000 steps; every TV before, at and past it is the loop's
    kern = kernel_for(spec)
    start = int(np.argmin(kern.pi))
    fixed, oracle = _fixed_point(kern, start, 20000)
    assert fixed is not None and fixed < 20000
    for k_max in [fixed + offset for offset in offsets] + [20000]:
        exact = tv_curve(kern, start, k_max).exact_tv
        assert np.array_equal(exact, oracle[: k_max + 1]), k_max
    # propagation ends with the first block whose last two rows are equal,
    # the first block that ends past the fixed point's next step
    block = _block_length(spec.num_states)
    produced = sum(len(rows) for rows in _distribution_blocks(kern, start, 20000))
    assert produced == block * -(-(fixed + 2) // block)
    assert fixed + 2 <= produced < fixed + 2 + block


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_fixed_point_stop_at_any_block_length(block, stub_spectrum, monkeypatch):
    # a one-row block never compares two rows, so it never stops early
    spec = ModelSpec(5, 3, 2.0)
    kern = kernel_for(spec)
    fixed, oracle = _fixed_point(kern, 0, 600)
    assert fixed is not None
    monkeypatch.setattr(chain, "_block_length", lambda num_states: block)
    assert np.array_equal(tv_curve(kern, 0, 600).exact_tv, oracle)
    produced = sum(len(rows) for rows in _distribution_blocks(kern, 0, 600))
    assert produced == (601 if block == 1 else block * -(-(fixed + 2) // block))


def test_propagation_without_fixed_point_runs_every_step():
    kern = kernel_for(ModelSpec(3, 5, 0.3))
    assert sum(len(rows) for rows in _distribution_blocks(kern, 7, 500)) == 501


def test_tv_distance():
    assert tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    assert tv_distance(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0
    assert math.isclose(
        tv_distance(np.array([0.7, 0.3]), np.array([0.4, 0.6])), 0.3, rel_tol=1e-15
    )
    # A measure whose rounded sum exceeds 1 would put the distance above 1.
    assert tv_distance(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.5, 0.5 + 1e-15])) == 1.0
    with pytest.raises(ValueError):
        tv_distance(np.zeros(2), np.zeros(3))


def stream_ranks(spec, colors, steps, seed):
    """Ranks one chain visits from ``colors``, scalar step by scalar step.

    Two uniforms per step: site ``floor(n u)``, then the first color whose
    cumulative conditional exceeds the second uniform.
    """
    uniforms = make_rng(seed).random(2 * steps)
    colors = list(colors)
    ranks = [encode_rank(spec, colors)]
    for t in range(steps):
        site = min(int(uniforms[2 * t] * spec.n), spec.n - 1)
        total, chosen = 0.0, spec.num_colors - 1
        for c in range(spec.num_colors):
            total += conditional_probability(spec, colors, site + 1, c)
            if uniforms[2 * t + 1] < total:
                chosen = c
                break
        colors[site] = chosen
        ranks.append(encode_rank(spec, colors))
    return np.array(ranks)


def test_trajectory_reproducible():
    # the Monte Carlo arm is a pure function of its seed
    kern = kernel_for(ModelSpec(3, 2, 0.8))
    a = _mc_distributions(kern, 0, 200, 5, 16)
    b = _mc_distributions(kern, 0, 200, 5, 16)
    assert np.array_equal(a, b)
    c = _mc_distributions(kern, 0, 200, 6, 16)
    assert not np.array_equal(a, c)


def test_trajectory_spans_blocks():
    # at 4 states a block is 4096 steps; both runs cross its end, and their
    # second blocks have different lengths
    kern = kernel_for(ModelSpec(2, 2, 1.0))
    assert _block_length(4) == 4096
    long = _mc_distributions(kern, 0, 8200, 3, 4)
    short = _mc_distributions(kern, 0, 4200, 3, 4)
    assert np.array_equal(long[:4201], short)
    long, short = tv_curve(kern, 0, 8200), tv_curve(kern, 0, 4200)
    assert np.array_equal(long.exact_tv[:4201], short.exact_tv)


def test_simulation_consumes_documented_stream():
    # with one replica the empirical TV is 1 - pi(visited state), and the
    # visited states are those of the scalar stream loop
    spec = ModelSpec(3, 3, 1.0)
    kern = kernel_for(spec)
    steps, seed = 40, 123
    mc = _mc_distributions(kern, encode_rank(spec, (0, 1, 2)), steps, seed, 1)
    expected = 1.0 - kern.pi[stream_ranks(spec, (0, 1, 2), steps, seed)]
    np.testing.assert_allclose(mc, expected, rtol=0, atol=1e-12)


def test_long_run_occupancy_matches_pi():
    # effective sample size accounting: var ~ pi(1-pi) tau / steps with
    # tau = (1+beta*)/(1-beta*); assert within three sigma
    spec = ModelSpec(2, 2, 1.0)
    kern = kernel_for(spec)
    spect = spectrum_for(spec)
    steps = 60000
    ranks = stream_ranks(spec, (0, 1), steps, seed=2024)
    occupancy = np.bincount(ranks[1:], minlength=4) / steps
    tau = (1 + spect.beta_star) / (1 - spect.beta_star)
    for state in range(4):
        p = kern.pi[state]
        sigma = math.sqrt(p * (1 - p) * tau / steps)
        assert abs(occupancy[state] - p) < 3 * sigma, (state, occupancy[state], p)


def test_tv_curve_exact_arm():
    spec = ModelSpec(2, 2, 1.0)
    curve = tv_curve(kernel_for(spec), 1, 30)
    kern = kernel_for(spec)
    assert curve.start_state == 1
    assert list(curve.ks) == list(range(31))
    assert math.isclose(curve.exact_tv[0], 1 - kern.pi[1], rel_tol=1e-14)
    assert curve.mc_tv is None and curve.seed is None
    assert curve.within_envelope
    # spot-check one interior point against the dense matrix power; the TV
    # there is 1.7e-7, a difference of O(1) entries, so compare absolutely
    direct = tv_distance(propagate(kern, 1, 7), kern.pi)
    assert math.isclose(curve.exact_tv[7], direct, rel_tol=0, abs_tol=1e-15)


def test_tv_curve_zero_steps():
    spec = ModelSpec(2, 2, 1.0)
    curve = tv_curve(kernel_for(spec), 0, 0)
    assert len(curve.ks) == 1
    assert math.isclose(
        curve.exact_tv[0], 1 - kernel_for(spec).pi[0], rel_tol=1e-14
    )


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
    # one replica consumes the same (site, color) uniforms per step as the
    # scalar stream loop, so its empirical TV is 1 - pi(visited state)
    spec = ModelSpec(4, 3, 0.7)
    start = (2, 0, 1, 1)  # "cabb"
    kern = kernel_for(spec)
    mc = _mc_distributions(kern, encode_rank(spec, start), 300, 11, 1)
    expected = 1.0 - kern.pi[stream_ranks(spec, start, 300, seed=11)]
    np.testing.assert_allclose(mc, expected, rtol=0, atol=1e-12)


class ScriptedUniforms:
    """Stands in for the seeded generator: hands out given uniforms in order."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=np.float64)
        self.used = 0

    def random(self, size):
        out = self.uniforms[self.used : self.used + size]
        self.used += size
        assert len(out) == size, "script ran out of uniforms"
        return out.copy()


def test_mc_arm_color_uniform_on_a_threshold(monkeypatch):
    # a color uniform equal to a threshold draws the color past it (the
    # threshold counts as passed); one ulp below it does not
    spec = ModelSpec(2, 3, 1.0)
    kern = kernel_for(spec)
    cdf = np.cumsum(conditional_table(spec, kern.colors), axis=2)
    below = lambda u: float(np.nextafter(u, 0.0))  # noqa: E731
    # (site uniform, color uniform, rank reached) from "aa" (rank 0)
    steps = [
        (0.0, cdf[0, 0, 1], encode_rank(spec, (2, 0))),
        (0.0, cdf[6, 0, 0], encode_rank(spec, (1, 0))),
        (0.0, below(cdf[3, 0, 0]), encode_rank(spec, (0, 0))),
        (0.75, below(cdf[0, 1, 1]), encode_rank(spec, (0, 1))),
        (0.75, cdf[1, 1, 0], encode_rank(spec, (0, 1))),
    ]
    script = [float(u) for site_u, color_u, _ in steps for u in (site_u, color_u)]
    for module in (chain, oracles):
        monkeypatch.setattr(module, "make_rng", lambda seed: ScriptedUniforms(script))
    got = chain._mc_distributions(kern, 0, len(steps), 0, 1)
    np.testing.assert_array_equal(got, mc_tv_oracle(kern, 0, len(steps), 0, 1))
    ranks = [0] + [rank for _, _, rank in steps]
    np.testing.assert_allclose(got, 1.0 - kern.pi[ranks], rtol=0, atol=1e-15)


_BIN_CUTS = [
    np.unique(np.cumsum(local_conditionals(ModelSpec(3, colors, 1.0)), axis=2)[..., :-1])
    for colors in (2, 3, 26)
] + [
    # cuts on bucket edges, one ulp off them, and inside one bucket
    np.unique([1 / 4096, np.nextafter(0.5, 0.0), 0.5, 0.3, np.nextafter(0.3, 1.0)])
]


@pytest.mark.parametrize("cuts", _BIN_CUTS, ids=["N=2", "N=3", "N=26", "edges"])
def test_bin_lookup_matches_search_at_cuts_and_bucket_edges(cuts):
    # uniforms on every cut and bucket edge k/4096 and one ulp to either side
    points = np.concatenate([cuts, np.arange(chain._BUCKETS + 1) / chain._BUCKETS])
    u = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)])
    u = u[u < 1.0]
    np.testing.assert_array_equal(
        chain._bin_lookup(cuts)(u), np.searchsorted(cuts, u, "right")
    )


def test_tv_curve_envelope_formula():
    spec = ModelSpec(3, 2, 1.0)
    kern = kernel_for(spec)
    spect = spectrum_for(spec)
    curve = tv_curve(kernel_for(spec), 0, 10)
    pi0 = kern.pi[0]
    coef = 0.5 * math.sqrt((1 - pi0) / pi0)
    expected = coef * spect.beta_star ** np.arange(11)
    assert np.allclose(curve.envelope, expected, rtol=1e-13)


def test_tv_curve_refuses_unresolved_envelope(monkeypatch):
    # at T=0.001 the spectral gap rounds to 0 and pi of the least likely
    # state underflows to 0; either leaves the envelope vacuous or undefined
    kern = build_kernel(ModelSpec(3, 2, 0.001))
    start = int(np.argmin(kern.pi))
    assert kern.pi[start] == 0.0
    with pytest.raises(PrecisionLimitError, match="spectral gap"):
        tv_curve(kern, 0, 5)
    resolved = Spectrum(eigenvalues=np.array([1.0, 0.5, 0.0]))
    monkeypatch.setattr(chain, "compute_spectrum", lambda kern: resolved)
    with pytest.raises(PrecisionLimitError, match="underflowed to 0"):
        tv_curve(kern, start, 5)


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
    pi = kern.pi
    exact = [
        tv_distance(d, pi)
        for d in stepwise_distributions(kern, start, max(k_values))
    ]
    for replicas in (1, 7, 256):
        mc = mc_tv_oracle(kern, start, max(k_values), 7, replicas)
        for k_max in k_values:
            # tv_curve's Monte Carlo arm has 256 replicas
            if replicas == 256:
                curve = tv_curve(kern, start, k_max, seed=7)
                got = curve.mc_tv
            else:
                curve = tv_curve(kern, start, k_max)
                got = _mc_distributions(kern, start, k_max, 7, replicas)
            where = f"replicas={replicas} k_max={k_max}"
            np.testing.assert_allclose(
                curve.exact_tv, exact[: k_max + 1], rtol=0, atol=1e-15, err_msg=where
            )
            # a different color choice anywhere moves some TV by >= 1/replicas
            np.testing.assert_allclose(
                got, mc[: k_max + 1], rtol=0, atol=1e-15, err_msg=where
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
