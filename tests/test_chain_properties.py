"""Property test: the Monte Carlo arm equals its oracle on random inputs.

The arm is called directly: the spectral gap of some drawn chains near
T=0.05 rounds to 0, and ``tv_curve`` then refuses before it steps.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oracles import mc_tv_oracle  # noqa: E402

from spectral_gibbs import ModelSpec, build_kernel  # noqa: E402
from spectral_gibbs.chain import _mc_distributions  # noqa: E402


@st.composite
def chains(draw):
    """A spec with at most 256 states."""
    colors = draw(st.integers(2, 6))
    n = draw(st.integers(1, max(n for n in range(1, 9) if colors**n <= 256)))
    temp = draw(st.floats(0.05, 20.0))
    return ModelSpec(n, colors, temp)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    spec=chains(),
    replicas=st.integers(1, 300),
    k_max=st.integers(0, 700),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_mc_arm_matches_oracle(spec, replicas, k_max, seed, data):
    kern = build_kernel(spec)
    start = data.draw(st.integers(0, spec.num_states - 1))
    got = _mc_distributions(kern, start, k_max, seed, replicas)
    expected = mc_tv_oracle(kern, start, k_max, seed, replicas)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)
