"""Scalar oracles for the kernel: one state, one site, one step at a time.

They share no code with the package's tables beyond ``bond_score``, so a
test that compares the two checks the tables.
"""

import math

import numpy as np

from spectral_gibbs import bond_score


def neighbor_conditional(num_colors, temp, left, right):
    """Color distribution of a site with neighbors ``left`` and ``right``.

    A missing neighbor is None.  Normalized by log-sum-exp over the bond
    scores, so small temperatures cannot overflow.
    """
    logits = [
        sum(bond_score(u, c) for u in (left, right) if u is not None) / temp
        for c in range(num_colors)
    ]
    top = max(logits)
    log_z = top + math.log(sum(math.exp(v - top) for v in logits))
    return [math.exp(v - log_z) for v in logits]


def conditional_probability(spec, colors, i, color):
    """Probability that resampling 1-based site ``i`` of ``colors`` gives ``color``."""
    left = colors[i - 2] if i >= 2 else None
    right = colors[i] if i < spec.n else None
    return neighbor_conditional(spec.num_colors, spec.temp, left, right)[color]


def transition_probability(spec, x, y):
    """One-step probability from color vector ``x`` to color vector ``y``.

    A single differing site ``i`` gives ``(1/n) * conditional``, equality the
    holding probability ``(1/n) * sum_i conditional(x_i)``, and two or more
    differing sites 0.
    """
    diffs = [i for i in range(spec.n) if x[i] != y[i]]
    if len(diffs) > 1:
        return 0.0
    if diffs:
        return conditional_probability(spec, x, diffs[0] + 1, y[diffs[0]]) / spec.n
    sites = range(1, spec.n + 1)
    return sum(conditional_probability(spec, x, i, x[i - 1]) for i in sites) / spec.n


def propagate(kernel, start, k):
    """Distribution after ``k`` steps from rank ``start``: a row of dense ``P^k``."""
    return np.linalg.matrix_power(kernel.matrix.toarray(), k)[start]
