"""Scalar oracles for the kernel: one state, one site, one step at a time.

They share no code with the package's tables beyond ``bond_score`` (and
``make_rng``, whose stream the Monte Carlo oracle must consume), so a test
that compares the two checks the tables.
"""

import math

import numpy as np

from spectral_gibbs import bond_score, make_rng


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


def glauber_beta1(n, temp):
    """Second eigenvalue of the two-color chain on ``n >= 2`` sites (Glauber 1963).

    At N=2 the conditional mean of a +-1 spin is ``tanh((left + right)/T)``,
    which is linear in its neighbors, so ``span{sigma_1 .. sigma_n}`` is
    invariant under ``P``.  There ``P`` acts as ``(1 - 1/n) I + A / n`` with
    ``A`` tridiagonal: ``tanh(2/T)/2`` off the diagonal in interior rows and
    ``tanh(1/T)`` in the two boundary rows.
    """
    inner, edge = math.tanh(2 / temp) / 2, math.tanh(1 / temp)
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = edge if i == 0 else inner
        a[i + 1, i] = edge if i + 1 == n - 1 else inner
    return float(np.linalg.eigvals((1 - 1 / n) * np.eye(n) + a / n).real.max())


def mc_tv_oracle(kernel, start, k_max, seed, replicas):
    """TV of ``replicas`` chains' empirical distribution after 0..``k_max`` steps.

    Every replica holds its color vector padded with "no neighbor" (0) at
    both ends; a step draws one block of site uniforms (``floor(n u)``) and
    one block of color uniforms (inverse CDF over colors in index order),
    looks the CDF up by the two neighbors, and updates the rank by place
    value.  The CDFs come from :func:`neighbor_conditional`.
    """
    spec = kernel.spec
    n, num_colors, m = spec.n, spec.num_colors, spec.num_states
    pi = kernel.pi.weights
    neighbors = [None, *range(num_colors)]
    cdf = np.array(
        [
            [np.cumsum(neighbor_conditional(num_colors, spec.temp, left, right))
             for right in neighbors]
            for left in neighbors
        ]
    )
    places = num_colors ** np.arange(n - 1, -1, -1, dtype=np.int64)
    padded = np.zeros((replicas, n + 2), dtype=np.int64)
    padded[:, 1:-1] = (start // places) % num_colors + 1
    ranks = np.full(replicas, start, dtype=np.int64)
    rows = np.arange(replicas)
    rng = make_rng(seed)
    out = np.empty(k_max + 1)
    for k in range(k_max + 1):
        if k:
            sites = np.minimum((rng.random(replicas) * n).astype(np.int64), n - 1)
            u = rng.random(replicas)
            cdfs = cdf[padded[rows, sites], padded[rows, sites + 2]]
            colors = np.minimum((cdfs <= u[:, None]).sum(axis=1), num_colors - 1) + 1
            ranks += (colors - padded[rows, sites + 1]) * places[sites]
            padded[rows, sites + 1] = colors
        out[k] = 0.5 * np.abs(np.bincount(ranks, minlength=m) / replicas - pi).sum()
    return out
