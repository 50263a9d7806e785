"""Oracles for the kernel, its symmetrization and the congestion constant.

The kernel's are scalar: one state, one site, one step at a time.  They
score bonds with their own :func:`bond` and share no code with the
package's tables beyond ``make_rng``, whose stream the Monte Carlo oracle
must consume, so a test that compares the two checks the tables.  The congestion oracle sums every
directed edge's load from marginals of the enumerated ``pi`` and reads its
capacity off the kernel matrix, so it shares no code with the package's
neighbor-pattern formula; the witness oracles map each tied edge to its
pattern, or scan the pattern table one index at a time.  The
symmetrization oracle forms ``sqrt(P_xy P_yx)`` for all ``m`` rows from the
kernel matrix, with ``P_xx`` on the diagonal, where the package builds the
representatives' rows from the conditionals.  The edge-factor oracle sums the
proof's ``alpha + beta`` from bond scores, where the package reads ``alpha/p``
off the conditional table.  The kernel checks' oracles read the CSR matrix
with scipy, where the package reads the fixed-width row table with numpy.
The color-sector oracle projects the whole symmetrized matrix onto each
character space of the color group, where the package builds one sector of
each isospectral class from the representatives' rows.
The slice-identity oracle accumulates ``pi`` state by state and evaluates
the identities for one site and color pair from bond scores, where the
package sums the pair marginals of every site at once and weights them with
the edge-factor table.
"""

import itertools
import math

import numpy as np
from scipy.sparse.csgraph import connected_components

from spectral_gibbs import make_rng


def bond(u, v):
    """+1 when two neighboring colors agree, -1 when they disagree."""
    return 1 if u == v else -1


def csr_row_sum_error(kernel):
    """Largest ``|sum_y P(x, y) - 1|``, summed by the CSR matrix."""
    return float(np.abs(np.asarray(kernel.matrix.sum(axis=1)).ravel() - 1.0).max())


def csr_detailed_balance(kernel):
    """Largest ``|pi(x)P(x,y) - pi(y)P(y,x)| / max(pi(x)P(x,y), pi(y)P(y,x))``
    over the pairs with a nonzero flux, each read from the CSR flux matrix
    and its transpose."""
    flux = kernel.matrix.multiply(kernel.pi[:, None]).tocsr()
    rows, cols = flux.nonzero()
    if rows.size == 0:
        return 0.0
    forward = np.asarray(flux[rows, cols]).ravel()
    backward = np.asarray(flux.T.tocsr()[rows, cols]).ravel()
    return float((np.abs(forward - backward) / np.maximum(forward, backward)).max())


def csr_stationarity(kernel):
    """Largest ``|(pi P)_y - pi_y| / pi_y`` over ``pi_y > 0``, with ``P^T pi``
    a sparse product."""
    pi = kernel.pi
    held = pi > 0
    return float((np.abs(kernel.matrix.T @ pi - pi)[held] / pi[held]).max())


def csr_irreducible(kernel):
    """Whether the CSR sparsity pattern, explicit zeros included, is one
    connected component of the undirected graph."""
    count, _ = connected_components(kernel.matrix, directed=False)
    return int(count) == 1


def neighbor_conditional(num_colors, temp, left, right):
    """Color distribution of a site with neighbors ``left`` and ``right``.

    A missing neighbor is None.  Normalized by log-sum-exp over the bond
    scores, so small temperatures cannot overflow.
    """
    logits = [
        sum(bond(u, c) for u in (left, right) if u is not None) / temp
        for c in range(num_colors)
    ]
    top = max(logits)
    log_z = top + math.log(sum(math.exp(v - top) for v in logits))
    return [math.exp(v - log_z) for v in logits]


def edge_factors(num_colors, temp, left, right, color_from, color_to):
    """The proof's edge-local factors ``alpha`` and ``beta`` of the edge that
    recolors a site from ``c = color_from`` to ``c' = color_to`` between
    ``left`` and ``right`` (None for a missing neighbor, whose bond is 0).

    ``alpha = e^{(s(l,c') - s(l,c))/T}`` and
    ``beta = e^{(-s(l,c) - s(c',r))/T} sum_{c'' != c'} e^{(s(l,c'') + s(c'',r))/T}``,
    the sum taken in color order.
    """

    def score(u, c):
        return 0 if u is None else bond(u, c)

    alpha = math.exp((score(left, color_to) - score(left, color_from)) / temp)
    prefactor = math.exp((-score(left, color_from) - score(right, color_to)) / temp)
    others = sum(
        math.exp((score(left, c) + score(right, c)) / temp)
        for c in range(num_colors)
        if c != color_to
    )
    return alpha, prefactor * others


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


def stepwise_distributions(kernel, start, k_max):
    """Yield the distribution after 0, 1, ..., ``k_max`` steps from rank
    ``start``, one sparse step at a time and never stopping early."""
    transposed = kernel.matrix.T.tocsr()
    dist = np.zeros(kernel.dimension)
    dist[start] = 1.0
    yield dist
    for _ in range(k_max):
        dist = transposed @ dist
        yield dist


def symmetrize(kernel):
    """The whole ``sqrt(P_xy P_yx)`` of a kernel, as CSR, row and column
    order as in ``kernel.matrix``.

    Formed as the elementwise product of the matrix with its transpose, which
    drops the entries whose product underflowed to 0; the diagonal is then
    set to ``P_xx`` itself, which its square would lose where it underflows.

    Raises:
        ValueError: If the kernel violates detailed balance beyond 1e-9.
    """
    asymmetry = csr_detailed_balance(kernel)
    if asymmetry > 1e-9:
        raise ValueError(
            f"kernel is not reversible: detailed-balance asymmetry {asymmetry:.3e}"
        )
    sym = kernel.matrix.multiply(kernel.matrix.T).tocsr()
    np.sqrt(sym.data, out=sym.data)
    sym.setdiag(kernel.matrix.diagonal())
    return sym


def color_sector_spectra(kernel, klein):
    """Eigenvalues of the symmetrized kernel on each character space of a
    free color group, descending, one array per character ``k = 0..N-1``.

    With ``klein`` the group is the Klein four-group at N = 4, acting as
    ``c XOR j`` with characters ``(-1)^popcount(j & k)``; otherwise it is the
    cyclic shift ``c + j mod N`` with characters ``exp(2 pi i jk / N)``.  The
    projector onto character ``k`` is ``(1/N) sum_j conj(chi_k(j)) T_j``, with
    ``T_j`` the permutation of the states that translates every site's color
    by ``j``; ``eigh`` of the projector gives an orthonormal basis of its
    range, and the whole dense ``symmetrize`` restricted to that basis gives
    the sector's eigenvalues.  Dense in ``m``, so for a few hundred states.
    """
    num_colors = kernel.spec.num_colors
    colors = np.asarray(kernel.colors, dtype=np.int64)
    places = num_colors ** np.arange(kernel.spec.n - 1, -1, -1)
    sym = symmetrize(kernel).toarray()
    states = np.arange(kernel.dimension)
    spectra = []
    for k in range(num_colors):
        projector = np.zeros((kernel.dimension, kernel.dimension), dtype=complex)
        for j in range(num_colors):
            if klein:
                image, chi = colors ^ j, (-1) ** bin(j & k).count("1")
            else:
                image, chi = (colors + j) % num_colors, np.exp(2j * np.pi * j * k / num_colors)
            projector[states, image @ places] += np.conj(chi) / num_colors
        weights, vectors = np.linalg.eigh(projector)
        basis = vectors[:, weights > 0.5]
        spectra.append(np.linalg.eigvalsh(basis.conj().T @ sym @ basis)[::-1])
    return spectra


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
    pi = kernel.pi
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


def _marginal(p, sites):
    """Marginal of ``p`` (indexed by site colors) on ``sites``, kept broadcastable."""
    keep = set(sites)
    return p.sum(axis=tuple(k for k in range(p.ndim) if k not in keep), keepdims=True)


def _block_masses(p, block, others):
    """Mass agreeing with each state on ``block``, and that mass by mismatches.

    The second array sums, over ``j`` in ``others``, the part of the first
    that differs from the state at site ``j``.
    """
    agree = _marginal(p, block)
    mismatch = sum(
        (agree - _marginal(p, [*block, j]) for j in others), np.zeros_like(agree)
    )
    return agree, mismatch


def marginal_kappa_tables(kernel):
    """Load, capacity and ratio of every directed edge, from marginals of ``pi``.

    The tables are indexed ``[source rank, site - 1, target color]``; slots
    where the target color is the site's own color are no edge and hold
    zeros.  The canonical paths through the edge that recolors site ``i``
    of ``z`` to ``c'`` are those of the pairs ``x = (any x_{<i}, z_{>=i})``
    and ``y = (z_{<i}, c', any y_{>i})``, of length
    ``1 + #{j<i: x_j != z_j} + #{j>i: y_j != z_j}``.  So the load is
    ``B (A + D) + A E``: ``A`` and ``B`` are the marginals of ``pi`` on sites
    ``i..n`` at ``z_{>=i}`` and on sites ``1..i`` at ``(z_{<i}, c')``, and
    ``D`` and ``E`` sum, over each ``j``, the mass of the same marginals where
    site ``j`` disagrees with ``z``.  Costs ``O(n^2 N^n)``.
    """
    spec = kernel.spec
    m, n, num_colors = spec.num_states, spec.n, spec.num_colors
    pi = kernel.pi
    p = pi.reshape((num_colors,) * n)
    loads = np.empty((m, n, num_colors))
    for i in range(n):
        # Sources agree with z on sites i..n, targets on 1..i with site i at
        # c', which moves to a last axis.
        a, d = _block_masses(p, range(i, n), range(i))
        b, e = _block_masses(p, range(i + 1), range(i + 1, n))
        b, e = (np.swapaxes(arr[..., None], i, -1) for arr in (b, e))
        loads[:, i] = (b * (a + d)[..., None] + a[..., None] * e).reshape(m, num_colors)

    colors = kernel.colors.astype(np.int64)
    valid = colors[:, :, None] != np.arange(num_colors)
    places = num_colors ** np.arange(n - 1, -1, -1, dtype=np.int64)
    sources = np.arange(m, dtype=np.int64)[:, None, None]
    targets = sources + (np.arange(num_colors) - colors[:, :, None]) * places[:, None]
    sources = np.broadcast_to(sources, targets.shape)
    moves = np.asarray(kernel.matrix[sources.ravel(), targets.ravel()]).reshape(targets.shape)
    loads = np.where(valid, loads, 0.0)
    qs = np.where(valid, pi[:, None, None] * moves, 0.0)
    ratios = np.divide(loads, qs, out=np.zeros_like(loads), where=valid)
    return loads, qs, ratios


def marginal_witness(kernel, ratios, rtol):
    """Site, colors and neighbors of the edge within ``rtol`` of the largest
    ratio whose pattern ``[site - 1, left + 1, right + 1, color_from,
    color_to]`` (0 for no neighbor) comes first in row-major order."""
    n = kernel.spec.n

    def pattern(rank, i, color_to):
        state = [int(c) for c in kernel.colors[rank]]
        left = state[i - 1] + 1 if i >= 1 else 0
        right = state[i + 1] + 1 if i + 1 < n else 0
        return i, left, right, state[i], color_to

    tied = np.argwhere(ratios >= (1 - rtol) * ratios.max()).tolist()
    i, left, right, color_from, color_to = min(pattern(*k) for k in tied)
    return {
        "site": i + 1,
        "color_from": color_from,
        "color_to": color_to,
        "left": left - 1 if left else None,
        "right": right - 1 if right else None,
    }


def pattern_witness(patterns, rtol):
    """The first index, in ``np.ndindex`` order, of a pattern within ``rtol``
    of the largest ratio."""
    cutoff = (1 - rtol) * patterns.max()
    return next(list(k) for k in np.ndindex(patterns.shape) if patterns[k] >= cutoff)


def slice_pair_table(kernel):
    """``pair[i - 1, u, v]``, the measure of ``{w : w_i = u, w_{i+1} = v}``,
    accumulated state by state over the states in rank order."""
    spec = kernel.spec
    n, num_colors = spec.n, spec.num_colors
    pair = np.zeros((max(n - 1, 0), num_colors, num_colors))
    states = itertools.product(range(num_colors), repeat=n)
    for weight, state in zip(kernel.pi, states):
        for i in range(n - 1):
            pair[i, state[i], state[i + 1]] += weight
    return pair


def slice_identities(spec, pair, site, color_from, color_to):
    """The slice identities at 1-based ``site`` for one color pair, from a
    :func:`slice_pair_table`.

    Returns the slice sums ``W^(k)`` (a list by ``k``), the worst
    ``|W^(from) - e^{2/T} W^(k)|`` over ``k != color_from``, the total's
    error ``|sum_k W^(k) - 1/N|``, ``a_prime`` and ``b_prime`` (None at
    site 1), each weighted sum taken term by term in color order.
    """
    num_colors, temp = spec.num_colors, spec.temp

    def change(neighbor, before, after):
        gain = bond(neighbor, after) - bond(neighbor, before)
        return math.exp(gain / temp)

    slices = [float(w) for w in pair[site - 1, color_from]]
    scale = math.exp(2.0 / temp)
    agree_error = max(
        abs(slices[color_from] - scale * slices[k])
        for k in range(num_colors)
        if k != color_from
    )
    a_prime = sum(
        slices[k] * change(k, color_from, color_to) for k in range(num_colors)
    )
    b_prime = None
    if site >= 2:
        b_prime = sum(
            pair[site - 2, u, color_to] * change(u, color_to, color_from)
            for u in range(num_colors)
        )
    return {
        "w_slice_sums": slices,
        "agree_error": agree_error,
        "total_error": abs(sum(slices) - 1.0 / num_colors),
        "a_prime": a_prime,
        "b_prime": b_prime,
    }
