"""Oracles for the kernel, its symmetrization and the congestion constant.

The kernel's are scalar: one state, one site, one step at a time.  They
score bonds with their own :func:`bond` and share no code with the
package's tables beyond ``make_rng``, whose stream the Monte Carlo oracle
must consume, so a test that compares the two checks the tables.  The congestion oracle sums every
directed edge's load from marginals of the enumerated ``pi`` and reads its
capacity off the kernel matrix, so it shares no code with the package's
neighbor-pattern formula; the witness oracles map each tied edge to its
pattern, or scan the pattern table one index at a time.  That table holds
every site, where the package keeps three slabs of it; its site sums are
40-digit running sums of the path-length terms, rounded once per site,
where the package reads three of them from their closed form, so it checks
the closed form and the three-slab factoring, and the marginal oracle
checks the formula.  The symmetrization oracle forms ``sqrt(P_xy P_yx)``
for all ``m`` rows from the
kernel matrix, with ``P_xx`` on the diagonal, where the package builds the
representatives' rows from the conditionals.  The edge-factor oracle sums the
proof's ``alpha + beta`` from bond scores, where the package reads ``alpha/p``
off the conditional table.  The kernel checks' oracles read the CSR matrix
with scipy, where the package reads the fixed-width row table with numpy.
The color-sector oracle projects the whole symmetrized matrix onto each
character space of the color group, where the package builds one sector of
each isospectral class from the representatives' rows; at N = 4 it also
projects the trivial Klein sector onto the characters of the color 3-cycle
and the halves of the color reflection, which the package splits in the
representatives' basis.
The two-color oracle lists all ``2^n`` eigenvalues of the N = 2 kernel as
the free-fermion subset sums, where the package keeps only the least
nonempty sum and the whole one.  The closed-form floor on the least
eigenvalue and the ``n > N / sqrt(2)`` gate of the paper's corollary are
the comparison quantities the package dropped once ``P >= 0`` made them
vacuous; the acceptance tests still check them.
The partition-function oracle sums ``exp(H/T)`` over every enumerated state,
where the package evaluates the transfer-matrix closed form.
The slice-identity oracle accumulates ``pi`` state by state and evaluates
the identities for one site and color pair from bond scores, where the
package sums the pair marginals of every site at once and weights them with
the edge-factor table.
"""

import functools
import itertools
import math

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from spectral_gibbs import boundary_edge_bound, make_rng
from spectral_gibbs.model import ROUNDING_TOLERANCE
from spectral_gibbs.paths import _edge_factors


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


@functools.lru_cache(maxsize=1)
def state_energies(n, num_colors):
    """The Hamiltonian of every color vector, in rank order, one state at a
    time from bond scores; the last chain's are kept for its temperatures."""
    return tuple(
        sum(bond(u, v) for u, v in zip(colors, colors[1:]))
        for colors in itertools.product(range(num_colors), repeat=n)
    )


def log_partition(spec):
    """``log Z`` as a log-sum-exp over the enumerated energies, shifted by the
    largest log weight and summed exactly rounded by ``math.fsum``."""
    logits = [e / spec.temp for e in state_energies(spec.n, spec.num_colors)]
    top = max(logits)
    return top + math.log(math.fsum(math.exp(v - top) for v in logits))


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


def _character_projector(kernel, images, chars):
    """The projector ``(1/|G|) sum_g conj(chi(g)) T_g`` onto a character
    space of a group of color maps, dense in ``m``.

    ``images[g]`` is the color table with the map ``g`` applied to every
    site, and ``T_g`` the permutation of the states that it makes.
    """
    places = kernel.spec.num_colors ** np.arange(kernel.spec.n - 1, -1, -1)
    states = np.arange(kernel.dimension)
    projector = np.zeros((kernel.dimension, kernel.dimension), dtype=complex)
    for image, chi in zip(images, chars):
        projector[states, image @ places] += np.conj(chi) / len(images)
    return projector


def _projected_spectrum(sym, projector):
    """Eigenvalues of ``sym`` on the range of a projector, descending:
    ``eigh`` of the projector gives an orthonormal basis of its range."""
    weights, vectors = np.linalg.eigh(projector)
    basis = vectors[:, weights > 0.5]
    return np.linalg.eigvalsh(basis.conj().T @ sym @ basis)[::-1]


def color_sector_spectra(kernel, klein):
    """Eigenvalues of the symmetrized kernel on each character space of a
    free color group, descending, one array per character ``k = 0..N-1``.

    With ``klein`` the group is the Klein four-group at N = 4, acting as
    ``c XOR j`` with characters ``(-1)^popcount(j & k)``; otherwise it is the
    cyclic shift ``c + j mod N`` with characters ``exp(2 pi i jk / N)``.  The
    projector onto character ``k`` is ``(1/N) sum_j conj(chi_k(j)) T_j``, with
    ``T_j`` the permutation of the states that translates every site's color
    by ``j``; the whole dense ``symmetrize`` restricted to an orthonormal
    basis of its range gives the sector's eigenvalues.  Dense in ``m``, so
    for a few hundred states.
    """
    num_colors = kernel.spec.num_colors
    colors = np.asarray(kernel.colors, dtype=np.int64)
    sym = symmetrize(kernel).toarray()
    spectra = []
    for k in range(num_colors):
        if klein:
            images = [colors ^ j for j in range(num_colors)]
            chars = [(-1) ** bin(j & k).count("1") for j in range(num_colors)]
        else:
            images = [(colors + j) % num_colors for j in range(num_colors)]
            chars = [np.exp(2j * np.pi * j * k / num_colors) for j in range(num_colors)]
        spectra.append(_projected_spectrum(sym, _character_projector(kernel, images, chars)))
    return spectra


def klein_sector_zero_spectra(kernel):
    """At N = 4, the eigenvalues of the symmetrized kernel on parts of the
    trivial Klein sector, descending: ``(cycle, halves, trivial_halves)``.

    ``cycle[k3]`` is the part where the color 3-cycle ``(1 2 3)`` acts as
    ``omega^k3``, ``omega = exp(2 pi i / 3)``; ``halves`` are the
    reflection-even and reflection-odd parts, under the swap ``(1 3)``; and
    ``trivial_halves`` the two halves of ``cycle[0]``.  Each projector is
    the product of the Klein sector-0 projector of
    :func:`color_sector_spectra` with those of the 3-cycle's characters and
    of the reflection, which commute with it.
    """
    colors = np.asarray(kernel.colors, dtype=np.int64)
    sym = symmetrize(kernel).toarray()
    klein = _character_projector(kernel, [colors ^ j for j in range(4)], [1] * 4)
    cycled = [colors, np.array([0, 2, 3, 1])[colors], np.array([0, 3, 1, 2])[colors]]
    reflected = [colors, np.array([0, 3, 2, 1])[colors]]
    cycle = [
        klein @ _character_projector(kernel, cycled, np.exp(2j * np.pi * k3 * np.arange(3) / 3))
        for k3 in range(3)
    ]
    halves = [klein @ _character_projector(kernel, reflected, [1, sign]) for sign in (1, -1)]
    trivial_halves = [cycle[0] @ half for half in halves]
    return tuple(
        [_projected_spectrum(sym, projector) for projector in group]
        for group in (cycle, halves, trivial_halves)
    )


def two_color_eigenvalues(spec):
    """The ``2^n`` eigenvalues of the N = 2 kernel, descending.

    Each is ``1 - sum_{j in J} (1 - alpha_j) / n`` over a subset ``J``, with
    ``alpha`` the eigenvalues of the tridiagonal ``A`` of the ``spectral``
    module docstring; the subset sums are built by doubling, one site at a
    time.
    """
    n = spec.n
    coupling = np.full(n, math.tanh(2.0 / spec.temp) / 2)
    coupling[[0, -1]] = math.tanh(1.0 / spec.temp)
    hop = np.sqrt(coupling[:-1]) * np.sqrt(coupling[1:])
    alpha = np.linalg.eigvalsh(np.diag(hop, 1) + np.diag(hop, -1))
    sums = np.zeros(1)
    for step in (1.0 - alpha) / n:
        sums = np.concatenate([sums, sums + step])
    return np.sort(1.0 - sums)[::-1]


def ingrassia_lambda_min_bound(num_colors, temp):
    """Lower bound ``-1 + 2 / (1 + (N-1) e^{2/T})`` for the smallest eigenvalue."""
    if num_colors < 2 or not temp > 0:
        raise ValueError("need num_colors >= 2, temp > 0")
    try:
        return -1.0 + 2.0 / (1.0 + (num_colors - 1) * math.exp(2.0 / temp))
    except OverflowError:
        # e^{2/T} is past the float range, so the bound rounds to -1.
        return -1.0


def corollary_gate(n, num_colors):
    """Whether ``n > N / sqrt(2)``, the regime where the paper's corollary
    has its second-eigenvalue bound also dominate ``max(beta1, |beta_min|)``."""
    return n > num_colors / math.sqrt(2.0)


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
    value.  The CDFs come from :func:`neighbor_conditional`.  The TV is the
    positive part of half the L1 distance, ``sum_x max(c_x / R - pi_x, 0)``
    over every rank in ascending order, added one by one (an unvisited
    rank adds 0), and at most 1.
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
        excess = np.maximum(np.bincount(ranks, minlength=m) / replicas - pi, 0.0)
        total = 0.0
        for term in excess.tolist():
            total += term
        out[k] = min(total, 1.0)
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


def _slab(site, n):
    """The slab of a 0-based site: 0 at site 1, 2 at site n, 1 between."""
    return 0 if site == 0 else 2 if site == n - 1 else 1


def _witness_site(slab, n):
    """The 0-based site that names a witness of ``slab``: site 1, the middle
    site ``(n + 1) // 2``, where every interior load peaks, or site n."""
    return (0, (n - 1) // 2, n - 1)[slab]


def marginal_witness(kernel, ratios, rtol):
    """Site, colors and neighbors of the witness among the edges within
    ``rtol`` of the largest ratio: the least ``[slab, left + 1, right + 1,
    color_from, color_to]`` (0 for no neighbor) in row-major order, where
    the slab is 0 at site 1, 2 at site n and 1 between, named at site 1,
    the middle site or site n."""
    n = kernel.spec.n

    def pattern(rank, i, color_to):
        state = [int(c) for c in kernel.colors[rank]]
        left = state[i - 1] + 1 if i >= 1 else 0
        right = state[i + 1] + 1 if i + 1 < n else 0
        return _slab(i, n), left, right, state[i], color_to

    tied = np.argwhere(ratios >= (1 - rtol) * ratios.max()).tolist()
    slab, left, right, color_from, color_to = min(pattern(*k) for k in tied)
    return {
        "site": _witness_site(slab, n) + 1,
        "color_from": color_from,
        "color_to": color_to,
        "left": left - 1 if left else None,
        "right": right - 1 if right else None,
    }


@functools.lru_cache(maxsize=None)
def _far_sums(n, num_colors, temp):
    """``far[k]``, the worst path-length terms ``1 - 1/N + rho^d/N`` at
    distances ``d = 2..k`` for ``k < n``, summed one term at a time in
    40-digit arithmetic and rounded once per site."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        x = mp.mpf(2) / mp.mpf(temp)
        rho = mp.expm1(x) / (mp.exp(x) + num_colors - 1)
        far, total, power = [0.0] * n, mp.mpf(0), rho
        for k in range(2, n):
            power *= rho
            total += 1 - mp.mpf(1) / num_colors + power / num_colors
            far[k] = float(total)
    far = np.array(far)
    far.flags.writeable = False
    return far


def pattern_table(spec):
    """The worst ratio of every neighbor pattern at every site, indexed
    ``[site - 1, left + 1, right + 1, color_from, color_to]`` (0 for no
    neighbor, zeros where no edge fits): ``n (N+1)^2 N^2`` floats, each
    from its site's :func:`_far_sums`."""
    alpha, cond = _edge_factors(spec)
    n, num_colors, t = spec.n, spec.num_colors, spec.temp
    e = math.exp(2.0 / t)
    far = _far_sums(n, num_colors, t)
    near = np.full((num_colors + 1, num_colors), 1.0 - 1.0 / (e + num_colors - 1))
    near[0] = 0.0
    np.fill_diagonal(near[1:], (num_colors - 1) / (e + num_colors - 1))
    patterns = (1.0 + far + far[::-1])[:, None, None, None, None]
    patterns = patterns + near[:, None, :, None] + near[None, :, None, :]
    patterns *= n / num_colors * alpha / cond
    patterns[..., range(num_colors), range(num_colors)] = 0.0
    patterns[1:, 0] = patterns[:-1, :, 0] = 0.0
    patterns[0, 1:] = patterns[-1, :, 1:] = 0.0
    return patterns


def pattern_slabs(patterns):
    """Site 1, the largest ratio of each pattern over the interior sites
    (zeros at n <= 2), and site n of a :func:`pattern_table`."""
    interior = patterns[1:-1].max(axis=0, initial=0.0)
    return np.stack([patterns[0], interior, patterns[-1]])


def pattern_kappa(patterns, rtol):
    """Kappa, the witness ``[site - 1, left + 1, right + 1, color_from,
    color_to]`` and its ratio, from a :func:`pattern_table`.  Of the entries
    within ``rtol`` of the largest ratio, the witness is the least pattern
    of the first slab (site 1, the interior, site n) that holds one, named
    at :func:`_witness_site` with the pattern's largest ratio in that slab."""
    n = len(patterns)
    kappa = patterns.max()
    tied = np.argwhere(patterns >= (1 - rtol) * kappa).tolist()
    slab, *pattern = min([_slab(site, n), *rest] for site, *rest in tied)
    sites = [site for site in range(n) if _slab(site, n) == slab]
    ratio = patterns[(sites, *pattern)].max()
    return kappa, [_witness_site(slab, n), *pattern], ratio


def pattern_certificates(spec, patterns):
    """``min_slack``, the bound it is the slack of, and ``all_passed`` of
    every site of a :func:`pattern_table` against its per-edge bound."""
    n, num_colors = spec.n, spec.num_colors
    alpha, cond = _edge_factors(spec)
    bounds = np.full(patterns.shape, boundary_edge_bound(spec))
    bounds[1:-1, 1:, 1:] = (n * n / num_colors) * (alpha / cond)[1:, 1:]
    slack = np.where(patterns > 0, bounds - patterns, np.inf)
    least = np.unravel_index(np.argmin(slack), slack.shape)
    return slack[least], bounds[least], bool(np.all(slack >= -ROUNDING_TOLERANCE * bounds))


def pattern_witness(patterns, rtol):
    """The witness of a :func:`pattern_table`, found one pattern at a time:
    slab by slab (site 1, the interior, site n), the first index in
    ``np.ndindex`` order that one of the slab's sites holds within ``rtol``
    of the largest ratio, named at :func:`_witness_site`."""
    n = len(patterns)
    cutoff = (1 - rtol) * patterns.max()
    for slab, sites in enumerate([[0], list(range(1, n - 1)), [n - 1]]):
        for k in np.ndindex(patterns.shape[1:]):
            if (patterns[(sites, *k)] >= cutoff).any():
                return [_witness_site(slab, n), *k]


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
