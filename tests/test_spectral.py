"""Exact spectra from the symmetry blocks of the symmetrized kernel.

The package builds only the rows of the representatives; the full-matrix
``symmetrize`` oracle and a dense solve of the whole matrix check them.
"""

import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from conftest import grid_specs, kernel_for, spectrum_for
from oracles import color_sector_spectra, glauber_beta1, symmetrize

from spectral_gibbs import (
    BudgetExceededError,
    ModelSpec,
    Spectrum,
    SparseKernel,
    build_kernel,
    check_detailed_balance,
    spectrum,
    stationary_measure,
)
from spectral_gibbs import cli
from spectral_gibbs.model import colors_table
from spectral_gibbs.spectral import _color_group, _representative_rows, _sector_blocks


def test_single_site_spectrum():
    # one site: the kernel is the rank-one projector onto the uniform law
    spec = ModelSpec(1, 3, 1.0)
    spect = spectrum_for(spec)
    assert np.allclose(spect.eigenvalues, [1.0, 0.0, 0.0], atol=1e-12)
    assert abs(spect.beta1) <= 1e-12
    assert abs(spect.beta_star) <= 1e-12


def test_two_site_spectrum_analytic():
    # Hand eigendecomposition of the 4-state chain at T=1.  Split by the
    # site-swap symmetry: the antisymmetric vector (0,1,-1,0) has eigenvalue
    # q, and the symmetric 3x3 block [[p,q,0],[p/2,q,p/2],[0,q,p]] has
    # eigenvalues {1, p, 0} (eigenvector (q,-p,q) for 0).  The multiset
    # {1, p, q, 0} also matches trace(P) = 2(p+q) = 2.
    spec = ModelSpec(2, 2, 1.0)
    spect = spectrum_for(spec)
    p = math.e / (math.e + 1 / math.e)
    q = 1 - p
    assert np.allclose(spect.eigenvalues, [1.0, p, q, 0.0], atol=1e-12)
    assert math.isclose(spect.beta1, p, abs_tol=1e-12)
    assert math.isclose(spect.beta_star, p, abs_tol=1e-12)


def test_two_site_high_temp_limit():
    spect = spectrum_for(ModelSpec(2, 2, 1e9))
    assert np.allclose(spect.eigenvalues, [1.0, 0.5, 0.5, 0.0], atol=1e-6)


def mpmath_spectrum(n, colors, temp):
    """40-digit eigenvalues of the symmetrized kernel, descending, built from
    scratch with mpmath."""
    import mpmath as mp

    mp.mp.dps = 40
    states = list(itertools.product(range(colors), repeat=n))

    def score(u, v):
        return 1 if u == v else -1

    w = [mp.e ** (mp.mpf(sum(score(x[k], x[k + 1]) for k in range(n - 1))) / temp) for x in states]
    z = mp.fsum(w)
    pi = [wi / z for wi in w]

    def cond(x, i, c):
        vals = []
        for col in range(colors):
            s = 0
            if i > 0:
                s += score(x[i - 1], col)
            if i < n - 1:
                s += score(x[i + 1], col)
            vals.append(mp.e ** (mp.mpf(s) / temp))
        return vals[c] / mp.fsum(vals)

    m = len(states)
    mat = mp.zeros(m, m)
    for a, x in enumerate(states):
        for i in range(n):
            for c in range(colors):
                y = list(x)
                y[i] = c
                b = states.index(tuple(y))
                mat[a, b] += cond(x, i, c) / n
    sym = mp.zeros(m, m)
    for a in range(m):
        for b in range(m):
            sym[a, b] = mp.sqrt(pi[a]) * mat[a, b] / mp.sqrt(pi[b])
    return sorted((float(e) for e in mp.eigsy(sym, eigvals_only=True)), reverse=True)


def test_spectrum_against_high_precision_oracle():
    pytest.importorskip("mpmath")
    # (3,3,1) checks the symmetry blocks, (4,2,0.5) the N = 2 closed form.
    for spec in (ModelSpec(3, 3, 1.0), ModelSpec(4, 2, 0.5)):
        reference = mpmath_spectrum(spec.n, spec.num_colors, spec.temp)
        spect = spectrum_for(spec)
        diff = max(abs(a - b) for a, b in zip(spect.eigenvalues, reference))
        assert diff <= 1e-10, spec


@pytest.mark.parametrize(
    "spec",
    [ModelSpec(2, 3, 0.5), ModelSpec(3, 2, 2.0), ModelSpec(3, 3, 1.0), ModelSpec(4, 2, 0.5)],
)
def test_spectrum_invariants(spec):
    kern = kernel_for(spec)
    spect = spectrum_for(spec)
    eigs = spect.eigenvalues
    assert len(eigs) == spec.num_states
    assert abs(eigs[0] - 1.0) <= 1e-10
    assert np.all(np.diff(eigs) <= 1e-14)
    assert eigs[-1] > -1.0
    assert eigs[1] <= 1.0
    # trace identity ties the spectrum back to the holding probabilities
    trace = kern.matrix.diagonal().sum()
    assert math.isclose(eigs.sum(), trace, abs_tol=1e-9)
    assert spect.beta1 == eigs[1]
    assert spect.beta_min == eigs[-1]
    assert spect.beta_star == max(spect.beta1, abs(spect.beta_min))


def test_symmetrize_is_symmetric():
    kern = kernel_for(ModelSpec(3, 2, 1.0))
    sym = symmetrize(kern).toarray()
    assert np.abs(sym - sym.T).max() <= 1e-12
    # similarity preserves the spectrum of the dense kernel
    direct = np.sort(np.linalg.eigvals(kern.matrix.toarray()).real)
    assert np.allclose(np.sort(np.linalg.eigvalsh(sym)), direct, atol=1e-9)


# (3,2,0.005): holding probabilities and moves whose products underflow.
@pytest.mark.parametrize(
    "spec",
    grid_specs()
    + [ModelSpec(3, 2, 0.005), ModelSpec(4, 5, 0.3), ModelSpec(2, 26, 1.0)]
    + [ModelSpec(4, 6, 1.0)],
    ids=str,
)
def test_representative_rows_match_symmetrize_oracle(spec):
    # Bitwise, in CSR order, so every block sums the same terms in the same
    # order as one assembled from the full matrix.
    kern = kernel_for(spec)
    reps = spec.num_states // spec.num_colors
    row, targets, values = _representative_rows(spec, kern.colors[:reps])
    oracle = symmetrize(kern)[:reps]
    assert np.all(np.diff(row * spec.num_states + targets) > 0)
    # The oracle drops the entries whose product underflowed to 0.
    kept = values != 0
    assert np.array_equal(np.bincount(row[kept], minlength=reps), np.diff(oracle.indptr))
    assert np.array_equal(targets[kept], oracle.indices)
    assert values[kept].tobytes() == oracle.data.tobytes()


@pytest.mark.parametrize("spec", grid_specs() + [ModelSpec(3, 2, 0.005)], ids=str)
def test_representative_diagonal_is_holding_probability(spec):
    # At (3,2,0.005) the state aba holds with probability 1.28e-174, whose
    # square underflows to 0.
    kern = kernel_for(spec)
    reps = spec.num_states // spec.num_colors
    row, targets, values = _representative_rows(spec, kern.colors[:reps])
    holding = kern.matrix.diagonal()[:reps]
    assert values[row == targets].tobytes() == holding.tobytes()


def dense_spectrum_oracle(kernel):
    """Descending eigenvalues of the whole dense ``D^{1/2} P D^{-1/2}``."""
    sqrt_pi = np.sqrt(kernel.pi)
    dense = kernel.matrix.toarray() * sqrt_pi[:, None] / sqrt_pi[None, :]
    return scipy.linalg.eigvalsh(dense)[::-1]


# (4,5,1) and (2,26,1): odd N with two complex sectors, and the largest N;
# (5,3,0.3) and (4,5,0.3): complex sectors below the grid's temperatures;
# (4,6,1): the reflection splits the real sector N/2; (3,7,1): three complex
# sectors; (7,2,0.5): n past the grid.
@pytest.mark.parametrize(
    "spec",
    grid_specs()
    + [ModelSpec(7, 3, 1.0), ModelSpec(4, 5, 1.0), ModelSpec(2, 26, 1.0)]
    + [ModelSpec(5, 3, 0.3), ModelSpec(4, 5, 0.3), ModelSpec(7, 2, 0.5)]
    + [ModelSpec(4, 6, 1.0), ModelSpec(3, 7, 1.0)],
    ids=str,
)
def test_sector_spectrum_matches_dense_oracle(spec):
    blocks = spectrum_for(spec).eigenvalues
    oracle = dense_spectrum_oracle(kernel_for(spec))
    assert blocks.shape == oracle.shape
    assert np.abs(blocks - oracle).max() <= 1e-12


@pytest.mark.parametrize(
    "spec",
    grid_specs(max_states=1024)
    + [ModelSpec(4, 5, 1.0), ModelSpec(2, 26, 1.0), ModelSpec(4, 6, 1.0)],
    ids=str,
)
def test_reversal_halves_split_each_sector(spec):
    reps = spec.num_states // spec.num_colors
    blocks = list(_sector_blocks(spec, kernel_for(spec).colors[:reps]))
    translate, _, sectors = _color_group(spec.num_colors)
    assert {sector for sector, _, _ in blocks} == {k for k, _, _ in sectors}
    for k, chi, _ in sectors:
        sizes = [block.shape[0] for sector, block, _ in blocks if sector == k]
        real = not np.iscomplexobj(chi)
        assert 1 <= len(sizes) <= (4 if real else 2) and sum(sizes) == reps
    assert sum(block.shape[0] * mult for _, block, mult in blocks) == spec.num_states
    for _, block, _ in blocks:
        assert type(block) is np.ndarray and block.dtype == np.float64
        assert block.ndim == 2 and block.shape[0] == block.shape[1]
    # The first block of sector 0 holds the functions that the color group
    # (XOR at N = 4, the shift otherwise), the site reversal and the color
    # reflection all fix: one dimension per orbit of the three.
    table = colors_table(spec).astype(np.int64)
    images = [translate(table, j) for j in range(spec.num_colors)]
    images += [(-image) % spec.num_colors for image in images]
    images += [image[:, ::-1] for image in images]
    places = spec.num_colors ** np.arange(spec.n - 1, -1, -1)
    orbits = np.unique(np.min([image @ places for image in images], axis=0))
    assert blocks[0][0] == 0 and blocks[0][1].shape[0] == orbits.size


# N = 4: the Klein four-group.  N = 5, 6 and 7: the cyclic shift, whose
# sectors merge by gcd(k, N) at N = 5 and 7 and keep their count at N = 6.
@pytest.mark.parametrize(
    "spec",
    [ModelSpec(n, 4, temp) for n in range(1, 5) for temp in (0.3, 1.0, 5.0)]
    + [ModelSpec(n, colors, temp) for n, colors in ((3, 5), (2, 6), (3, 6), (2, 7))
       for temp in (0.3, 1.0)],
    ids=str,
)
def test_color_sectors_match_projection_oracle(spec):
    # Sectors 1, 2 and 3 of the Klein four-group are isospectral, and so are
    # the cyclic sectors of one gcd(k, N), since multiplying every color by
    # a unit mod N maps sector k to sector a k.  The package solves one
    # sector per class and counts it once per member.
    num_colors = spec.num_colors
    klein = num_colors == 4
    sectors = color_sector_spectra(kernel_for(spec), klein)
    solved_for = [min(k, 1) if klein else math.gcd(k, num_colors) % num_colors
                  for k in range(num_colors)]
    for k, least in enumerate(solved_for):
        assert np.abs(sectors[k] - sectors[least]).max() <= 1e-12, k
    union = np.sort(np.concatenate(sectors))[::-1]
    assert np.abs(spectrum_for(spec).eigenvalues - union).max() <= 1e-12
    reps = spec.num_states // num_colors
    blocks = list(_sector_blocks(spec, kernel_for(spec).colors[:reps]))
    assert {sector: mult for sector, _, mult in blocks} == Counter(solved_for)
    for k in set(solved_for):
        solved = [np.linalg.eigvalsh(block) for sector, block, _ in blocks if sector == k]
        solved = np.sort(np.concatenate(solved))[::-1]
        assert np.abs(solved - sectors[k]).max() <= 1e-12, k


@pytest.mark.parametrize(
    "spec",
    [ModelSpec(n, 2, temp) for n in range(1, 13) for temp in (0.3, 0.5, 1.0, 2.0, 5.0)],
    ids=str,
)
def test_two_color_closed_form_matches_dense_and_blocks(spec):
    # The closed form reads neither the kernel's rows nor the blocks, so both
    # check it: the dense solve of the whole symmetrized kernel, and the
    # symmetry blocks, which stay general in N and are otherwise unused at
    # N = 2.
    kern = kernel_for(spec)
    closed = spectrum_for(spec).eigenvalues
    dense = np.linalg.eigvalsh(symmetrize(kern).toarray())[::-1]
    reps = spec.num_states // 2
    blocks = _sector_blocks(spec, kern.colors[:reps])
    sectors = np.sort(np.concatenate([np.linalg.eigvalsh(b) for _, b, _ in blocks]))[::-1]
    assert closed.shape == dense.shape == sectors.shape
    assert np.abs(closed - dense).max() <= 1e-13
    assert np.abs(closed - sectors).max() <= 1e-13


@pytest.mark.parametrize("n", range(2, 13))
def test_two_color_beta1_matches_glauber(n):
    for temp in (0.3, 0.5, 1.0, 2.0, 5.0):
        spect = spectrum(build_kernel(ModelSpec(n, 2, temp)))
        assert abs(spect.beta1 - glauber_beta1(n, temp)) <= 1e-13


def test_spectrum_finite_at_low_temperature():
    # sqrt(pi) underflows to 0 here, so the spectrum must not divide by it.
    spect = spectrum(build_kernel(ModelSpec(3, 2, 0.005)))
    assert np.all(np.isfinite(spect.eigenvalues))
    assert abs(spect.eigenvalues[0] - 1.0) <= 1e-12


def test_symmetrize_rejects_non_reversible(monkeypatch, capsys):
    # The row table of P = [[0.2, 0.8], [0.6, 0.4]]: each row holds the
    # state itself, then its one move.
    spec = ModelSpec(1, 2, 1.0)
    colors = colors_table(spec)
    pi, log_z = stationary_measure(spec, colors)
    cols = np.array([[0, 1], [1, 0]])
    data = np.array([[0.2, 0.8], [0.4, 0.6]])
    kern = SparseKernel(
        spec=spec, colors=colors, pi=pi, log_z=log_z, cols=cols, data=data
    )
    with pytest.raises(ValueError, match="reversib"):
        symmetrize(kern)
    # The spectrum is built from the conditionals, not from this matrix, so
    # verify's detailed-balance check is what catches it.
    assert check_detailed_balance(kern) > 1e-12
    monkeypatch.setattr(cli, "build_kernel", lambda spec: kern)
    assert cli.main(["verify", "--n", "1", "--colors", "2", "--temp", "1"]) == 1
    assert "FAIL detailed-balance" in capsys.readouterr().out.splitlines()[1]


def test_spectrum_ignores_corrupted_row_table():
    # Halve the moves out of the least likely state, a representative whose
    # row the spectrum would read if it took the rows off the kernel's table,
    # and hold it the more.  verify's checks see the corruption; the
    # spectrum, built from the conditionals, is bitwise that of the true kernel.
    kern = kernel_for(ModelSpec(6, 4, 0.3))
    least = int(np.argmin(kern.pi))
    reps = kern.dimension // kern.spec.num_colors
    assert least < reps
    data = kern.data.copy()
    data[least, 1:] /= 2
    data[least, 0] += data[least, 1:].sum()
    halved = dataclasses.replace(kern, data=data)
    assert check_detailed_balance(halved) == pytest.approx(0.5, abs=1e-12)
    expected = spectrum(kern).eigenvalues.tobytes()
    assert spectrum(halved).eigenvalues.tobytes() == expected
    # The spectrum reads the color table only below rank m/N, the
    # representatives: scrambling every row from there on changes nothing.
    colors = kern.colors.copy()
    rng = np.random.default_rng(5)
    colors[reps:] = rng.integers(kern.spec.num_colors, size=colors[reps:].shape)
    assert not np.array_equal(colors, kern.colors)
    scrambled = dataclasses.replace(kern, colors=colors)
    assert spectrum(scrambled).eigenvalues.tobytes() == expected


def test_spectrum_budget():
    kern = build_kernel(ModelSpec(13, 2, 1.0))  # 8192 states, build is fine
    with pytest.raises(BudgetExceededError, match="4096"):
        spectrum(kern)


def test_beta_star_prefers_negative_mass():
    # beta1, beta_min and beta_star are read off the eigenvalues
    spect = Spectrum(eigenvalues=np.array([1.0, 0.3, -0.7]))
    assert (spect.beta1, spect.beta_min, spect.beta_star) == (0.3, -0.7, 0.7)
    assert Spectrum(eigenvalues=np.array([1.0, 0.3, -0.2])).beta_star == 0.3

