"""Exact spectra from the symmetry blocks of the symmetrized kernel.

The package builds only the rows of the representatives; the full-matrix
``symmetrize`` oracle and a dense solve of the whole matrix check them.
``spectrum`` keeps only ``beta1``, so the whole multiset is rebuilt here from
the blocks, each counted for its class, and at N = 2 from the subset sums of
the two-color oracle.
"""

import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from conftest import block_eigenvalues, full_spectrum, grid_specs, kernel_for, spectrum_for
from oracles import color_sector_spectra, glauber_beta1, klein_sector_zero_spectra
from oracles import symmetrize, two_color_eigenvalues

from spectral_gibbs import (
    BudgetExceededError,
    ModelSpec,
    PrecisionLimitError,
    SparseKernel,
    Spectrum,
    build_kernel,
    check_detailed_balance,
    spectrum,
    stationary_measure,
)
from spectral_gibbs import cli, spectral
from spectral_gibbs.model import EIGENVALUE_TOLERANCE, colors_table
from spectral_gibbs.spectral import _color_group
from spectral_gibbs.spectral import SectorPlan


def test_single_site_spectrum():
    # one site: the kernel is the rank-one projector onto the uniform law
    spec = ModelSpec(1, 3, 1.0)
    spect = spectrum_for(spec)
    assert np.allclose(full_spectrum(spec), [1.0, 0.0, 0.0], atol=1e-12)
    assert spect.beta1 == 0.0


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
    assert np.allclose(full_spectrum(spec), [1.0, p, q, 0.0], atol=1e-12)
    assert np.allclose(block_eigenvalues(spec), [1.0, p, q, 0.0], atol=1e-12)
    assert math.isclose(spect.beta1, p, abs_tol=1e-12)


def test_two_site_high_temp_limit():
    spec = ModelSpec(2, 2, 1e9)
    assert np.allclose(full_spectrum(spec), [1.0, 0.5, 0.5, 0.0], atol=1e-6)
    spect = spectrum_for(spec)
    assert math.isclose(spect.beta1, 0.5, abs_tol=1e-6)


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
        diff = max(abs(a - b) for a, b in zip(full_spectrum(spec), reference))
        assert diff <= 1e-10, spec
        spect = spectrum_for(spec)
        assert abs(spect.beta1 - reference[1]) <= 1e-10, spec


@pytest.mark.parametrize(
    "spec",
    [ModelSpec(2, 3, 0.5), ModelSpec(3, 2, 2.0), ModelSpec(3, 3, 1.0), ModelSpec(4, 2, 0.5)],
)
def test_spectrum_invariants(spec):
    kern = kernel_for(spec)
    spect = spectrum_for(spec)
    eigs = full_spectrum(spec)
    assert len(eigs) == spec.num_states
    assert abs(eigs[0] - 1.0) <= EIGENVALUE_TOLERANCE
    assert np.all(np.diff(eigs) <= 1e-14)
    assert eigs[-1] >= -EIGENVALUE_TOLERANCE  # P >= 0
    assert eigs[1] <= 1.0
    # trace identity ties the spectrum back to the holding probabilities
    trace = kern.matrix.diagonal().sum()
    assert math.isclose(eigs.sum(), trace, abs_tol=1e-9)
    # The second eigenvalue of the same multiset, bit for bit, clamped at 0;
    # at N = 2 the multiset is the oracle's dense solve of A and beta1 comes
    # from theta, so the two may part in the last place.
    assert spect.spec == spec
    if spec.num_colors == 2:
        assert abs(spect.beta1 - eigs[1]) <= math.ulp(eigs[1])
    else:
        assert spect.beta1 == max(eigs[1], 0.0)


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
    plan = SectorPlan(spec)
    assert np.array_equal(plan.colors, kern.colors[:reps])
    assert plan.colors.dtype == kern.colors.dtype
    row, targets, values = plan.row, plan.targets, plan.values(spec)
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
    plan = SectorPlan(spec)
    row, targets, values = plan.row, plan.targets, plan.values(spec)
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
    blocks = full_spectrum(spec)
    oracle = dense_spectrum_oracle(kernel_for(spec))
    assert blocks.shape == oracle.shape
    assert np.abs(blocks - oracle).max() <= 1e-12
    spect = spectrum_for(spec)
    assert abs(spect.beta1 - max(oracle[1], 0.0)) <= 1e-12


@pytest.mark.parametrize(
    "spec",
    grid_specs(max_states=1024)
    + [ModelSpec(4, 5, 1.0), ModelSpec(2, 26, 1.0), ModelSpec(4, 6, 1.0)],
    ids=str,
)
def test_reversal_halves_split_each_sector(spec):
    reps = spec.num_states // spec.num_colors
    blocks = list(SectorPlan(spec).blocks(spec))
    translate, _, sectors = _color_group(spec.num_colors)
    assert {sector for sector, _, _ in blocks} == {k for k, _, _ in sectors}
    for k, chi, multiplicity in sectors:
        sized = [(block.shape[0], mult) for sector, block, mult in blocks if sector == k]
        # At N = 4 the color 3-cycle splits sector 0 into its trivial
        # character, up to four real blocks, and one complex character, up
        # to two, counted twice for its conjugate.
        most = 6 if spec.num_colors == 4 and k == 0 else 4 if not np.iscomplexobj(chi) else 2
        assert 1 <= len(sized) <= most
        assert sum(size * mult for size, mult in sized) == reps * multiplicity
    assert sum(block.shape[0] * mult for _, block, mult in blocks) == spec.num_states
    for _, block, _ in blocks:
        assert type(block) is np.ndarray and block.dtype == np.float64
        assert block.ndim == 2 and block.shape[0] == block.shape[1]
    # The first block of sector 0 holds the functions that the color group
    # (XOR at N = 4, the shift otherwise), the site reversal and the color
    # reflection all fix, and at N = 4 the color 3-cycle too: one dimension
    # per orbit of them all, of S4 and the reversal at N = 4.
    table = colors_table(spec).astype(np.int64)
    images = [translate(table, j) for j in range(spec.num_colors)]
    if spec.num_colors == 4:
        cycle = np.array([0, 2, 3, 1])
        images += [cycle[image] for image in images] + [cycle[cycle[image]] for image in images]
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
    assert np.abs(block_eigenvalues(spec) - union).max() <= 1e-12
    assert abs(spectrum_for(spec).beta1 - max(union[1], 0.0)) <= 1e-12
    # A block counts once for each sector of its class, and at N = 4 the
    # blocks that the 3-cycle's complex character gives in sector 0 count
    # twice: the solved sector counts each block its multiplicity over the
    # class size.
    blocks = list(SectorPlan(spec).blocks(spec))
    counts = Counter(solved_for)
    assert {sector for sector, _, _ in blocks} == set(counts)
    for k, count in counts.items():
        solved = [
            np.linalg.eigvalsh(block)
            for sector, block, mult in blocks if sector == k
            for _ in range(mult // count)
        ]
        assert all(mult % count == 0 for sector, _, mult in blocks if sector == k)
        solved = np.sort(np.concatenate(solved))[::-1]
        assert np.abs(solved - sectors[k]).max() <= 1e-12, k


def _same_spectrum(first, second):
    """Whether two eigenvalue multisets agree within 1e-12, empty ones too."""
    first, second = np.sort(first), np.sort(second)
    return first.shape == second.shape and np.allclose(first, second, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "spec", [ModelSpec(n, 4, temp) for n in range(1, 5) for temp in (0.3, 1.0, 5.0)], ids=str
)
def test_color_cycle_splits_klein_sector_zero(spec):
    # S4/V4 = S3 acts on the trivial Klein sector, which is 1 + 1' + 2E.  The
    # 3-cycle's characters k3 = 1 and 2 each hold one copy of the
    # multiplicity space of E, so they are isospectral; the reflection (1 3)
    # puts 1 + E in its even half and 1' + E in its odd half, so k3 = 1 is
    # the part the two halves share.
    kern = kernel_for(spec)
    cycle, halves, trivial_halves = klein_sector_zero_spectra(kern)
    assert _same_spectrum(cycle[1], cycle[2])
    for half, trivial in zip(halves, trivial_halves):
        assert _same_spectrum(half, np.concatenate([trivial, cycle[1]]))
    # The package solves k3 = 0 in blocks counted once and k3 = 1 in blocks
    # counted twice; with multiplicity they make the whole sector 0.
    blocks = [(block, mult) for k, block, mult in SectorPlan(spec).blocks(spec) if k == 0]
    for k3, mult in ((0, 1), (1, 2)):
        solved = [np.linalg.eigvalsh(block) for block, count in blocks if count == mult]
        assert _same_spectrum(np.concatenate(solved or [np.empty(0)]), cycle[k3]), k3
    solved = np.concatenate([np.linalg.eigvalsh(block) for block, mult in blocks for _ in range(mult)])
    assert _same_spectrum(solved, color_sector_spectra(kern, True)[0])


@pytest.mark.parametrize(
    "spec",
    [ModelSpec(n, 2, temp) for n in range(1, 13) for temp in (0.3, 0.5, 1.0, 2.0, 5.0)],
    ids=str,
)
def test_two_color_closed_form_matches_dense_and_blocks(spec):
    # The closed form reads neither the kernel's rows nor the blocks, so both
    # check it and its subset sums: the dense solve of the whole symmetrized
    # kernel, and the symmetry blocks, which stay general in N and are
    # otherwise unused at N = 2.
    kern = kernel_for(spec)
    closed = two_color_eigenvalues(spec)
    dense = np.linalg.eigvalsh(symmetrize(kern).toarray())[::-1]
    sectors = block_eigenvalues(spec)
    assert closed.shape == dense.shape == sectors.shape
    assert np.abs(closed - dense).max() <= 1e-13
    assert np.abs(closed - sectors).max() <= 1e-13
    # spectrum keeps the least nonempty subset sum, from theta rather than
    # the oracle's dense solve of A, so to the last place; the whole set is 0.
    assert abs(spectrum_for(spec).beta1 - closed[1]) <= math.ulp(closed[1])
    assert abs(closed[-1]) <= 1e-13


# Up to n = 16, the kernel's cap: at N = 2 the spectrum solves no dense matrix.
@pytest.mark.parametrize("n", range(2, 17))
def test_two_color_beta1_matches_glauber(n):
    for temp in (0.3, 0.5, 1.0, 2.0, 5.0):
        spect = spectrum(build_kernel(ModelSpec(n, 2, temp)))
        assert abs(spect.beta1 - glauber_beta1(n, temp)) <= 1e-13


def test_spectrum_finite_at_low_temperature():
    # sqrt(pi) underflows to 0 here, so neither the closed form nor the
    # blocks may divide by it.  The gap rounds to 0, so the spectrum refuses
    # the closed form's finite value as a precision limit.
    spec = ModelSpec(3, 2, 0.005)
    assert math.isfinite(spectral._two_color_beta1(spec))
    with pytest.raises(PrecisionLimitError, match="below float64 resolution"):
        spectrum(build_kernel(spec))
    for eigs in (full_spectrum(spec), block_eigenvalues(spec)):
        assert np.all(np.isfinite(eigs))
        assert abs(eigs[0] - 1.0) <= 1e-12


def test_symmetrize_rejects_non_reversible(monkeypatch, capsys):
    # The row table of P = [[0.2, 0.8], [0.6, 0.4]]: each row holds the
    # state itself, then its one move.
    spec = ModelSpec(1, 2, 1.0)
    colors = colors_table(spec)
    pi = stationary_measure(spec, colors)
    cols = np.array([[0, 1], [1, 0]])
    data = np.array([[0.2, 0.8], [0.4, 0.6]])
    kern = SparseKernel(spec=spec, colors=colors, pi=pi, cols=cols, data=data)
    with pytest.raises(ValueError, match="reversib"):
        symmetrize(kern)
    # The spectrum is built from the conditionals, not from this matrix, so
    # verify's detailed-balance check is what catches it.
    assert check_detailed_balance(kern) > 1e-12
    monkeypatch.setattr(cli, "build_kernel", lambda spec: kern)
    assert cli.main(["verify", "--n", "1", "--colors", "2", "--temp", "1"]) == 1
    assert "FAIL detailed-balance" in capsys.readouterr().out.splitlines()[1]


def test_spectrum_ignores_corrupted_row_table(monkeypatch):
    # Halve the moves out of the least likely state, a representative whose
    # row the spectrum would read if it took the rows off the kernel's table,
    # and hold it the more.  verify's checks see the corruption; the
    # spectrum, built from the conditionals, is bitwise that of the true
    # kernel: the same blocks, so every eigenvalue, and the same extremes.
    solved = []
    blocks = SectorPlan.blocks

    def recorded(plan, spec):
        solved.append([block.tobytes() for _, block, _ in blocks(plan, spec)])
        return blocks(plan, spec)

    monkeypatch.setattr(SectorPlan, "blocks", recorded)
    kern = kernel_for(ModelSpec(6, 4, 0.3))
    least = int(np.argmin(kern.pi))
    reps = kern.dimension // kern.spec.num_colors
    assert least < reps
    data = kern.data.copy()
    data[least, 1:] /= 2
    data[least, 0] += data[least, 1:].sum()
    halved = dataclasses.replace(kern, data=data)
    assert check_detailed_balance(halved) == pytest.approx(0.5, abs=1e-12)
    expected = spectrum(kern)
    assert spectrum(halved) == expected
    # The spectrum enumerates its representatives itself and reads no color
    # table: scrambling every row from rank m/N on changes nothing.
    colors = kern.colors.copy()
    rng = np.random.default_rng(5)
    colors[reps:] = rng.integers(kern.spec.num_colors, size=colors[reps:].shape)
    assert not np.array_equal(colors, kern.colors)
    scrambled = dataclasses.replace(kern, colors=colors)
    assert spectrum(scrambled) == expected
    assert len(solved) == 3 and solved[1] == solved[0] and solved[2] == solved[0]


def test_spectrum_budget():
    kern = build_kernel(ModelSpec(7, 4, 1.0))  # 16384 states, build is fine
    with pytest.raises(BudgetExceededError, match="dense symmetrization.*4096"):
        spectrum(kern)
    # At N = 2 the spectrum has no cap, so 8192 states get a spectrum.
    assert spectrum(build_kernel(ModelSpec(13, 2, 1.0))).beta1 < 1.0


def test_spectrum_at_refuses_past_the_cap_before_any_work(monkeypatch):
    # The cap is on N^n for the blocks.  spectrum_at checks it first, so no
    # representative is built past it.
    def fail(*args):
        raise AssertionError("spectrum_at did work past its cap")

    for name in ("SectorPlan", "color_rows"):
        monkeypatch.setattr(spectral, name, fail)
    spec = ModelSpec(7, 4, 1.0)
    with pytest.raises(BudgetExceededError) as refusal:
        spectral.spectrum_at(spec)
    assert str(refusal.value) == (
        "dense symmetrization would touch 4^7 states, exceeding its budget of 4096"
    )
    assert spectral.exceeds_spectrum_budget(spec)
    # At the cap itself nothing is refused; past it no N^n is formed.
    assert not spectral.exceeds_spectrum_budget(ModelSpec(6, 4, 1.0))
    assert spectral.exceeds_spectrum_budget(ModelSpec(10**5000, 3, 1.0))
    # N = 2 solves one root in theta, the same work at any n, and has no cap:
    # n = 4097, which the cap once refused, is solved like n = 10^6.
    for n in (4097, 10**6):
        assert not spectral.exceeds_spectrum_budget(ModelSpec(n, 2, 1.0))
        assert 0.0 < spectral.spectrum_at(ModelSpec(n, 2, 1.0)).beta1 < 1.0
    assert not spectral.exceeds_spectrum_budget(ModelSpec(10**5000, 2, 1.0))


@pytest.mark.parametrize("n", [17, 100, 1000, 4096])
def test_two_color_beta1_past_the_kernel_cap_matches_scipy(n):
    # beta1 = 1 - (1 - max alpha) / n with max alpha from the tridiagonal A,
    # solved by LAPACK's tridiagonal eigensolver instead of the root theta.
    for temp in (0.1, 0.3, 1.0, 5.0, 100.0):
        coupling = np.full(n, math.tanh(2.0 / temp) / 2)
        coupling[[0, -1]] = math.tanh(1.0 / temp)
        hop = np.sqrt(coupling[:-1]) * np.sqrt(coupling[1:])
        alpha = scipy.linalg.eigvalsh_tridiagonal(np.zeros(n), hop)
        beta1 = spectral.spectrum_at(ModelSpec(n, 2, temp)).beta1
        assert abs(beta1 - (1.0 - (1.0 - alpha.max()) / n)) <= 1e-15, temp
        assert beta1 < 1.0


def mpmath_two_color_gap(n, temp):
    """``1 - max alpha`` of the tridiagonal ``A`` of the ``spectral`` module
    docstring, from a 60-digit solve of the matrix itself."""
    import mpmath as mp

    with mp.workdps(60):
        temp = mp.mpf(temp)
        coupling = [mp.tanh(2 / temp) / 2] * n
        coupling[0] = coupling[-1] = mp.tanh(1 / temp)
        a = mp.zeros(n, n)
        for i in range(n - 1):
            a[i, i + 1] = a[i + 1, i] = mp.sqrt(coupling[i] * coupling[i + 1])
        return 1 - max(mp.eigsy(a, eigvals_only=True))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 10, 12, 16, 30])
def test_two_color_gap_against_high_precision_oracle(n):
    # n times the gap is a sum of positive terms, so it keeps its relative
    # accuracy where beta1 rounds the gap away: within 1.9e-15 of the
    # 60-digit value here, down to T = 0.06, where 1 - max alpha from a
    # dense solve of A kept no correct digit at n >= 10.
    pytest.importorskip("mpmath")
    for temp in (0.06, 0.1, 0.3, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0):
        reference = mpmath_two_color_gap(n, temp)
        gap = spectral._two_color_gap(ModelSpec(n, 2, temp))
        assert abs(gap - reference) <= 4e-15 * reference, temp


@pytest.mark.parametrize("n", [*range(2, 17), 100, 1000, 4096])
def test_two_color_gap_follows_the_low_temperature_law(n):
    # As T -> 0 the gap tends to 2 e^{-2/T} / (n (n-1)); at T <= 0.1 it is
    # within 5.6e-6 of that at every n here.
    for temp in (0.06, 0.08, 0.1):
        gap = spectral._two_color_gap(ModelSpec(n, 2, temp)) / n
        assert abs(n * (n - 1) * math.exp(2 / temp) * gap / 2 - 1) <= 1e-5, temp


def test_two_color_spectrum_calls_no_eigensolver(monkeypatch):
    # At N = 2 beta1 is one root in theta: no matrix is formed or solved.
    def fail(*args, **kwargs):
        raise AssertionError("the N = 2 spectrum called eigvalsh")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    assert 0.0 < spectral.spectrum_at(ModelSpec(4096, 2, 1.0)).beta1 < 1.0
    assert spectral.spectrum_at(ModelSpec(1, 2, 1.0)).beta1 == 0.0


def test_spectrum_refuses_unresolved_gap():
    # A gap that rounded to 0 cannot be held, so no verdict can read it.
    with pytest.raises(PrecisionLimitError, match="below float64 resolution"):
        Spectrum(ModelSpec(2, 2, 1.0), 1.0)


def test_beta1_clamped_at_zero():
    # One site with odd N: the blocks put both the second and the least
    # eigenvalue a few 1e-17 below 0.  P >= 0, so beta1, the envelope's
    # rate, is 0, and the least is within the guard's tolerance of 0.
    for colors in (3, 5, 7):
        spec = ModelSpec(1, colors, 1.0)
        eigs = block_eigenvalues(spec)
        assert -1e-15 < eigs[-1] <= eigs[1] < 0.0, colors
        assert spectrum_for(spec).beta1 == 0.0, colors




def test_spectrum_holds_beta1_alone():
    assert [field.name for field in dataclasses.fields(Spectrum)] == ["spec", "beta1"]


# (6,2,1) through the blocks as well as the closed form.
@pytest.mark.parametrize(
    "spec",
    [ModelSpec(3, 3, 1.0), ModelSpec(2, 4, 0.5), ModelSpec(4, 3, 2.0)]
    + [ModelSpec(2, 5, 1.0), ModelSpec(3, 4, 0.3), ModelSpec(2, 6, 5.0)]
    + [ModelSpec(6, 2, 1.0)],
    ids=str,
)
def test_null_space_has_dimension_n_minus_one_power(spec):
    # Each E_i >= 0, so P f = 0 exactly when E_i f = 0 for every i: when
    # pi f sums to 0 along every line of the state array through site i.
    # The arrays that do so along every axis are the tensor products of
    # zero-sum vectors, (N - 1)^n of them.  So the least eigenvalue is 0 at
    # every chain, and the spectrum keeps no beta_min.
    zeros = (spec.num_colors - 1) ** spec.n
    for eigs in (block_eigenvalues(spec), full_spectrum(spec)):
        assert np.count_nonzero(np.abs(eigs) <= 1e-12) == zeros
        assert eigs[-1] >= -EIGENVALUE_TOLERANCE


def _bent_blocks(monkeypatch, bend):
    """Make every solve of a :class:`SectorPlan` see ``bend(block)`` in place
    of each block."""
    blocks = SectorPlan.blocks

    def bent(plan, spec):
        for k, block, multiplicity in blocks(plan, spec):
            yield k, bend(block), multiplicity

    monkeypatch.setattr(SectorPlan, "blocks", bent)


def test_spectrum_refuses_leading_eigenvalue_off_one(monkeypatch):
    # B (1 + 1e-12) moves the leading eigenvalue to 1 + 1e-12 and keeps the
    # least at 0: a miss ten times the tolerance, and far inside the 1e-8
    # the guard allowed before.
    spec = ModelSpec(3, 3, 1.0)
    _bent_blocks(monkeypatch, lambda block: block * (1.0 + 1e-12))
    with pytest.raises(RuntimeError, match="not from 0 to 1"):
        spectrum(kernel_for(spec))


def test_spectrum_refuses_negative_eigenvalue(monkeypatch):
    # B - 1e-12 (I - B) keeps the eigenvalue 1 and moves the null space to
    # -1e-12, ten times past the tolerance.
    spec = ModelSpec(3, 3, 1.0)
    _bent_blocks(monkeypatch, lambda block: block - 1e-12 * (np.eye(len(block)) - block))
    with pytest.raises(RuntimeError, match="from -1.0.*e-12 to"):
        spectrum(kernel_for(spec))


@pytest.mark.parametrize(
    "argv",
    [["verify", "--n", "3", "--colors", "3", "--temp", "1"],
     ["sweep", "--n", "3", "--colors", "3", "--temp", "1,2"]],
    ids=lambda argv: argv[0],
)
def test_solver_failure_prints_one_line(argv, monkeypatch, capsys):
    # A solve that fails its own check is neither a resource nor a precision
    # limit: the command prints one line, no traceback, and exits 1, the
    # code of a failed verification.  sweep shares one plan across its
    # temperatures and fails the same way.
    _bent_blocks(monkeypatch, lambda block: block - 1e-12 * (np.eye(len(block)) - block))
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("solver failure: eigenvalues from -1.0"), lines[0]


def test_spectrum_refuses_complex_real_form(monkeypatch):
    # A character that is off by 1e-6 rad at one element is no character:
    # the real form of its sector keeps an imaginary part of that order.
    group = spectral._color_group

    def bent(num_colors):
        translate, inverse, sectors = group(num_colors)
        twist = np.exp(1e-6j * (np.arange(num_colors) == 1))
        sectors = [(k, chi * twist if np.iscomplexobj(chi) else chi, multiplicity)
                   for k, chi, multiplicity in sectors]
        return translate, inverse, sectors

    monkeypatch.setattr(spectral, "_color_group", bent)
    with pytest.raises(RuntimeError, match="imaginary part"):
        spectrum(kernel_for(ModelSpec(3, 3, 1.0)))


def test_one_site_real_form_sums_thousands_of_terms():
    # One site with 4096 colors: each complex sector is one entry that sums
    # 4096 terms of 1/4096 times a root of unity, to 0 up to 3.3e-16.  That
    # is rounding of the mass summed, 1, though it is above 1e-12 of the
    # largest term.
    spec = ModelSpec(1, 4096, 1.0)
    blocks = list(SectorPlan(spec).blocks(spec))
    assert sum(multiplicity for _, _, multiplicity in blocks) == 4096
    for k, block, _ in blocks:
        assert block.shape == (1, 1)
        assert abs(block[0, 0] - (k == 0)) <= 1e-15, k
