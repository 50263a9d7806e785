"""Exact spectrum of the kernel from its color-shift and reversal symmetry blocks.

Reversibility makes ``S = D^{1/2} P D^{-1/2}`` symmetric (``D = diag(pi)``),
so ``P`` has the real spectrum of ``S``.  The energy depends only on whether
neighbors agree, so shifting every site's color by +1 mod N commutes with
``S``.  This group Z_N acts freely on the states, so ``S`` splits exactly into
N Fourier sectors of size ``m / N`` (Diaconis 1988).  Reversing the order of
the sites commutes with ``S`` and with the shift, so each sector splits again
into its reversal-even and reversal-odd halves, each solved densely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .model import DENSE_SOLVE_BUDGET, ModelSpec, PrecisionLimitError, check_budget
from .kernel import SparseKernel, check_detailed_balance

# Kernels whose detailed-balance asymmetry exceeds this are rejected.
REVERSIBILITY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """Full eigenvalue data of one kernel.

    Attributes:
        eigenvalues: All eigenvalues in descending order; the first is 1.
        beta1: Second largest eigenvalue.
        beta_min: Smallest eigenvalue.
        beta_star: ``max(beta1, |beta_min|)``, the convergence rate driver.
    """

    eigenvalues: np.ndarray
    beta1: float
    beta_min: float
    beta_star: float


def check_gap_resolved(spectrum: Spectrum) -> None:
    """Refuse a spectrum whose gap ``1 - beta1`` rounded away.

    A verdict that compares a bound with ``beta1`` or ``beta_star`` of 1.0
    would pass or fail on rounding alone.

    Raises:
        PrecisionLimitError: If ``beta1`` or ``beta_star`` rounded to 1.
    """
    if spectrum.beta1 >= 1.0 or spectrum.beta_star >= 1.0:
        raise PrecisionLimitError(
            f"beta1 = {spectrum.beta1!r} and beta_star = {spectrum.beta_star!r}: "
            "the spectral gap is below float64 resolution"
        )


def symmetrize(kernel: SparseKernel) -> sp.csr_matrix:
    """Similarity transform of ``P`` that shares its eigenvalues.

    Entries are ``sqrt(P_xy * P_yx)``, which equals
    ``sqrt(pi_x) P_xy / sqrt(pi_y)`` under detailed balance but never divides
    by a ``sqrt(pi)`` that underflowed at low temperature.

    Returns:
        Sparse symmetric matrix ``D^{1/2} P D^{-1/2}`` in CSR form.

    Raises:
        ValueError: If the kernel violates detailed balance beyond
            ``REVERSIBILITY_TOLERANCE``.
        BudgetExceededError: If the dimension exceeds ``DENSE_SOLVE_BUDGET``,
            which still caps the whole state space, not the sector size.
    """
    check_budget(kernel.dimension, DENSE_SOLVE_BUDGET, "dense symmetrization")
    asymmetry = check_detailed_balance(kernel)
    if asymmetry > REVERSIBILITY_TOLERANCE:
        raise ValueError(
            f"kernel is not reversible: detailed-balance asymmetry {asymmetry:.3e}"
        )
    sym = kernel.matrix.multiply(kernel.matrix.T).tocsr()
    np.sqrt(sym.data, out=sym.data)
    return sym


def _sector_blocks(
    spec: ModelSpec, sym: sp.csr_matrix
) -> Iterator[tuple[int, np.ndarray, int]]:
    """Sector, dense reversal half and multiplicity of each block of ``sym``.

    The states whose site-1 color is 0 (ranks ``0 .. m/N - 1``) represent the
    orbits.  A column ``y`` whose site-1 color is ``j`` is its orbit's
    representative ``s`` (``y`` with every color shifted by ``-j``) shifted
    ``j`` times, so sector ``k`` holds ``sum_j S[x, shift^j(s)] omega^(jk)``
    at ``[x, s]`` with ``omega = exp(2 pi i / N)``.  Sectors 0 and N/2 are
    real symmetric; sector ``N - k`` is the complex conjugate of sector
    ``k``, so only ``k = 0 .. N // 2`` are built and each complex one counts
    twice.

    Reversing the sites commutes with both ``S`` and the shift.  In sector
    ``k`` it maps representative ``s`` to ``s'``, the reversal of ``s``
    shifted by ``-s_n``, and ``e_s`` to ``omega^(-k s_n) e_s'``; with
    ``omega^(+k s_n)`` the map would not commute with a complex sector.  Its
    ``+1`` and ``-1`` eigenspaces have the orthonormal bases
    ``(e_s +- omega^(-k s_n) e_s') / sqrt(2)`` over the pairs ``s < s'``,
    plus ``e_s`` for each ``s = s'`` in the half whose sign is its phase;
    each half is ``Q^H B Q`` for its basis ``Q``.  The even half comes first
    and an empty half is skipped.
    """
    num_colors = spec.num_colors
    reps = spec.num_states // num_colors
    rows = sym[:reps].tocoo()
    shift = rows.col // reps
    orbit = np.zeros_like(rows.col)
    ranks = np.arange(reps)
    last = ranks % num_colors
    mirror = np.zeros_like(ranks)
    for i in range(spec.n):
        place = num_colors ** (spec.n - 1 - i)
        orbit += (rows.col // place - shift) % num_colors * place
        mirror += (ranks // place - last) % num_colors * num_colors**i
    powers = np.arange(num_colors)
    for k in range(num_colors // 2 + 1):
        if 2 * k % num_colors == 0:
            roots, multiplicity = (-1.0) ** ((2 * k // num_colors) * powers), 1
        else:
            roots, multiplicity = np.exp(2j * np.pi * k * powers / num_colors), 2
        # CSR construction sums duplicates: at n <= 2 two columns of a row can
        # share an orbit, and a fixed point's two basis entries (0.5 each) add up.
        block = sp.csr_matrix(
            (rows.data * roots[shift], (rows.row, orbit)), shape=(reps, reps)
        )
        reversal = roots[-last % num_colors]
        for sign in (1.0, -1.0):
            cols = np.flatnonzero(
                (ranks < mirror) | (ranks == mirror) & (sign * reversal.real > 0)
            )
            if cols.size == 0:
                continue
            scale = np.where(mirror[cols] == cols, 0.5, np.sqrt(0.5))
            data = np.concatenate([scale, sign * scale * reversal[cols]])
            j = np.arange(cols.size)
            where = np.concatenate([cols, mirror[cols]]), np.concatenate([j, j])
            basis = sp.csr_matrix((data, where), shape=(reps, cols.size))
            yield k, (basis.conj().T @ block @ basis).toarray(), multiplicity


def spectrum(kernel: SparseKernel) -> Spectrum:
    """Compute the full spectrum of the kernel.

    Eigenvalues come from dense symmetric (or Hermitian) solves of the two
    site-reversal halves of each of the ``floor(N/2) + 1`` distinct
    color-shift sectors of the similarity transform, about ``m / (2N)``
    states each, and are returned in descending order without merging ties.

    Raises:
        BudgetExceededError: If the dimension exceeds ``DENSE_SOLVE_BUDGET``.
        ValueError: If the kernel is not reversible.
    """
    sym = symmetrize(kernel)
    parts = []
    for _, half, multiplicity in _sector_blocks(kernel.spec, sym):
        eigs = scipy.linalg.eigvalsh(half, overwrite_a=True, check_finite=False)
        parts.extend([eigs] * multiplicity)
    eigs = np.ascontiguousarray(np.sort(np.concatenate(parts))[::-1])
    if abs(eigs[0] - 1.0) > 1e-8:
        raise RuntimeError(
            f"leading eigenvalue {eigs[0]!r} is not 1; solver failure"
        )
    eigs.flags.writeable = False
    beta1 = float(eigs[1])
    beta_min = float(eigs[-1])
    return Spectrum(
        eigenvalues=eigs,
        beta1=beta1,
        beta_min=beta_min,
        beta_star=max(beta1, abs(beta_min)),
    )
