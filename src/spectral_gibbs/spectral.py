"""Exact spectrum of the kernel from its color and site-reversal symmetry blocks.

Reversibility makes ``S = D^{1/2} P D^{-1/2}`` symmetric (``D = diag(pi)``),
so ``P`` has the real spectrum of ``S``.  The energy depends only on whether
neighbors agree, so shifting every site's color by +1 mod N and reflecting
every color, ``c -> -c mod N``, both commute with ``S``; together they form
the dihedral group of the colors (Diaconis 1988).  The shift acts freely on
the states, so ``S`` splits exactly into N Fourier sectors of size ``m / N``.
Reversing the order of the sites commutes with ``S`` and with both color
maps, so each sector splits again into its reversal-even and reversal-odd
halves.  The reflection, composed with complex conjugation, turns each half
of a complex sector into a real symmetric block of the same size and splits
each half of a real sector (``k = 0``, and ``k = N/2`` for even N) into its
reflection-even and reflection-odd blocks.  So a real sector has up to four
blocks of about ``m / (4N)`` states, a complex sector two of about
``m / (2N)``, and every block is solved densely in real arithmetic by
numpy's ``eigvalsh`` (LAPACK ``syevd``), so the spectrum needs no scipy.

The blocks read only the ``m / N`` rows of ``S`` that belong to the shift's
representatives, built from the local conditionals and successor ranks of
the kernel's color table; the spectrum never reads the kernel's row table
or its CSR ``matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .model import DENSE_SOLVE_BUDGET, PrecisionLimitError, check_budget
from .kernel import SparseKernel, transition_rows
from .kernel import check_detailed_balance  # noqa: F401 -- perfbench/spans.py wraps this name

# The real form of a complex sector may drop an imaginary part up to this
# fraction of the largest sector entry summed into the block.
REAL_FORM_TOLERANCE = 1e-12


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


def _assemble(
    row: np.ndarray,
    orbit: np.ndarray,
    entries: np.ndarray,
    slot_col: np.ndarray,
    slot_coef: np.ndarray,
    keep: np.ndarray,
) -> np.ndarray:
    """Real block ``Q^H B Q`` over the kept columns of a two-slot basis.

    ``B`` holds ``entries`` at ``[row, orbit]``; representative ``s`` has the
    coefficient ``slot_coef[s, t]`` in column ``slot_col[s, t]`` of ``Q``.
    One ``bincount`` sums every product ``conj(Q[x, a]) B[x, s] Q[s, b]``,
    duplicates included.  The imaginary part it drops must be rounding, at
    most ``REAL_FORM_TOLERANCE`` of the largest entry of ``B`` it sums, 0 if
    none (every coefficient has modulus at most 1).
    """
    size = int(keep.sum())
    kept = keep[slot_col]
    col = np.where(kept, np.cumsum(keep)[slot_col] - 1, 0)
    coef = np.where(kept, slot_coef, 0.0)
    live = (coef != 0).any(axis=1)
    pick = np.flatnonzero(live[row] & live[orbit])
    row, orbit, entries = row[pick], orbit[pick], entries[pick]
    index = (col[row][:, :, None] * size + col[orbit][:, None, :]).ravel()
    terms = (
        coef[row].conj()[:, :, None] * entries[:, None, None] * coef[orbit][:, None, :]
    ).ravel()
    block = np.bincount(index, terms.real, size * size).reshape(size, size)
    if np.iscomplexobj(terms):
        imag = np.bincount(index, terms.imag, size * size)
        imag = np.abs(imag, out=imag).max()
        if imag > REAL_FORM_TOLERANCE * np.abs(entries).max(initial=0.0):
            raise RuntimeError(
                f"real form of a complex sector has imaginary part {imag:.3e}"
            )
    return block


def _representative_rows(
    kernel: SparseKernel,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, target rank and value of every entry of ``S`` in the rows of the
    representatives, the states whose site-1 color is 0.

    Every entry is ``sqrt(P_xy P_yx)``, which equals
    ``sqrt(pi_x) P_xy / sqrt(pi_y)`` under detailed balance but never divides
    by a ``sqrt(pi)`` that underflowed.  A move at site ``i`` from color
    ``c`` to ``c'`` sees the same neighbors as its reverse, so its entry is
    ``sqrt((p_c' / n) (p_c / n))`` with ``p`` the conditional at that site.
    The diagonal is the holding probability itself, which its square would
    lose where it underflows.  Each row is sorted by target, the column
    order of a CSR matrix.
    """
    spec = kernel.spec
    reps = spec.num_states // spec.num_colors
    cols, forward, own = transition_rows(spec, kernel.colors[:reps])
    backward = np.repeat(own, spec.num_colors - 1, axis=1) / spec.n
    values = np.column_stack([forward[:, 0], np.sqrt(forward[:, 1:] * backward)])
    order = np.argsort(cols, axis=1)
    targets = np.take_along_axis(cols, order, axis=1).ravel()
    values = np.take_along_axis(values, order, axis=1).ravel()
    return np.repeat(np.arange(reps), cols.shape[1]), targets, values


def _sector_blocks(kernel: SparseKernel) -> Iterator[tuple[int, np.ndarray, int]]:
    """Sector, real symmetric block and multiplicity of each block of ``S``.

    The states whose site-1 color is 0 (ranks ``0 .. m/N - 1``) represent the
    orbits of the color shift.  A column ``y`` whose site-1 color is ``j`` is
    its orbit's representative ``s`` (``y`` with every color shifted by
    ``-j``) shifted ``j`` times, so sector ``k`` holds
    ``sum_j S[x, shift^j(s)] omega^(jk)`` at ``[x, s]`` with
    ``omega = exp(2 pi i / N)``.  Sector ``N - k`` is the complex conjugate
    of sector ``k``, so only ``k = 0 .. N // 2`` are built and each complex
    one counts twice.

    Reversing the sites commutes with both ``S`` and the shift.  In sector
    ``k`` it maps ``e_s`` to ``omega^(-k s_n) e_s'``, where ``s'`` is the
    reversal of ``s`` shifted by ``-s_n``; with ``omega^(+k s_n)`` the map
    would not commute with a complex sector.  Its ``+1`` and ``-1`` halves have
    the orthonormal bases ``q = (e_s +- omega^(-k s_n) e_s') / sqrt(2)`` over
    the pairs ``s < s'``, plus ``e_s`` for each ``s = s'`` in the half whose
    sign is its phase.  The even half comes first.

    Reflecting every color, ``c -> -c mod N``, maps a representative ``s``
    to the representative ``-s``, commutes with the reversal and maps sector
    ``k`` to ``N - k``.  So ``J`` (reflection then complex conjugation) keeps
    each half of each sector and commutes with it: ``J q_a = lam q_b`` with
    ``|lam| = 1``.  A column with ``b = a`` becomes ``sqrt(lam) q_a`` and a
    pair ``a < b`` becomes ``(q_a + lam q_b) / sqrt(2)`` and
    ``i (q_a - lam q_b) / sqrt(2)``; all are fixed by ``J``, so the half is
    real symmetric in that basis.  In the real sectors (``k = 0`` and
    ``k = N/2``) ``lam = +-1`` and ``J`` is the reflection itself, so each
    half splits again: the reflection-even block, first, holds ``q_a`` for
    ``lam = +1`` and ``(q_a + lam q_b) / sqrt(2)``; the odd one holds
    ``q_a`` for ``lam = -1`` and ``(q_a - lam q_b) / sqrt(2)``.  Empty
    blocks are skipped, so ``N = 2``, where the reflection is the identity,
    has no odd ones.
    """
    spec = kernel.spec
    num_colors = spec.num_colors
    reps = spec.num_states // num_colors
    row, targets, values = _representative_rows(kernel)
    places = num_colors ** np.arange(spec.n - 1, -1, -1)
    table = kernel.colors
    shift = table[targets, 0]
    orbit = ((table - table[:, :1]) % num_colors @ places)[targets]
    colors = table[:reps]
    ranks = np.arange(reps)
    last = colors[:, -1]
    mirror = (colors[:, ::-1] - last[:, None]) % num_colors @ places
    reflect = -colors % num_colors @ places
    powers = np.arange(num_colors)
    half = np.sqrt(0.5)
    for k in range(num_colors // 2 + 1):
        real = 2 * k % num_colors == 0
        if real:
            roots = (-1.0) ** ((2 * k // num_colors) * powers)
        else:
            roots = np.exp(2j * np.pi * k * powers / num_colors)
        entries = values * roots[shift]
        reversal = roots[-last % num_colors]
        for sign in (1.0, -1.0):
            lead = np.flatnonzero(
                (ranks < mirror) | (ranks == mirror) & (sign * reversal.real > 0)
            )
            if lead.size == 0:
                continue
            # Column and coefficient of each representative in q; zero
            # coefficients for the fixed points of the other half.
            index = np.arange(lead.size)
            column = np.zeros(reps, dtype=np.int64)
            coef = np.zeros(reps, dtype=roots.dtype)
            column[mirror[lead]] = column[lead] = index
            coef[mirror[lead]] = sign * half * reversal[lead]
            coef[lead] = np.where(mirror[lead] == lead, 1.0, half)
            partner = column[reflect[lead]]
            lam = coef[lead] / coef[reflect[lead]]
            # A representative in column a sits in both columns of its pair:
            # slot 0 in the lower one, slot 1 in the upper one.
            paired, upper = index != partner, index > partner
            unit = 1.0 if real else 1j
            fixed = 1.0 if real else np.sqrt(lam)
            weights = np.stack(
                [
                    np.where(paired, half * np.where(upper, lam, 1.0), fixed),
                    np.where(paired, unit * half * np.where(upper, -lam, 1.0), 0.0),
                ],
                axis=1,
            )
            ends = np.stack([np.minimum(index, partner), np.maximum(index, partner)], 1)
            slot_col, slot_coef = ends[column], weights[column] * coef[:, None]
            if not real:
                keep = np.ones(lead.size, dtype=bool)
                yield k, _assemble(row, orbit, entries, slot_col, slot_coef, keep), 2
                continue
            even = np.where(paired, ~upper, lam > 0)
            for keep in (even, ~even):
                if keep.any():
                    # At most one slot of a representative lies in this block.
                    lower = keep[slot_col[:, :1]]
                    cols = np.where(lower, slot_col[:, :1], slot_col[:, 1:])
                    coefs = np.where(lower, slot_coef[:, :1], slot_coef[:, 1:])
                    yield k, _assemble(row, orbit, entries, cols, coefs, keep), 1


def spectrum(kernel: SparseKernel) -> Spectrum:
    """Compute the full spectrum of the kernel.

    Eigenvalues come from dense real symmetric solves of the blocks of the
    ``floor(N/2) + 1`` distinct color-shift sectors of the similarity
    transform: up to four reversal and reflection blocks per real sector and
    two reversal halves in real form per complex sector.  They are returned
    in descending order without merging ties.

    Raises:
        BudgetExceededError: If the dimension exceeds ``DENSE_SOLVE_BUDGET``,
            which caps the whole state space, not the block size.
        RuntimeError: If the real form of a complex sector keeps more than
            rounding in its imaginary part, or the leading eigenvalue is not 1.
    """
    check_budget(kernel.spec, DENSE_SOLVE_BUDGET, "dense symmetrization")
    parts = []
    for _, block, multiplicity in _sector_blocks(kernel):
        eigs = np.linalg.eigvalsh(block)
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
