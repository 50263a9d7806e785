"""Exact spectrum of the kernel: in closed form at N = 2, else from its color
and site-reversal symmetry blocks.

Reversibility makes ``S = D^{1/2} P D^{-1/2}`` symmetric (``D = diag(pi)``),
so ``P`` has the real spectrum of ``S``.

At N = 2 the chain is Glauber's kinetic Ising chain (Glauber 1963) and its
spectrum is free-fermionic (Felderhof 1971).  With spins ``sigma = +-1``,
resampling site ``i`` averages its spin to
``E_i sigma_i = tanh((sigma_{i-1} + sigma_{i+1}) / T)
= c_i (sigma_{i-1} + sigma_{i+1})``, linear in the neighbors, with
``c_i = tanh(2/T) / 2`` at an interior site and ``tanh(1/T)`` at the two
end sites (a missing neighbor counts 0).  So ``E_i`` maps a spin product
``sigma_A`` to itself when ``i`` is not in ``A``; otherwise the particle at
``i`` hops to a free neighbor, keeping the degree ``|A|``, or annihilates
with an occupied one, lowering it by 2.  ``P = (1/n) sum_i E_i`` is
therefore block-triangular in the degree, and its degree-``k`` diagonal
block is ``((n - k) I + H_k) / n`` with ``H_k`` hard-core hopping of ``k``
particles on a line.  They never cross, so ``H_k`` is the ``k``-fermion
extension of the one-particle matrix, which ``diag(sqrt(c))`` makes the
symmetric tridiagonal ``A`` with off-diagonals ``sqrt(c_i) sqrt(c_{i+1})``
(``A = [0]`` at n = 1), and its eigenvalues are the sums of ``k`` distinct
eigenvalues ``alpha_j`` of ``A``.  The ``2^n`` eigenvalues of ``P`` are
``1 - (1/n) sum_{j in J} (1 - alpha_j)`` over the subsets ``J`` of
``{1..n}``: ``beta1 = 1 - (1 - max alpha) / n``, and
``beta_min = tr(A) / n = 0``.

For N >= 3 the energy depends only on whether neighbors agree, so every
permutation of the colors commutes with ``S``.  A group ``G`` of N color
permutations that fixes no color except by its identity acts freely on the
states, so ``S`` splits exactly into N sectors of size ``m / N``, one per
character ``chi_k`` of ``G``: the functions ``f`` with
``f(j(x)) = chi_k(j) f(x)``, where ``j`` names the element that takes
color 0 to ``j``.  A color permutation ``p`` that fixes color 0 and
normalizes ``G`` conjugates ``j`` into ``p(j)`` and so maps sector
``chi_k`` onto sector ``chi_k o p^-1``; the two are isospectral and one
solve serves both.

For N != 4, ``G`` is the cyclic shift ``c -> c + j mod N`` with
``chi_k(j) = omega^(jk)``, ``omega = exp(2 pi i / N)``.  Multiplying every
color by a unit ``a`` mod N conjugates the shift by ``j`` into the shift by
``a j`` and so maps sector ``k`` to sector ``a^-1 k``: the sectors with one
``d = gcd(k, N)`` are isospectral, and one sector per class is solved and
counted ``phi(N/d)`` times (N = 5: sectors 0 and 1, the latter four times).

At N = 4, ``G`` is the Klein four-group ``V4``: colors read as two bits and
``j`` acts as ``c XOR j``, which moves every color, so ``V4`` acts freely,
and its characters ``chi_k(j) = (-1)^popcount(j & k)`` are real.  ``V4``,
the identity and the three double transpositions, is a union of conjugacy
classes of the color permutations, so it is normal in S4 (Diaconis 1988):
every color permutation normalizes it.  The swap ``(1 2)`` exchanges the two
bits and maps ``chi_1`` onto ``chi_2``, and ``(2 3)`` maps ``chi_1`` onto
``chi_3``, so sectors 1, 2 and 3 are isospectral; only sectors 0 and 1 are
solved, sector 1 counted three times.

Reversing the order of the sites commutes with ``S`` and with every color
map, so each sector splits again into its reversal-even and reversal-odd
halves.  Reflecting every color, ``c -> -c mod N``, also commutes with ``S``;
with the shift it forms the dihedral group of the colors (Diaconis 1988),
and at N = 4 it is the swap ``(1 3)``, an automorphism of ``V4`` that fixes
``chi_0`` and ``chi_1``.  The reflection, composed with complex
conjugation, turns each half of a complex sector into a real symmetric block
of the same size and splits each half of a real sector (``k = 0``, ``k = N/2``
for even N, and both Klein sectors) into its reflection-even and
reflection-odd blocks.  So a real sector has up to four blocks of about
``m / (4N)`` states and a complex sector two of about ``m / (2N)``: at (6,4)
eight real blocks of 240 to 288 rows.  Every block is solved densely in real
arithmetic by numpy's ``eigvalsh`` (LAPACK ``syevd``), so the spectrum needs
no scipy.  The blocks are general in N; at N = 2 they are a test oracle for
the closed form.

The blocks read only the first ``m / N`` rows of the kernel's color table,
the representatives of the orbits of ``G``: their rows of ``S`` come from the local
conditionals and successor ranks.  The spectrum never reads the kernel's
row table or its CSR ``matrix``, so a row table that fails ``verify``'s
checks leaves the spectrum unchanged.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .model import DENSE_SOLVE_BUDGET, ModelSpec, PrecisionLimitError, check_budget
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
    """

    eigenvalues: np.ndarray

    @property
    def beta1(self) -> float:
        """Second largest eigenvalue."""
        return float(self.eigenvalues[1])

    @property
    def beta_min(self) -> float:
        """Smallest eigenvalue."""
        return float(self.eigenvalues[-1])

    @property
    def beta_star(self) -> float:
        """``max(beta1, |beta_min|)``, the convergence rate driver."""
        return max(self.beta1, abs(self.beta_min))


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
    spec: ModelSpec, colors: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, target rank and value of every entry of ``S`` in the rows of the
    representatives ``colors``, the states whose site-1 color is 0.

    Every entry is ``sqrt(P_xy P_yx)``, which equals
    ``sqrt(pi_x) P_xy / sqrt(pi_y)`` under detailed balance but never divides
    by a ``sqrt(pi)`` that underflowed.  A move at site ``i`` from color
    ``c`` to ``c'`` sees the same neighbors as its reverse, so its entry is
    ``sqrt((p_c' / n) (p_c / n))`` with ``p`` the conditional at that site.
    The diagonal is the holding probability itself, which its square would
    lose where it underflows.  Each row is sorted by target, the column
    order of a CSR matrix.

    The kernel's row table holds the same moves, but a spectrum read from it
    would turn a corrupted table, which fails ``verify``'s detailed-balance
    check, into a ``RuntimeError`` of the eigensolve.
    """
    cols, forward, own = transition_rows(spec, colors)
    backward = np.repeat(own, spec.num_colors - 1, axis=1) / spec.n
    values = np.column_stack([forward[:, 0], np.sqrt(forward[:, 1:] * backward)])
    order = np.argsort(cols, axis=1)
    targets = np.take_along_axis(cols, order, axis=1).ravel()
    values = np.take_along_axis(values, order, axis=1).ravel()
    return np.repeat(np.arange(len(colors)), cols.shape[1]), targets, values


def _color_group(
    num_colors: int,
) -> tuple[Callable, np.ndarray, list[tuple[int, np.ndarray, int]]]:
    """The free color group whose sectors ``_sector_blocks`` solves.

    Returns ``(translate, inverse, sectors)``.  ``translate(c, j)`` applies
    to color ``c`` the group element ``j``, the one that takes color 0 to
    ``j``; ``inverse[j]`` is the inverse element.  Each sector is
    ``(k, chi, multiplicity)``: ``chi[j]`` is the value of character ``k``
    at element ``j``, and ``multiplicity`` counts the sectors that share its
    spectrum.  At N = 4 the group is the Klein four-group, colors read as two
    bits and ``c XOR j`` the translation, with characters
    ``(-1)^popcount(j & k)``; sectors 1, 2 and 3 are isospectral, so only
    ``(0, 1)`` and ``(1, 3)`` are listed.  Otherwise it is the cyclic shift,
    ``c + j mod N``, with characters ``omega^(jk)``, and one sector per class
    ``d = gcd(k, N)`` stands for the ``phi(N/d)`` sectors of the class: the
    least ``k``, 0 or a proper divisor of N.
    """
    elements = np.arange(num_colors)
    if num_colors == 4:
        popcount = np.array([bin(j).count("1") for j in elements])
        sectors = [
            (k, (-1.0) ** popcount[elements & k], multiplicity)
            for k, multiplicity in ((0, 1), (1, 3))
        ]
        return np.bitwise_xor, elements, sectors
    classes = Counter(math.gcd(k, num_colors) for k in range(num_colors))
    sectors = []
    for k, multiplicity in sorted((d % num_colors, count) for d, count in classes.items()):
        if 2 * k % num_colors == 0:
            chi = (-1.0) ** ((2 * k // num_colors) * elements)
        else:
            chi = np.exp(2j * np.pi * k * elements / num_colors)
        sectors.append((k, chi, multiplicity))
    return (lambda c, j: (c + j) % num_colors), -elements % num_colors, sectors


def _sector_blocks(
    spec: ModelSpec, colors: np.ndarray
) -> Iterator[tuple[int, np.ndarray, int]]:
    """Sector, real symmetric block and multiplicity of each block of ``S``.

    The states whose site-1 color is 0, ``colors``, represent the orbits of
    the free color group ``G`` of ``_color_group``.  A column ``y`` is its
    orbit's representative ``s`` translated by ``j = y // (m/N)``, its site-1
    color, and ``s`` is representative ``y % (m/N)`` with its tail
    translated by ``j^-1``, so sector ``k`` holds
    ``sum_j S[x, j(s)] chi_k(j)`` at ``[x, s]``.  Only one sector of each
    isospectral class is built; its blocks carry the class's multiplicity.

    Reversing the sites commutes with both ``S`` and ``G``.  In sector ``k``
    it maps ``e_s`` to ``chi_k(s_n^-1) e_s'``, where ``s'`` is the reversal
    of ``s`` translated by ``s_n^-1``; with ``chi_k(s_n)`` the map would not
    commute with a complex sector.  Its ``+1`` and ``-1`` halves have the
    orthonormal bases ``q = (e_s +- chi_k(s_n^-1) e_s') / sqrt(2)`` over the
    pairs ``s < s'``, plus ``e_s`` for each ``s = s'`` in the half whose sign
    is its phase.  The even half comes first.

    Reflecting every color, ``c -> -c mod N``, maps a representative ``s``
    to the representative ``-s``, commutes with the reversal and maps
    ``chi_k`` to ``conj(chi_k)``: ``N - k`` in the cyclic group, and ``k``
    itself in the Klein four-group, whose characters are real.  So ``J``
    (reflection then complex conjugation) keeps each half of each sector and
    commutes with it: ``J q_a = lam q_b`` with ``|lam| = 1``.  A column with
    ``b = a`` becomes ``sqrt(lam) q_a`` and a pair ``a < b`` becomes
    ``(q_a + lam q_b) / sqrt(2)`` and ``i (q_a - lam q_b) / sqrt(2)``; all
    are fixed by ``J``, so the half is real symmetric in that basis.  In a
    real sector (real ``chi_k``: ``k = 0``, ``k = N/2`` for even N, and every
    Klein sector) ``lam = +-1`` and ``J`` is the reflection itself, so each
    half splits again: the reflection-even block, first, holds ``q_a`` for
    ``lam = +1`` and ``(q_a + lam q_b) / sqrt(2)``; the odd one holds
    ``q_a`` for ``lam = -1`` and ``(q_a - lam q_b) / sqrt(2)``.  Empty
    blocks are skipped, so ``N = 2``, where the reflection is the identity,
    has no odd ones.
    """
    num_colors = spec.num_colors
    reps = len(colors)
    translate, inverse, sectors = _color_group(num_colors)
    row, targets, values = _representative_rows(spec, colors)
    places = num_colors ** np.arange(spec.n - 1, -1, -1)
    shift = targets // reps
    orbit = translate(colors[targets % reps, 1:], inverse[shift][:, None]) @ places[1:]
    ranks = np.arange(reps)
    last = colors[:, -1]
    mirror = translate(colors[:, ::-1], inverse[last][:, None]) @ places
    reflect = -colors % num_colors @ places
    half = np.sqrt(0.5)
    for k, roots, multiplicity in sectors:
        real = not np.iscomplexobj(roots)
        entries = values * roots[shift]
        reversal = roots[inverse[last]]
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
                block = _assemble(row, orbit, entries, slot_col, slot_coef, keep)
                yield k, block, multiplicity
                continue
            even = np.where(paired, ~upper, lam > 0)
            for keep in (even, ~even):
                if keep.any():
                    # At most one slot of a representative lies in this block.
                    lower = keep[slot_col[:, :1]]
                    cols = np.where(lower, slot_col[:, :1], slot_col[:, 1:])
                    coefs = np.where(lower, slot_coef[:, :1], slot_coef[:, 1:])
                    block = _assemble(row, orbit, entries, cols, coefs, keep)
                    yield k, block, multiplicity


def _two_color_eigenvalues(spec: ModelSpec) -> np.ndarray:
    """The ``2^n`` eigenvalues of the N = 2 kernel, unsorted.

    Each is ``1 - sum_{j in J} (1 - alpha_j) / n`` over a subset ``J``, with
    ``alpha`` the eigenvalues of the tridiagonal ``A`` of the module
    docstring; the subset sums are built by doubling, one site at a time.
    """
    n = spec.n
    coupling = np.full(n, math.tanh(2.0 / spec.temp) / 2)
    coupling[[0, -1]] = math.tanh(1.0 / spec.temp)
    hop = np.sqrt(coupling[:-1]) * np.sqrt(coupling[1:])
    alpha = np.linalg.eigvalsh(np.diag(hop, 1) + np.diag(hop, -1))
    sums = np.zeros(1)
    for step in (1.0 - alpha) / n:
        sums = np.concatenate([sums, sums + step])
    return 1.0 - sums


def spectrum(kernel: SparseKernel) -> Spectrum:
    """Compute the full spectrum of the kernel.

    At N = 2 the eigenvalues are the closed-form subset sums of the module
    docstring, from one ``n x n`` tridiagonal solve.  For N >= 3 they come
    from dense real symmetric solves of the blocks of one color sector per
    isospectral class, each counted for its class: sectors 0 and 1 of the
    Klein four-group at N = 4 (sector 1 three times), and one cyclic sector
    per ``gcd(k, N)`` otherwise.  A real sector gives up to four reversal and
    reflection blocks, a complex one two reversal halves in real form.  They
    are returned in descending order without merging ties.

    Raises:
        BudgetExceededError: If the dimension exceeds ``DENSE_SOLVE_BUDGET``,
            which caps the whole state space, not the block size.
        RuntimeError: If the real form of a complex sector keeps more than
            rounding in its imaginary part, or the leading eigenvalue is not 1.
    """
    spec = kernel.spec
    check_budget(spec, DENSE_SOLVE_BUDGET, "dense symmetrization")
    if spec.num_colors == 2:
        eigs = _two_color_eigenvalues(spec)
    else:
        parts = []
        reps = spec.num_states // spec.num_colors
        for _, block, multiplicity in _sector_blocks(spec, kernel.colors[:reps]):
            eigs = np.linalg.eigvalsh(block)
            parts.extend([eigs] * multiplicity)
        eigs = np.concatenate(parts)
    eigs = np.ascontiguousarray(np.sort(eigs)[::-1])
    if abs(eigs[0] - 1.0) > 1e-8:
        raise RuntimeError(
            f"leading eigenvalue {eigs[0]!r} is not 1; solver failure"
        )
    eigs.flags.writeable = False
    return Spectrum(eigenvalues=eigs)
