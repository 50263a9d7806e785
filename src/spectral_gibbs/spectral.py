"""The second eigenvalue of the kernel, ``beta1``: in closed form at N = 2,
else from its color and site-reversal symmetry blocks.

Reversibility makes ``S = D^{1/2} P D^{-1/2}`` symmetric (``D = diag(pi)``),
so ``P`` has the real spectrum of ``S``.  Random-scan Gibbs is
``P = (1/n) sum_i E_i``, where ``E_i`` resamples site ``i`` and is an
orthogonal projection in ``L^2(pi)``, so ``0 <= P <= I`` (Liu, Wong and
Kong 1995).  The rate of convergence, the largest modulus of an eigenvalue
other than the leading 1, is then ``beta1``, and no other eigenvalue is
kept: a :class:`Spectrum` holds ``beta1``, clamped at 0 where rounding puts
it below.  For N >= 3 :func:`spectrum_at` checks that the solved eigenvalues
run from 0 to 1, within ``EIGENVALUE_TOLERANCE``, and raises a
:class:`~spectral_gibbs.model.SolverError` where they do not.

This module alone decides whether a chain has an exact spectrum:
:func:`spectrum_at` refuses a chain of N >= 3 colors past
``DENSE_SOLVE_BUDGET`` states before any work (at N = 2 it solves one
equation, at any n), and a :class:`Spectrum` cannot hold a ``beta1`` that
rounded to 1, so every reader reads a resolved gap.

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
extension of the one-particle matrix ``M``, rows ``c_i (u_{i-1} + u_{i+1})``,
which ``diag(sqrt(c))`` makes a symmetric tridiagonal ``A``; its eigenvalues
are the sums of ``k`` distinct eigenvalues ``alpha_j`` of ``A``.  The ``2^n``
eigenvalues of ``P`` are ``1 - (1/n) sum_{j in J} (1 - alpha_j)`` over the
subsets ``J`` of ``{1..n}``.  Every term is positive, so the least nonempty
sum is one term and the largest the whole set:
``beta1 = 1 - (1 - max alpha) / n``, and the least eigenvalue is
``1 - sum_j (1 - alpha_j) / n = tr(A) / n = 0``.  For n >= 2 the top
eigenvector of ``M`` is positive and reversal-even, so it is
``u_i = cos((i - (n+1)/2) theta)`` with ``0 < theta < pi/(n-1)``; the
interior rows hold at any ``theta``, with ``alpha = tanh(2/T) cos theta``.
With ``t = tanh(1/T)``, ``q = e^{-2/T}`` and ``h = (n-1)/2``, each end row
leaves ``cos((h+1) theta) = t^2 cos((h-1) theta)``, that is
``(1 - t^2) cos((h-1) theta) = 2 sin(h theta) sin theta`` with
``1 - t^2 = 4q/(1+q)^2``.  The left side is the larger as ``theta -> 0`` and
the right side at ``pi/(n-1)``, so bisection finds the root, in O(1) at any n.
Then ``1 - alpha = 2q^2/(1+q^2) + 2 tanh(2/T) sin^2(theta/2)`` is a sum of
positive terms, so the gap keeps its relative accuracy at low T, where it
tends to ``2 e^{-2/T} / (n(n-1))``.

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
solved, sector 1 counted three times.  On sector 0 the color permutations
act through ``S4 / V4``, the S3 of the 3-cycle ``sigma = (1 2 3)``, which
fixes color 0 and so permutes the representatives, and the swap ``(1 3)``.
Its irreducibles are the trivial 1, the sign 1' and the two-dimensional E,
so sector 0 holds E's multiplicity space twice (Diaconis 1988; Boyd,
Diaconis, Parrilo and Xiao 2005).  Sector 0 is therefore split first by the
characters ``omega^k3`` of ``sigma``, ``omega = exp(2 pi i / 3)``:
``k3 = 0`` holds 1 and 1', and ``k3 = 1`` and ``k3 = 2`` one copy of E
each.  ``(1 3)`` conjugates ``sigma`` into ``sigma^-1`` and so maps ``k3 = 1``
onto ``k3 = 2``; only ``k3 = 1`` is solved, counted twice.  No other N is
split so: at N = 3 the shift and the reflection already make all of S3, and
at N >= 5 sector 0 is at most about a fifth of the ``eigvalsh`` work.

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
``m / (4N)`` states and a complex sector two of about ``m / (2N)``.  At
N = 4 the ``k3 = 0`` part of sector 0 is split like a real sector and
``k3 = 1`` like a complex one, summed in real arithmetic
(:class:`SectorPlan`).  At (6,4) sector 0 is six blocks, of 107, 75, 80
and 80 rows for ``k3 = 0`` and 181 and 160 for ``k3 = 1``, 683 rows solved
where the reversal and reflection alone gave four of 240 to 288, and
sector 1 four of 240 to 272.  Every block is solved densely in real
arithmetic by numpy's ``eigvalsh`` (LAPACK ``syevd``), so the spectrum
needs no scipy; ``beta1`` is read off the union of the block eigenvalues,
each block counted for its class.  The blocks are general in N; at N = 2
they are a test oracle for the closed form.  They need no kernel: a
:class:`SectorPlan` is built from ``(n, N)`` alone, and ``sweep`` shares
one among its temperatures; :func:`spectrum` reads nothing of its kernel
but the spec, so a row or color table that fails ``verify``'s checks leaves
the spectrum unchanged.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .model import DENSE_SOLVE_BUDGET, EIGENVALUE_TOLERANCE, ROUNDING_TOLERANCE
from .model import ModelSpec, PrecisionLimitError, SolverError
from .model import check_budget, check_exponent_range, color_rows, exceeds_budget
from .kernel import SparseKernel, move_targets, transition_data
from .kernel import check_detailed_balance  # noqa: F401 -- perfbench/spans.py wraps this name


@dataclass(frozen=True)
class Spectrum:
    """The eigenvalue of one kernel that the package reads.

    A ``beta1`` that rounded to 1 is refused when the spectrum is made: a
    verdict that compared a bound with it would pass or fail on rounding.

    Attributes:
        spec: The chain whose kernel was solved.
        beta1: Second largest eigenvalue, clamped at 0 as ``P >= 0`` allows;
            it is also the rate of convergence.
    """

    spec: ModelSpec
    beta1: float

    def __post_init__(self) -> None:
        if not self.beta1 < 1.0:
            raise PrecisionLimitError(
                f"beta1 = {self.beta1!r}: the spectral gap is below float64 resolution"
            )


def exceeds_spectrum_budget(spec: ModelSpec) -> bool:
    """Whether :func:`spectrum_at` refuses ``spec``: for N >= 3, the order of
    the ``N^n x N^n`` ``S`` that the blocks split, which is never formed,
    past ``DENSE_SOLVE_BUDGET``.  The root in ``theta`` of N = 2 has no cap."""
    return spec.num_colors > 2 and exceeds_budget(spec, DENSE_SOLVE_BUDGET)


def check_spectrum_budget(spec: ModelSpec) -> None:
    """Raise :class:`BudgetExceededError` when :func:`exceeds_spectrum_budget`."""
    if spec.num_colors > 2:
        check_budget(spec, DENSE_SOLVE_BUDGET, "dense symmetrization")


def _plan_block(
    row: np.ndarray,
    orbit: np.ndarray,
    slot_col: np.ndarray,
    slot_coef: np.ndarray,
    keep: np.ndarray,
) -> tuple[int, np.ndarray, np.ndarray]:
    """The real block ``Q^H B Q`` over the kept columns of a two-slot basis
    ``Q``, as ``(size, coef, index)``, for any sector matrix ``B``.

    Representative ``s`` has the coefficient ``slot_coef[s, t]`` in column
    ``slot_col[s, t]`` of ``Q``.  Entry ``e`` of ``S``, at
    ``[x, s] = [row[e], orbit[e]]``, adds ``conj(coef[t, x]) B[x, s]
    coef[u, s]`` at ``index[t, u, e]``, the flat position of the two slots'
    columns in the ``size x size`` block.  A slot outside the block has
    coefficient 0 and column 0.  Both are slot-major, so :func:`_assemble`
    multiplies whole rows of gathered coefficients.
    """
    size = int(keep.sum())
    kept = keep[slot_col]
    # The index stays in bincount's own intp: a narrower one would be widened
    # into a fresh array at every temperature.
    col = np.where(kept, np.cumsum(keep)[slot_col] - 1, 0).T.astype(np.intp)
    coef = np.ascontiguousarray(np.where(kept, slot_coef, 0.0).T)
    first = col.take(row, axis=1) * size
    index = (first[:, None, :] + col.take(orbit, axis=1)[None, :, :]).ravel()
    return size, coef, index


def _assemble(
    block: tuple[int, np.ndarray, np.ndarray],
    row: np.ndarray,
    orbit: np.ndarray,
    entries: np.ndarray,
) -> np.ndarray:
    """The real block of :func:`_plan_block` from the entries of its
    sector's ``B``.

    One ``bincount`` sums every product ``conj(Q[x, a]) B[x, s] Q[s, b]``,
    duplicates included.  A product with a slot outside the block is 0 and
    leaves its sum as it is, since the sums start at +0.  Each column of a
    block is one slot's column (slot 0 the lower of a pair), so the nonzero
    products summed into an entry share one slot pair and are added in
    entry order, whatever the layout.  The imaginary part
    the ``bincount`` drops must be rounding: at each entry at most
    ``ROUNDING_TOLERANCE`` of the absolute mass of the products summed into
    it, 0 if none.  A bound on the largest entry of ``B`` alone would not
    hold where one entry sums thousands of them, as at one site with 4096
    colors.
    """
    size, coef, index = block
    left = coef.conj().take(row, axis=1) * entries
    terms = (left[:, None, :] * coef.take(orbit, axis=1)[None, :, :]).ravel()
    matrix = np.bincount(index, terms.real, size * size).reshape(size, size)
    if np.iscomplexobj(terms):
        imag = np.abs(np.bincount(index, terms.imag, size * size))
        mass = np.bincount(index, np.abs(terms), size * size)
        if np.any(imag > ROUNDING_TOLERANCE * mass):
            raise SolverError(
                f"real form of a complex sector has imaginary part {imag.max():.3e}"
            )
    return matrix


def _color_group(
    num_colors: int,
) -> tuple[Callable, np.ndarray, list[tuple[int, np.ndarray, int]]]:
    """The free color group whose sectors a :class:`SectorPlan` solves.

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


def _cycle_parts(
    colors: np.ndarray, places: np.ndarray
) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """The two parts of Klein sector 0 at N = 4 that the color 3-cycle
    ``sigma = (1 2 3)`` splits, as ``(multiplicity, leader, phase, norm)``.

    ``sigma`` fixes color 0, so it permutes the representatives ``colors``;
    its orbits hold three, except the all-0 state, which it fixes.  The unit
    of an orbit with character ``k3`` of ``<sigma>`` holds representative
    ``s = sigma^j(leader[s])``, ``leader`` the orbit's least rank, with the
    coefficient ``phase[s] * norm[s]``: ``phase = omega^(-j k3)`` and
    ``norm = 1 / sqrt(orbit size)``, 0 where ``s`` lies in no unit.
    ``k3 = 0`` holds every orbit; ``k3 = 1`` every orbit but the fixed one,
    and counts twice for the isospectral ``k3 = 2``.
    """
    ranks = np.arange(len(colors))
    forward = np.array([0, 2, 3, 1])[colors] @ places
    backward = np.array([0, 3, 1, 2])[colors] @ places
    leader = np.minimum(ranks, np.minimum(forward, backward))
    steps = np.select([ranks == leader, backward == leader], [0, 1], 2)
    fixed = forward == ranks
    return [
        (1, leader, np.ones(len(colors)), np.where(fixed, 1.0, np.sqrt(1 / 3))),
        (2, leader, np.exp(-2j * np.pi * steps / 3), np.where(fixed, 0.0, np.sqrt(1 / 3))),
    ]


class SectorPlan:
    """The real symmetric blocks of ``S`` at one ``(n, N)``, for any
    temperature.

    Building the plan enumerates the representatives and fixes which entry
    of ``S`` goes where in which block; none of that reads the temperature.
    It keeps each sector's character and, per block, its size, the basis
    coefficient of every representative and the flat position of every
    entry's products.  :meth:`blocks` then evaluates the entries at one
    temperature, multiplies each by the character of its column's
    translation and sums the products into each block with one
    ``bincount``.

    The ``N^(n-1)`` states whose site-1 color is 0, ``colors``, represent
    the orbits of the free color group ``G`` of ``_color_group``.  A column
    ``y`` is its orbit's representative ``s`` translated by
    ``j = y // (m/N)``, its site-1 color, and ``s`` is representative
    ``y % (m/N)`` with its tail translated by ``j^-1``, so sector ``k``
    holds ``sum_j S[x, j(s)] chi_k(j)`` at ``[x, s]``.  Only one sector of
    each isospectral class is built; its blocks carry the class's
    multiplicity.

    The splits below act on units, an orthonormal basis of the sector: one
    ``e_s`` per representative, except in sector 0 at N = 4.  There each
    character ``k3`` of the 3-cycle ``sigma`` of :func:`_cycle_parts` is a
    part with its own blocks, and its units are
    ``u_L = sum_j omega^(-j k3) e_sigma^j(L) / sqrt(3)`` over the orbits of
    ``sigma``, each named by its least representative ``L``, plus ``e_s``
    for the all-0 state, which ``sigma`` fixes, in ``k3 = 0``.  The reversal
    commutes with ``sigma`` and ``J`` below keeps ``k3``, so both take units
    to units times a phase; a representative's coefficient in a column is its
    unit's times its own in the unit.

    Reversing the sites commutes with both ``S`` and ``G``.  In sector ``k``
    it maps ``e_s`` to ``chi_k(s_n^-1) e_s'``, where ``s'`` is the reversal
    of ``s`` translated by ``s_n^-1``; with ``chi_k(s_n)`` the map would not
    commute with a complex sector.  So it maps unit ``u_L`` to ``t u_L'``, with
    ``L'`` the leader of ``s'`` and ``t`` that phase times the ratio of the
    two representatives' phases in their units.  Its ``+1`` and ``-1`` halves
    have the orthonormal bases ``q = (u_L +- t u_L') / sqrt(2)`` over the pairs
    ``L < L'``, plus ``u_L`` for each ``L = L'`` in the half whose sign is
    ``t``.  The even half comes first.

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

    The reflection conjugates ``sigma`` into ``sigma^-1`` and so maps
    ``k3 = 1`` onto ``k3 = 2``, as it maps a complex sector onto its
    conjugate; ``J`` keeps each half of ``k3 = 1`` and gives it the two-slot
    basis of a complex sector.  But sector 0's ``B`` is real, and a basis
    vector ``v`` of ``k3 = 1`` and ``conj(v)`` of ``k3 = 2`` are orthogonal,
    so ``sqrt(2) Re(v)`` has the inner products and the block entries of
    ``v``: the block takes those real coefficients and is summed in real
    arithmetic.

    Attributes:
        colors: The representatives' color rows, ranks ``0 .. m/N - 1`` of
            the :func:`~spectral_gibbs.model.colors_table`.
        row, targets: Row and target rank of every entry of ``S`` in the
            representatives' rows, each row sorted by target, the column
            order of a CSR matrix.
        orbit: The representative of the orbit of each target.
    """

    def __init__(self, spec: ModelSpec) -> None:
        """The plan of ``spec.n`` and ``spec.num_colors``; ``spec.temp`` is
        not read."""
        num_colors = spec.num_colors
        reps = num_colors ** (spec.n - 1)
        self.colors = colors = color_rows(spec, reps)
        cols, self._moves = move_targets(spec, colors)
        self._order = np.argsort(cols, axis=1)
        self.row = row = np.repeat(np.arange(reps), cols.shape[1])
        self.targets = targets = np.take_along_axis(cols, self._order, axis=1).ravel()
        translate, inverse, sectors = _color_group(num_colors)
        places = num_colors ** np.arange(spec.n - 1, -1, -1)
        self._shift = shift = targets // reps
        self.orbit = orbit = (
            translate(colors[targets % reps, 1:], inverse[shift][:, None]) @ places[1:]
        )
        ranks = np.arange(reps)
        last = colors[:, -1]
        mirror = translate(colors[:, ::-1], inverse[last][:, None]) @ places
        reflect = -colors % num_colors @ places
        half = np.sqrt(0.5)
        self._sectors = []
        parts = []
        for k, roots, multiplicity in sectors:
            if num_colors == 4 and k == 0:
                parts += [(k, roots, *part) for part in _cycle_parts(colors, places)]
            else:
                parts.append((k, roots, multiplicity, ranks, np.ones(reps), np.ones(reps)))
        for k, roots, count, leader, phase, norm in parts:
            real = not (np.iscomplexobj(roots) or np.iscomplexobj(phase))
            blocks = []
            self._sectors.append((k, count, roots, blocks))
            # The reversal maps the unit of leader s to turn[s] times the
            # unit of leader image[s].
            image = leader[mirror]
            turn = roots[inverse[last]] * phase / phase[mirror]
            units = (leader == ranks) & (norm > 0)
            for sign in (1.0, -1.0):
                lead = np.flatnonzero(
                    units & ((ranks < image) | (ranks == image) & (sign * turn.real > 0))
                )
                if lead.size == 0:
                    continue
                # Column and coefficient of each unit in q, then of each
                # representative; zero coefficients for the fixed points
                # of the other half and for representatives in no unit.
                index = np.arange(lead.size)
                column = np.zeros(reps, dtype=np.int64)
                coef = np.zeros(reps, dtype=turn.dtype)
                column[image[lead]] = column[lead] = index
                coef[image[lead]] = sign * half * turn[lead]
                coef[lead] = np.where(image[lead] == lead, 1.0, half)
                column, coef = column[leader], coef[leader] * phase * norm
                partner = column[reflect[lead]]
                lam = coef[lead] / coef[reflect[lead]]
                # A representative in column a sits in both columns of its
                # pair: slot 0 in the lower one, slot 1 in the upper one.
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
                    if not np.iscomplexobj(roots):
                        # B is real here: sqrt(2) Re(v) has the block of v.
                        slot_coef = np.sqrt(2.0) * slot_coef.real
                    blocks.append(_plan_block(row, orbit, slot_col, slot_coef, keep))
                    continue
                even = np.where(paired, ~upper, lam > 0)
                for keep in (even, ~even):
                    if keep.any():
                        # At most one slot of a representative lies in this block.
                        lower = keep[slot_col[:, :1]]
                        cols = np.where(lower, slot_col[:, :1], slot_col[:, 1:])
                        coefs = np.where(lower, slot_coef[:, :1], slot_coef[:, 1:])
                        blocks.append(_plan_block(row, orbit, cols, coefs, keep))

    def values(self, spec: ModelSpec) -> np.ndarray:
        """The entry of ``S`` at every ``[row, target]`` at ``spec.temp``.

        Every entry is ``sqrt(P_xy P_yx)``, which equals
        ``sqrt(pi_x) P_xy / sqrt(pi_y)`` under detailed balance but never
        divides by a ``sqrt(pi)`` that underflowed.  A move at site ``i``
        from color ``c`` to ``c'`` sees the same neighbors as its reverse, so
        its entry is ``sqrt((p_c' / n) (p_c / n))`` with ``p`` the
        conditional at that site.  The diagonal is the holding probability
        itself, which its square would lose where it underflows.

        The kernel's row table holds the same moves, but a spectrum read from
        it would turn a corrupted table, which fails ``verify``'s
        detailed-balance check, into a failure of the eigensolve.
        """
        forward, own = transition_data(spec, self.colors, self._moves)
        backward = np.repeat(own, spec.num_colors - 1, axis=1) / spec.n
        values = np.column_stack([forward[:, 0], np.sqrt(forward[:, 1:] * backward)])
        return np.take_along_axis(values, self._order, axis=1).ravel()

    def blocks(self, spec: ModelSpec) -> Iterator[tuple[int, np.ndarray, int]]:
        """Sector, real symmetric block and multiplicity of each block of
        ``S`` at ``spec.temp``; ``spec`` has the plan's ``(n, N)``."""
        values = self.values(spec)
        for k, multiplicity, roots, blocks in self._sectors:
            entries = values * roots[self._shift]
            for block in blocks:
                yield k, _assemble(block, self.row, self.orbit, entries), multiplicity


def _two_color_gap(spec: ModelSpec) -> float:
    """``n`` times the N = 2 gap, ``1 - max alpha``, at n >= 2: the module
    docstring's ``theta`` is bisected until the midpoint is an end."""
    q, h = math.exp(-2.0 / spec.temp), (spec.n - 1) / 2
    sech2 = 4 * q / (1 + q) ** 2
    lo, hi = 0.0, math.pi / (spec.n - 1)
    while lo < (theta := (lo + hi) / 2) < hi:
        above = sech2 * math.cos((h - 1) * theta) > 2 * math.sin(h * theta) * math.sin(theta)
        lo, hi = (theta, hi) if above else (lo, theta)
    return 2 * q * q / (1 + q * q) + 2 * math.tanh(2.0 / spec.temp) * math.sin(theta / 2) ** 2


def _two_color_beta1(spec: ModelSpec) -> float:
    """``beta1`` of the N = 2 kernel, unclamped; 0 at n = 1, where ``A = [0]``."""
    return 0.0 if spec.n == 1 else 1.0 - _two_color_gap(spec) / spec.n


def spectrum_at(spec: ModelSpec, plan: SectorPlan | None = None) -> Spectrum:
    """Compute ``beta1`` of ``spec`` from no kernel.

    At N = 2 it is the closed form of the module docstring, from one root
    ``theta``.  For N >= 3 it is the second largest eigenvalue of the blocks
    of ``plan`` (the :class:`SectorPlan` of the ``(n, N)``, built when None)
    at ``spec.temp``, each block counted for its isospectral class.  A chain
    past :func:`check_spectrum_budget` is refused first, before anything is
    enumerated or solved.

    Raises:
        BudgetExceededError: If :func:`exceeds_spectrum_budget`.
        PrecisionLimitError: If Boltzmann exponents differ past the float
            range, or the spectral gap rounded to 0.
        SolverError: If the real form of a complex sector keeps more than
            rounding in its imaginary part, or the block eigenvalues do not
            run from 0 to 1 within ``EIGENVALUE_TOLERANCE``.
    """
    check_spectrum_budget(spec)
    check_exponent_range(spec)
    if spec.num_colors == 2:
        beta1 = _two_color_beta1(spec)
    else:
        plan = SectorPlan(spec) if plan is None else plan
        parts = []
        for _, block, multiplicity in plan.blocks(spec):
            parts.extend([np.linalg.eigvalsh(block)] * multiplicity)
        eigs = np.concatenate(parts)
        least, beta1, leading = np.partition(eigs, [0, -2, -1])[[0, -2, -1]]
        if abs(leading - 1.0) > EIGENVALUE_TOLERANCE or least < -EIGENVALUE_TOLERANCE:
            ends = f"{float(least)!r} to {float(leading)!r}"
            raise SolverError(f"eigenvalues from {ends}, not from 0 to 1")
    return Spectrum(spec=spec, beta1=max(float(beta1), 0.0))


def spectrum(kernel: SparseKernel) -> Spectrum:
    """``beta1`` of the kernel: :func:`spectrum_at` its spec, which raises
    as that does; nothing else of the kernel is read."""
    return spectrum_at(kernel.spec)
