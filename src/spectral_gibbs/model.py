"""State space, Hamiltonian, and stationary distribution of the 1-D N-color chain.

A configuration assigns one of ``num_colors`` colors to each of ``n`` sites.
Adjacent sites that agree contribute +1 to the Hamiltonian and disagreeing
ones contribute -1; the chain has free boundaries.  The stationary
distribution weights a configuration ``x`` by ``exp(H(x)/T)``.

A state is passed around as its rank, a plain integer; :func:`encode_rank`
and :func:`decode_rank` convert between a rank and its color vector.  The
whole state space is enumerated in one place, :func:`colors_table`, which is
also the one place that enforces ``EXACT_STATES_BUDGET``; its row ``r`` is
the color vector of rank ``r``.  :func:`color_rows` enumerates a prefix of
it, such as the ``N^(n-1)`` states whose first color is 0.  The energies
and the stationary measure are computed from that table; its normalizer
:func:`log_partition` and :func:`least_likely_rank` are closed forms.

The module also defines the package's two tolerances, under which every
verdict is decided: ``EIGENVALUE_TOLERANCE`` for comparisons of an exact
eigenvalue and ``ROUNDING_TOLERANCE`` for every other one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Operations that materialize the full state space refuse above this size.
EXACT_STATES_BUDGET = 65536
# The spectrum's cap on N^n at N >= 3, the order of the matrix that its
# dense symmetry blocks split; the N = 2 spectrum is one root at any n.
DENSE_SOLVE_BUDGET = 4096

# The room every comparison of an exact eigenvalue gets: the solved ends of
# the spectrum miss 0 and 1 by at most 3.1e-15 at N = 3..4096 and T from
# 0.02 to 1000, and beta1 at N = 2 by under an ulp: 30x headroom.
# It stays below ROUNDING_TOLERANCE, since more room would widen the set of
# chains whose Poincare and Theorem 3 verdicts cannot fail.
EIGENVALUE_TOLERANCE = 1e-13
# The room of every other comparison, relative to the quantity compared or
# absolute on a quantity at most 1: row sums, detailed balance,
# stationarity, slice identities, edge certificates, kappa against its
# closed form and its witness ties, the real form's imaginary part, the TV
# envelope and theta at 1.  Over N = 2..8 with N^n <= 4096 (n <= 16 at
# N = 2) and T from 0.06 to 100 they round to at most 2.3e-13, the slice
# identities at (16, 2, 0.5), so this leaves 4x headroom.
ROUNDING_TOLERANCE = 1e-12


class BudgetExceededError(RuntimeError):
    """An exact-mode operation would touch more states than its budget allows,
    or needs more memory than the machine grants."""


class PrecisionLimitError(ArithmeticError):
    """An exact result is not representable in float64 at this temperature."""


class SolverError(RuntimeError):
    """An exact solve failed its own check: its result is wrong, not past
    float64."""


@dataclass(frozen=True)
class ModelSpec:
    """Chain parameters.

    Attributes:
        n: Number of lattice sites, at least 1.
        num_colors: Number of colors per site, at least 2.
        temp: Temperature, strictly positive and finite.
    """

    n: int
    num_colors: int
    temp: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if self.num_colors < 2:
            raise ValueError(f"num_colors must be at least 2, got {self.num_colors}")
        if not 0 < self.temp < float("inf"):
            raise ValueError(f"temp must be positive and finite, got {self.temp}")

    @property
    def num_states(self) -> int:
        """Size of the state space, ``num_colors ** n``."""
        return self.num_colors**self.n


def exceeds_budget(spec: ModelSpec, limit: int) -> bool:
    """Whether ``N^n`` exceeds ``limit``.

    ``N^n`` is never formed: with ``N >= 2``, ``N`` raised to
    ``min(n, limit.bit_length())`` exceeds ``limit`` exactly when ``N^n``
    does, so a huge ``n`` costs nothing.
    """
    return spec.num_colors ** min(spec.n, limit.bit_length()) > limit


def check_budget(spec: ModelSpec, limit: int, operation: str) -> None:
    """Raise :class:`BudgetExceededError` when :func:`exceeds_budget`."""
    if exceeds_budget(spec, limit):
        raise BudgetExceededError(
            f"{operation} would touch {spec.num_colors}^{spec.n} states, "
            f"exceeding its budget of {limit}"
        )


# Log of the largest finite float64.
LOG_FLOAT_MAX = math.log(sys.float_info.max)


def check_exponent_range(spec: ModelSpec) -> None:
    """Raise :class:`PrecisionLimitError` when Boltzmann exponents differ
    past the float range: by up to ``4/T`` in a conditional, ``2(n-1)/T``
    in ``pi``."""
    try:
        finite = np.isfinite(max(4, 2 * (spec.n - 1)) / spec.temp)
    except OverflowError:  # 2(n-1) itself is past the float range
        finite = False
    if not finite:
        raise PrecisionLimitError(
            f"Boltzmann exponents differ past the float range at temp {spec.temp!r}"
        )


def encode_rank(spec: ModelSpec, colors: Sequence[int]) -> int:
    """Encode a color vector as its big-endian base-``num_colors`` rank.

    Args:
        spec: Chain parameters.
        colors: Color index per site.

    Returns:
        Integer rank in ``[0, num_states)``.

    Raises:
        ValueError: If the length differs from ``spec.n`` or a color index
            is outside ``[0, num_colors)``.
    """
    if len(colors) != spec.n:
        raise ValueError(f"expected {spec.n} sites, got {len(colors)}")
    rank = 0
    for c in colors:
        if not 0 <= c < spec.num_colors:
            raise ValueError(
                f"color index {c} out of range for {spec.num_colors} colors"
            )
        rank = rank * spec.num_colors + int(c)
    return rank


def decode_rank(spec: ModelSpec, rank: int) -> tuple[int, ...]:
    """Decode a rank back into its color vector (inverse of :func:`encode_rank`)."""
    if not 0 <= rank < spec.num_states:
        raise ValueError(f"rank {rank} out of range for {spec.num_states} states")
    colors = [0] * spec.n
    r = int(rank)
    for i in range(spec.n - 1, -1, -1):
        colors[i] = r % spec.num_colors
        r //= spec.num_colors
    return tuple(colors)


def colors_table(spec: ModelSpec) -> np.ndarray:
    """Color vectors of every state, shape ``(num_states, n)``, rank order.

    Raises:
        BudgetExceededError: If ``num_states`` exceeds ``EXACT_STATES_BUDGET``.
    """
    check_budget(spec, EXACT_STATES_BUDGET, "state enumeration")
    return color_rows(spec, spec.num_states)


def color_rows(spec: ModelSpec, count: int) -> np.ndarray:
    """Color vectors of ranks ``0 .. count - 1``, shape ``(count, n)``: the
    first rows of :func:`colors_table`, in its dtype."""
    ranks = np.arange(count, dtype=np.int64)
    # The least signed type that holds -N - 1, so N itself: numpy refuses a
    # Python N past the table's type, and the color reflection -c mod N
    # needs the sign.  Up to 127 colors that is int8.
    dtype = np.min_scalar_type(-spec.num_colors - 1)
    table = np.empty((count, spec.n), dtype=dtype)
    for i in range(spec.n):
        place = spec.num_colors ** (spec.n - 1 - i)
        table[:, i] = (ranks // place) % spec.num_colors
    return table


def energies_table(colors: np.ndarray) -> np.ndarray:
    """Hamiltonian of every row of a :func:`colors_table`, shape ``(num_states,)``."""
    agree = (colors[:, :-1] == colors[:, 1:]).astype(np.int32)
    return (2 * agree - 1).sum(axis=1)


def log_partition(spec: ModelSpec) -> float:
    """Log of the normalizer ``Z = N (e^{1/T} + (N-1) e^{-1/T})^{n-1}`` of
    the stationary measure: summed site by site, each bond contributes its
    transfer matrix's row sum, whatever the color before it.  Evaluated as
    ``(n-1)/T + log_excess(spec)``: no term overflows, and ``(n-1)/T`` is
    the ground state's log weight bitwise."""
    return (spec.n - 1) / spec.temp + log_excess(spec)


def log_excess(spec: ModelSpec) -> float:
    """``r = log Z - (n-1)/T``, minus the log probability of a ground state,
    formed directly as ``log N + (n-1) log1p((N-1) e^{-2/T})``."""
    spread = math.log1p((spec.num_colors - 1) * math.exp(-2.0 / spec.temp))
    return math.log(spec.num_colors) + (spec.n - 1) * spread


def least_likely_rank(spec: ModelSpec) -> int:
    """Rank of the first least likely state, 0, 1, 0, 1, ...: the least
    color vector whose bonds all disagree, ``sum over odd i of N^(n-1-i)``,
    summed as ``N^(n mod 2) (N^(2 floor(n/2)) - 1) / (N^2 - 1)``."""
    num_colors, n = spec.num_colors, spec.n
    return num_colors ** (n % 2) * (num_colors ** (n - n % 2) - 1) // (num_colors**2 - 1)


def stationary_measure(spec: ModelSpec, colors: np.ndarray) -> np.ndarray:
    """The stationary probability ``exp((H - (n-1))/T - log_excess)`` of every
    row of ``colors``, the :func:`colors_table` of ``spec``, read-only: with
    ``H - (n-1)`` an exact integer, no rounding of a large ``log Z`` enters."""
    shifted = energies_table(colors) - (spec.n - 1)
    weights = np.exp(shifted / spec.temp - log_excess(spec))
    weights.flags.writeable = False
    return weights


def color_letter(index: int) -> str:
    """Presentation label of a color index: 0 is 'a', 1 is 'b', and so on."""
    if not 0 <= index < 26:
        raise ValueError(f"no letter label for color index {index}")
    return chr(ord("a") + index)


def color_index(letter: str) -> int:
    """Inverse of :func:`color_letter`."""
    if len(letter) != 1 or not "a" <= letter <= "z":
        raise ValueError(f"color letters are 'a'..'z', got {letter!r}")
    return ord(letter) - ord("a")


def colors_to_string(colors: Sequence[int]) -> str:
    """Render a color vector as a letter string, e.g. ``(0, 0, 1)`` to ``'aab'``."""
    return "".join(color_letter(c) for c in colors)


def string_to_colors(spec: ModelSpec, text: str) -> tuple[int, ...]:
    """Parse a letter string into a color vector, validating against ``spec``."""
    if len(text) != spec.n:
        raise ValueError(f"expected {spec.n} letters, got {len(text)}")
    colors = tuple(color_index(ch) for ch in text)
    for c in colors:
        if c >= spec.num_colors:
            raise ValueError(
                f"letter {color_letter(c)!r} out of range for {spec.num_colors} colors"
            )
    return colors
