"""State space, Hamiltonian, and stationary distribution of the 1-D N-color chain.

A configuration assigns one of ``num_colors`` colors to each of ``n`` sites.
Adjacent sites that agree contribute +1 to the Hamiltonian and disagreeing
ones contribute -1; the chain has free boundaries.  The stationary
distribution weights a configuration ``x`` by ``exp(H(x)/T)``.

A state is passed around as its rank, a plain integer; :func:`encode_rank`
and :func:`decode_rank` convert between a rank and its color vector.  The
whole state space is enumerated in one place, :func:`colors_table`, which is
also the one place that enforces ``EXACT_STATES_BUDGET``; its row ``r`` is
the color vector of rank ``r``.  The energies and the stationary measure are
computed from that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Operations that materialize the full state space refuse above this size.
EXACT_STATES_BUDGET = 65536
# Dense symmetric eigensolves refuse above this size.
DENSE_SOLVE_BUDGET = 4096


class BudgetExceededError(RuntimeError):
    """An exact-mode operation would touch more states than its budget allows,
    or needs more memory than the machine grants."""


class PrecisionLimitError(ArithmeticError):
    """An exact result is not representable in float64 at this temperature."""


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


def check_budget(spec: ModelSpec, limit: int, operation: str) -> None:
    """Raise :class:`BudgetExceededError` when ``N^n`` exceeds ``limit``.

    ``N^n`` is never formed: with ``N >= 2``, ``N`` raised to
    ``min(n, limit.bit_length())`` exceeds ``limit`` exactly when ``N^n``
    does, so a huge ``n`` costs nothing.
    """
    if spec.num_colors ** min(spec.n, limit.bit_length()) > limit:
        raise BudgetExceededError(
            f"{operation} would touch {spec.num_colors}^{spec.n} states, "
            f"exceeding its budget of {limit}"
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
    ranks = np.arange(spec.num_states, dtype=np.int64)
    table = np.empty((spec.num_states, spec.n), dtype=np.int8)
    for i in range(spec.n):
        place = spec.num_colors ** (spec.n - 1 - i)
        table[:, i] = (ranks // place) % spec.num_colors
    return table


def energies_table(colors: np.ndarray) -> np.ndarray:
    """Hamiltonian of every row of a :func:`colors_table`, shape ``(num_states,)``."""
    agree = (colors[:, :-1] == colors[:, 1:]).astype(np.int32)
    return (2 * agree - 1).sum(axis=1)


@dataclass(frozen=True)
class GibbsMeasure:
    """Stationary distribution over all states.

    Attributes:
        weights: Probability per rank; strictly positive, sums to 1.
        log_z: Log of the normalizing constant.
    """

    weights: np.ndarray
    log_z: float


def stationary_measure(spec: ModelSpec, colors: np.ndarray) -> GibbsMeasure:
    """Compute the stationary distribution exactly from the state table.

    Weights are evaluated in the log domain so that small temperatures cannot
    overflow.  The normalizer is a log-sum-exp shifted by the largest log
    weight ``a``, with the ``k`` terms at ``a`` kept out of the sum ``s`` of
    the others: ``log Z = log1p(s / k) + log k + a`` (Blanchard, Higham and
    Higham 2021), the evaluation of ``scipy.special.logsumexp``.

    Args:
        spec: Chain parameters.
        colors: :func:`colors_table` of ``spec``.
    """
    log_weights = energies_table(colors) / spec.temp
    top = log_weights.max()
    at_top = log_weights == top
    count = float(at_top.sum())
    rest = np.exp(log_weights - top)
    rest[at_top] = 0.0
    log_z = float(np.log1p(rest.sum() / count) + np.log(count) + top)
    weights = np.exp(log_weights - log_z)
    weights.flags.writeable = False
    return GibbsMeasure(weights=weights, log_z=log_z)


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
