"""Random-scan single-site resampling kernel on the full state space.

One step of the chain picks a site uniformly at random and redraws its color
from the stationary conditional given the rest of the configuration.  The
conditional at a site depends only on the colors of the (at most two)
neighboring sites.

:class:`SparseKernel` is the one handle on a chain's state space: it carries
the color table that :func:`build_kernel` enumerated once, and everything
that receives a kernel derives its per-state tables from that table.  The
transition rows are read off two such tables, indexed
``[rank, site, color]``: the conditional of each resampling and the rank it
leads to.  :func:`move_targets` and :func:`transition_data` read them for
any prefix of the ranks, the targets once and the probabilities at each
temperature, so the spectrum builds the rows it needs without a kernel.
Its ``pi`` is normalized by :func:`~spectral_gibbs.model.log_partition`, a
closed form that needs no kernel and that the kernel does not carry.

The kernel stores the rows of every rank as a fixed-width row table, and the
checks of :func:`check_row_sums`, :func:`check_detailed_balance`,
:func:`check_stationarity` and :func:`check_irreducible` read that table
with numpy.  The move graph is symmetric, so the same table, with
:func:`reverse_data` in place of ``data``, holds the columns of ``P``; exact
propagation reads them.  Only :attr:`SparseKernel.matrix`, a CSR form that
nothing in the package reads, imports scipy, and only when it is first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .model import ModelSpec
from .model import check_exponent_range, colors_table, stationary_measure

if TYPE_CHECKING:
    import scipy.sparse as sp


def local_scores(spec: ModelSpec, neighbors: int | None = None) -> np.ndarray:
    """Bond scores ``s(left, c) + s(c, right)`` for every neighbor pattern,
    where a bond scores +1 when its two colors agree and -1 when they differ.

    Args:
        spec: Chain parameters.
        neighbors: How many neighbor indices to tabulate, from 0; all
            ``N + 1`` when None.

    Returns:
        Integer array of shape ``(neighbors, neighbors, N)`` indexed by
        ``[left color + 1, right color + 1, c]``; index 0 stands for a
        missing neighbor, whose bond contributes 0.
    """
    num_colors = spec.num_colors
    if neighbors is None:
        neighbors = num_colors + 1
    bonds = np.zeros((neighbors, num_colors), dtype=np.int64)
    bonds[1:] = 2 * np.eye(neighbors - 1, num_colors, dtype=np.int64) - 1
    return bonds[:, None, :] + bonds[None, :, :]


def local_conditionals(spec: ModelSpec, neighbors: int | None = None) -> np.ndarray:
    """Conditional color distributions indexed like :func:`local_scores`.

    Evaluated as a max-shifted softmax of the bond scores so small
    temperatures cannot overflow.  Every conditional in the package is read
    from this table.
    """
    logits = local_scores(spec, neighbors) / spec.temp
    logits -= logits.max(axis=2, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=2, keepdims=True)
    return probs


def conditional_table(spec: ModelSpec, colors: np.ndarray) -> np.ndarray:
    """Conditional distributions for every state and site.

    Args:
        spec: Chain parameters.
        colors: :func:`~spectral_gibbs.model.colors_table` of ``spec``.

    Returns:
        Array of shape ``(num_states, n, num_colors)`` where entry
        ``[x, i, c]`` is the probability that resampling site ``i+1`` of
        state ``x`` yields color ``c``.
    """
    # Neighbor indices into the local table: color + 1, and 0 past either end.
    padded = np.zeros((len(colors), spec.n + 2), dtype=np.int64)
    padded[:, 1:-1] = colors + 1
    # A single site has no neighbor, so only index 0 is read; the whole
    # table would hold (N + 1)^2 N entries, 7.5 GiB at N = 1000.
    neighbors = None if spec.n > 1 else 1
    return local_conditionals(spec, neighbors)[padded[:, :-2], padded[:, 2:]]


def successor_table(spec: ModelSpec, colors: np.ndarray) -> np.ndarray:
    """Rank reached by every single-site recoloring.

    Args:
        spec: Chain parameters.
        colors: :func:`~spectral_gibbs.model.colors_table` of ``spec``.

    Returns:
        Array of shape ``(num_states, n, num_colors)`` where entry
        ``[x, i, c]`` is the rank of state ``x`` with site ``i+1`` recolored
        to ``c``; it is ``x`` itself where ``c`` is the site's own color.
    """
    n, num_colors = spec.n, spec.num_colors
    places = num_colors ** np.arange(n - 1, -1, -1, dtype=np.int64)
    shifts = np.arange(num_colors) - colors[:, :, None].astype(np.int64)
    ranks = np.arange(len(colors), dtype=np.int64)
    return ranks[:, None, None] + shifts * places[None, :, None]


def move_targets(
    spec: ModelSpec, colors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The target ranks of the rows of ``P`` for ranks ``0 .. len(colors) - 1``,
    that prefix of the :func:`~spectral_gibbs.model.colors_table`, as
    ``(cols, moves)``; neither depends on the temperature.

    A row of ``cols`` holds the state itself, then one move per site and
    other color, in that order.  ``moves[x, i, c]`` is False only where
    ``c`` is the color site ``i+1`` of ``x`` has.
    """
    m = len(colors)
    moves = colors[:, :, None] != np.arange(spec.num_colors)
    successors = successor_table(spec, colors)[moves].reshape(m, -1)
    return np.column_stack([np.arange(m), successors]), moves


def transition_data(
    spec: ModelSpec, colors: np.ndarray, moves: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The probabilities of the slots of :func:`move_targets`, as
    ``(data, own)``: the holding probability, then one per move.
    ``own[x, i]`` is the conditional of the color site ``i+1`` has, so
    ``own[x, i] / n`` is the probability of undoing a move at that site.
    """
    m, n = len(colors), spec.n
    cond = conditional_table(spec, colors)
    own = cond[~moves].reshape(m, n)
    data = np.column_stack([own.sum(axis=1), cond[moves].reshape(m, -1)]) / n
    return data, own


@dataclass(frozen=True)
class SparseKernel:
    """The transition rows with the stationary measure and state table.

    Attributes:
        spec: Chain parameters.
        colors: Color vector of every state, the
            :func:`~spectral_gibbs.model.colors_table` of ``spec``.
        pi: Stationary probability of every rank, read-only.  It may
            underflow to 0 at low temperature, where ``tv_curve`` refuses
            such a start.
        cols: Row table of target ranks, shape ``(num_states, 1 + n (N - 1))``:
            the state itself, then one move per site and other color, the
            sites in order and the colors in increasing order.  It holds
            every single-site move, also those whose probability
            underflowed to 0 at low temperature.
        data: Transition probabilities of the slots of ``cols``.
    """

    spec: ModelSpec
    colors: np.ndarray
    pi: np.ndarray
    cols: np.ndarray
    data: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.colors)

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """CSR transition matrix, one row per state, column indices sorted.

        The package computes nothing from it: the test oracles and the
        benchmark's kernel counts read it.  Built from copies of the row
        table on first access: ``csr_matrix`` would wrap views of it, which
        sorting the indices reorders in place.  Its sparsity pattern holds
        every slot of ``cols``.
        """
        import scipy.sparse as sp

        m = self.dimension
        indptr = np.arange(0, self.cols.size + 1, self.cols.shape[1])
        matrix = sp.csr_matrix(
            (self.data.ravel(), self.cols.ravel(), indptr), shape=(m, m), copy=True
        )
        matrix.sort_indices()
        return matrix


def build_kernel(spec: ModelSpec) -> SparseKernel:
    """Tabulate the transition rows of every state.

    Each row holds the diagonal (the resampled site keeps its color) and the
    ``n (N - 1)`` moves to other states.

    Raises:
        BudgetExceededError: If the state space exceeds
            ``EXACT_STATES_BUDGET``, checked first.
        PrecisionLimitError: If Boltzmann exponents differ past the float
            range: by up to ``4/T`` in a conditional, ``2(n-1)/T`` in ``pi``.
    """
    colors = colors_table(spec)
    check_exponent_range(spec)
    cols, moves = move_targets(spec, colors)
    data, _ = transition_data(spec, colors, moves)
    for table in (colors, cols, data):
        table.flags.writeable = False
    return SparseKernel(spec, colors, stationary_measure(spec, colors), cols, data)


def _reverse_slots(spec: ModelSpec, colors: np.ndarray) -> np.ndarray:
    """Slot of the reverse of every move of the row table, shape ``(m, n (N - 1))``.

    The move at site ``i`` from color ``c`` to ``c'`` is undone by the move
    from ``c'`` to ``c`` in the target's row, at slot
    ``1 + i (N - 1) + (c if c < c' else c - 1)``.  The move in slot
    ``1 + i (N - 1) + j`` has ``c' > c`` exactly when ``j >= c``.
    """
    m, n, num_colors = len(colors), spec.n, spec.num_colors
    step = np.arange(num_colors - 1)
    own = np.arange(num_colors)[:, None]
    # back[c, j]: the position of c among the colors other than c'.
    back = own - (step < own)
    sites = 1 + (num_colors - 1) * np.arange(n)
    return (back[colors] + sites[:, None]).reshape(m, -1)


def reverse_data(kernel: SparseKernel) -> np.ndarray:
    """``P(y, x)`` for every slot ``y = cols[x, s]`` of the row table, the
    diagonal included: row ``x`` of the table is column ``x`` of ``P``.

    Every move in the table is undone by a move in its target's row, so
    ``cols`` also lists the states that move to each state.
    """
    reverse = np.empty(kernel.data.shape)
    reverse[:, 0] = kernel.data[:, 0]
    reverse[:, 1:] = kernel.data[
        kernel.cols[:, 1:], _reverse_slots(kernel.spec, kernel.colors)
    ]
    return reverse


def check_row_sums(kernel: SparseKernel) -> float:
    """Largest ``|sum_y P(x, y) - 1|`` over all rows."""
    return float(np.abs(kernel.data.sum(axis=1) - 1.0).max())


def check_detailed_balance(kernel: SparseKernel) -> float:
    """Largest relative asymmetry of the flux over all moves:
    ``|pi(x)P(x,y) - pi(y)P(y,x)| / max(pi(x)P(x,y), pi(y)P(y,x))``, and 0
    where both fluxes are 0.

    Pairs of distinct states one move apart; every other pair is 0 on both
    sides.
    """
    pi = kernel.pi
    targets = kernel.cols[:, 1:]
    reverse = reverse_data(kernel)[:, 1:]
    forward, backward = kernel.data[:, 1:] * pi[:, None], reverse * pi[targets]
    peak = np.maximum(forward, backward)
    # Where both fluxes are 0 so is the gap, and the quotient is 0.
    gap = np.abs(forward - backward) / np.where(peak > 0, peak, 1.0)
    return float(gap.max(initial=0.0))


def check_stationarity(kernel: SparseKernel) -> float:
    """Largest relative residual ``|(pi P)_y - pi_y| / pi_y`` over the states
    with ``pi_y > 0``."""
    pi = kernel.pi
    image = np.bincount(
        kernel.cols.ravel(), (kernel.data * pi[:, None]).ravel(), minlength=len(pi)
    )
    held = pi > 0
    return float((np.abs(image - pi)[held] / pi[held]).max(initial=0.0))


def check_irreducible(kernel: SparseKernel) -> bool:
    """True when the single-site move graph connects the whole state space.

    The graph is the row table's ``cols``, so a move whose probability
    underflowed to 0 still counts as an edge.  The table holds the reverse
    of every move, so the states reached from rank 0 along its rows are the
    component of rank 0.  The search takes one step per distance from rank
    0, at most ``n + 1``.
    """
    reached = np.zeros(kernel.dimension, dtype=bool)
    reached[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        new = np.zeros_like(reached)
        new[kernel.cols[frontier]] = True
        new &= ~reached
        reached |= new
        frontier = np.flatnonzero(new)
    return bool(reached.all())
