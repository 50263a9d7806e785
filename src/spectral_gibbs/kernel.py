"""Random-scan single-site resampling kernel on the full state space.

One step of the chain picks a site uniformly at random and redraws its color
from the stationary conditional given the rest of the configuration.  The
conditional at a site depends only on the colors of the (at most two)
neighboring sites.

:class:`SparseKernel` is the one handle on a chain's state space: it carries
the color table that :func:`build_kernel` enumerated once, and everything
that receives a kernel derives its per-state tables from that table.  The
transition matrix is assembled from two such tables, indexed
``[rank, site, color]``: the conditional of each resampling and the rank it
leads to.  :func:`transition_rows` reads them for any prefix of the ranks,
so the spectrum builds the rows it needs without the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .model import GibbsMeasure, ModelSpec, PrecisionLimitError
from .model import colors_table, stationary_measure


def bond_score(u: int, v: int) -> int:
    """+1 when two neighboring colors agree, -1 when they disagree."""
    return 1 if u == v else -1


def local_scores(spec: ModelSpec) -> np.ndarray:
    """Bond scores ``s(left, c) + s(c, right)`` for every neighbor pattern.

    Returns:
        Integer array of shape ``(N + 1, N + 1, N)`` indexed by
        ``[left color + 1, right color + 1, c]``; index 0 stands for a
        missing neighbor, whose bond contributes 0.
    """
    num_colors = spec.num_colors
    bonds = np.zeros((num_colors + 1, num_colors), dtype=np.int64)
    bonds[1:] = [
        [bond_score(u, c) for c in range(num_colors)] for u in range(num_colors)
    ]
    return bonds[:, None, :] + bonds[None, :, :]


def local_conditionals(spec: ModelSpec) -> np.ndarray:
    """Conditional color distributions indexed like :func:`local_scores`.

    Evaluated as a max-shifted softmax of the bond scores so small
    temperatures cannot overflow.  Every conditional in the package is read
    from this table.
    """
    logits = local_scores(spec) / spec.temp
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
    return local_conditionals(spec)[padded[:, :-2], padded[:, 2:]]


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


def transition_rows(
    spec: ModelSpec, colors: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of ``P`` for ranks ``0 .. len(colors) - 1``, that prefix of the
    :func:`~spectral_gibbs.model.colors_table`, as ``(cols, data, own)``.

    A row of ``cols`` and ``data`` holds the state itself with its holding
    probability, then one move per site and other color, in that order.
    ``own[x, i]`` is the conditional of the color site ``i+1`` has, so
    ``own[x, i] / n`` is the probability of undoing a move at that site.
    """
    m, n = len(colors), spec.n
    cond = conditional_table(spec, colors)
    moves = colors[:, :, None] != np.arange(spec.num_colors)
    successors = successor_table(spec, colors)[moves].reshape(m, -1)
    own = cond[~moves].reshape(m, n)
    cols = np.column_stack([np.arange(m), successors])
    data = np.column_stack([own.sum(axis=1), cond[moves].reshape(m, -1)]) / n
    return cols, data, own


@dataclass(frozen=True)
class SparseKernel:
    """The transition matrix with its stationary measure and state table.

    Attributes:
        spec: Chain parameters.
        colors: Color vector of every state, the
            :func:`~spectral_gibbs.model.colors_table` of ``spec``.
        pi: Stationary distribution.
        matrix: CSR transition matrix, one row per state, column indices
            sorted.  Its sparsity pattern holds every single-site move, also
            those whose probability underflowed to 0 at low temperature.
    """

    spec: ModelSpec
    colors: np.ndarray
    pi: GibbsMeasure
    matrix: sp.csr_matrix

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def build_kernel(spec: ModelSpec) -> SparseKernel:
    """Materialize the transition matrix for every state.

    Each row holds the diagonal (the resampled site keeps its color) and the
    ``n (N - 1)`` moves to other states.

    Raises:
        PrecisionLimitError: If Boltzmann exponents differ past the float
            range: by up to ``4/T`` in a conditional, ``2(n-1)/T`` in ``pi``.
        BudgetExceededError: If the state space exceeds
            ``EXACT_STATES_BUDGET``.
    """
    if not np.isfinite(max(4, 2 * (spec.n - 1)) / spec.temp):
        raise PrecisionLimitError(
            f"Boltzmann exponents differ past the float range at temp {spec.temp!r}"
        )
    colors = colors_table(spec)
    colors.flags.writeable = False
    m = spec.num_states
    cols, data, _ = transition_rows(spec, colors)
    indptr = np.arange(0, cols.size + 1, cols.shape[1])
    matrix = sp.csr_matrix((data.ravel(), cols.ravel(), indptr), shape=(m, m))
    matrix.sort_indices()
    return SparseKernel(
        spec=spec, colors=colors, pi=stationary_measure(spec, colors), matrix=matrix
    )


def check_detailed_balance(kernel: SparseKernel) -> float:
    """Largest asymmetry ``|pi(x)P(x,y) - pi(y)P(y,x)|`` over all pairs."""
    flux = kernel.matrix.multiply(kernel.pi.weights[:, None]).tocsr()
    gap = flux - flux.T
    if gap.nnz == 0:
        return 0.0
    return float(np.abs(gap.data).max())


def check_stationarity(kernel: SparseKernel) -> float:
    """Largest entry of ``|pi P - pi|``."""
    pi = kernel.pi.weights
    image = kernel.matrix.T @ pi
    return float(np.abs(image - pi).max())


def check_irreducible(kernel: SparseKernel) -> bool:
    """True when the single-site move graph connects the whole state space.

    The graph is the matrix's sparsity pattern, so a move whose probability
    underflowed to an explicit 0 still counts as an edge.
    """
    count, _ = connected_components(kernel.matrix, directed=False)
    return int(count) == 1
