"""Random-scan single-site resampling kernel on the full state space.

One step of the chain picks a site uniformly at random and redraws its color
from the stationary conditional given the rest of the configuration.  The
conditional at a site depends only on the colors of the (at most two)
neighboring sites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .model import (
    EXACT_STATES_BUDGET,
    GibbsMeasure,
    ModelSpec,
    check_budget,
    colors_table,
    stationary_measure,
)


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


def conditional_table(
    spec: ModelSpec, budget: int = EXACT_STATES_BUDGET
) -> np.ndarray:
    """Conditional distributions for every state and site.

    Returns:
        Array of shape ``(num_states, n, num_colors)`` where entry
        ``[x, i, c]`` is the probability that resampling site ``i+1`` of
        state ``x`` yields color ``c``.

    Raises:
        BudgetExceededError: If the state space exceeds ``budget``.
    """
    table = colors_table(spec, budget)
    # Neighbor indices into the local table: color + 1, and 0 past either end.
    padded = np.zeros((len(table), spec.n + 2), dtype=np.int64)
    padded[:, 1:-1] = table + 1
    return local_conditionals(spec)[padded[:, :-2], padded[:, 2:]]


@dataclass(frozen=True)
class SparseKernel:
    """The transition matrix with its stationary measure.

    Attributes:
        spec: Chain parameters.
        pi: Stationary distribution.
        matrix: CSR transition matrix, one row per state, column indices
            sorted.  Its sparsity pattern holds every single-site move, also
            those whose probability underflowed to 0 at low temperature.
    """

    spec: ModelSpec
    pi: GibbsMeasure
    matrix: sp.csr_matrix

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def build_kernel(spec: ModelSpec, budget: int = EXACT_STATES_BUDGET) -> SparseKernel:
    """Materialize the transition matrix for every state.

    Raises:
        BudgetExceededError: If the state space exceeds ``budget``.
    """
    check_budget(spec.num_states, budget, "kernel construction")
    m = spec.num_states
    n, num_colors = spec.n, spec.num_colors
    pi = stationary_measure(spec, budget)
    table = colors_table(spec, budget)
    cond = conditional_table(spec, budget)
    ranks = np.arange(m, dtype=np.int64)

    entries = n * (num_colors - 1) + 1
    rows = np.empty(m * entries, dtype=np.int64)
    cols = np.empty(m * entries, dtype=np.int64)
    data = np.empty(m * entries, dtype=np.float64)

    # Diagonal: probability that the resampled site keeps its color.
    own = np.take_along_axis(
        cond, table[:, :, None].astype(np.int64), axis=2
    )[:, :, 0]
    rows[:m] = ranks
    cols[:m] = ranks
    data[:m] = own.sum(axis=1) / n

    pos = m
    for i in range(n):
        place = num_colors ** (n - 1 - i)
        for c in range(num_colors):
            targets = ranks + (c - table[:, i].astype(np.int64)) * place
            keep = table[:, i] != c
            count = int(keep.sum())
            rows[pos : pos + count] = ranks[keep]
            cols[pos : pos + count] = targets[keep]
            data[pos : pos + count] = cond[keep, i, c] / n
            pos += count
    assert pos == m * entries

    matrix = sp.csr_matrix(
        sp.coo_matrix((data, (rows, cols)), shape=(m, m), dtype=np.float64)
    )
    matrix.sort_indices()
    return SparseKernel(spec=spec, pi=pi, matrix=matrix)


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
