"""Random-scan single-site resampling kernel on the full state space.

One step of the chain picks a site uniformly at random and redraws its color
from the stationary conditional given the rest of the configuration.  The
conditional at a site depends only on the colors of the (at most two)
neighboring sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .model import (
    EXACT_STATES_BUDGET,
    Configuration,
    GibbsMeasure,
    ModelSpec,
    check_budget,
    colors_table,
    stationary_measure,
)
from .serialize import format_float


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


def conditional_probability(
    spec: ModelSpec, x: Configuration, i: int, color: int
) -> float:
    """Probability that a resampled site ``i`` takes the given color.

    Args:
        spec: Chain parameters.
        x: Current configuration.
        i: Site index, 1-based, ``1 <= i <= n``.
        color: Candidate color index.

    Returns:
        The conditional probability; over all colors these sum to 1.

    Raises:
        ValueError: If ``i`` or ``color`` is out of range.
    """
    if not 1 <= i <= spec.n:
        raise ValueError(f"site index {i} out of range 1..{spec.n}")
    if not 0 <= color < spec.num_colors:
        raise ValueError(f"color index {color} out of range")
    left = x.colors[i - 2] + 1 if i >= 2 else 0
    right = x.colors[i] + 1 if i <= spec.n - 1 else 0
    return float(local_conditionals(spec)[left, right, color])


def transition_probability(
    spec: ModelSpec, x: Configuration, y: Configuration
) -> float:
    """One-step transition probability between two configurations.

    Positive only when ``x`` and ``y`` differ in at most one site: a single
    differing site ``i`` gives ``(1/n) * conditional``, equality gives the
    holding probability ``(1/n) * sum_i conditional(x_i)``, and two or more
    differing sites give 0.
    """
    if len(x.colors) != spec.n or len(y.colors) != spec.n:
        raise ValueError(f"configurations must have {spec.n} sites")
    diffs = [i for i in range(spec.n) if x.colors[i] != y.colors[i]]
    if len(diffs) > 1:
        return 0.0
    if len(diffs) == 1:
        i = diffs[0] + 1
        return conditional_probability(spec, x, i, y.colors[diffs[0]]) / spec.n
    total = 0.0
    for i in range(1, spec.n + 1):
        total += conditional_probability(spec, x, i, x.colors[i - 1])
    return total / spec.n


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
    """The transition matrix with its stationary measure and edge set.

    Attributes:
        spec: Chain parameters.
        pi: Stationary distribution.
        matrix: CSR transition matrix, one row per state.
        edges: Ordered pairs ``(u, v)`` of ranks with ``u != v`` and
            positive transition probability; shape ``(num_edges, 2)``.
    """

    spec: ModelSpec
    pi: GibbsMeasure
    matrix: sp.csr_matrix
    edges: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def row_entries(self, rank: int) -> list[tuple[int, float]]:
        """Nonzero entries of one row as ``(target rank, probability)`` pairs."""
        start, stop = self.matrix.indptr[rank], self.matrix.indptr[rank + 1]
        cols = self.matrix.indices[start:stop]
        vals = self.matrix.data[start:stop]
        return [(int(c), float(v)) for c, v in zip(cols, vals)]


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

    off = rows != cols
    edges = np.column_stack([rows[off], cols[off]])
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    edges = edges[order]
    edges.flags.writeable = False
    return SparseKernel(spec=spec, pi=pi, matrix=matrix, edges=edges)


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
    """True when the single-site move graph connects the whole state space."""
    m = kernel.dimension
    adjacency = sp.csr_matrix(
        (
            np.ones(len(kernel.edges), dtype=np.int8),
            (kernel.edges[:, 0], kernel.edges[:, 1]),
        ),
        shape=(m, m),
    )
    count, _ = connected_components(adjacency, directed=False)
    return int(count) == 1


def coordinate_text(kernel: SparseKernel) -> str:
    """Render the matrix as ``row col value`` lines, row-major order.

    Values use 17 significant digits and lines end with LF, so the dump is
    byte-stable across runs and usable for cross-checks by external tools.
    """
    coo = kernel.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    lines = [
        f"{coo.row[k]} {coo.col[k]} {format_float(coo.data[k])}\n"
        for k in order
    ]
    return "".join(lines)


def write_coordinate_text(kernel: SparseKernel, path: str) -> None:
    """Write :func:`coordinate_text` to a file."""
    with open(path, "w", newline="") as handle:
        handle.write(coordinate_text(kernel))
