"""Exact distribution propagation, the Monte Carlo stepper, and TV curves.

Total variation is half the L1 distance throughout.  Randomness comes from a
counter-based generator (numpy's Philox keyed with the seed), so every
trajectory is reproducible from its seed: each step of a chain consumes two
uniforms, one for the site choice (``floor(n * u)``) and one for the color
choice (inverse CDF over colors in index order).

The Monte Carlo arm of :func:`tv_curve` is the package's one stepper.  It
steps all its replicas by state rank through one table of successor ranks,
indexed by site, rank and the bin of the color uniform among the distinct
color thresholds of the chain, so each step is one lookup; it draws the
stream a block of steps at a time.  The exact arm gathers each step from
the kernel's row table of ``P``'s columns with numpy; it propagates a block
of distributions at a time.  It stops at the first step whose TV is at most
``ROUNDING_TOLERANCE`` and no less than the TV before it: a Markov step
never raises TV to ``pi``, so from there on propagation only rounds, and
the TV before that step, held for the rest of the curve, bounds every later
TV.  From its least likely state, (n=10, N=2, T=0.5) stops there at step
3787 instead of 12422.  A chain whose TV never falls to the tolerance stops
at the float fixed point of propagation: once a step leaves the
distribution bitwise unchanged, every later step would too.  Both arms
reduce a block of steps to TVs with one set of numpy calls.  The exact arm
reduces its distributions over every state; the Monte Carlo arm sums the
positive parts of half the L1 distance over the at most ``R`` ranks its
``R`` replicas visit, so a step costs ``O(R log R)`` whatever the number
of states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .model import ROUNDING_TOLERANCE, BudgetExceededError, ModelSpec
from .model import PrecisionLimitError
from .kernel import SparseKernel, conditional_table, reverse_data, successor_table
from .kernel import build_kernel  # noqa: F401 -- perfbench/spans.py wraps this name
from .spectral import spectrum as compute_spectrum
from .bounds import ds_tv_envelope
from .serialize import canonical_csv, canonical_json


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator with a documented identity (Philox, keyed)."""
    return np.random.Generator(np.random.Philox(key=seed))


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Half the L1 distance between two distributions.

    A distance between distributions, it is at most 1, also where rounding
    of their sums would put it above.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    return min(0.5 * float(np.abs(p - q).sum()), 1.0)


def _block_length(row_length: int) -> int:
    """Steps whose TVs are reduced together, for rows of ``row_length``.

    A block holds about 2^14 entries, a distribution's states in the exact
    arm and the replicas' ranks in the Monte Carlo arm: enough steps to
    share each reduction's numpy calls, few enough that its arrays stay in
    cache.
    """
    return max(1, 2**14 // row_length)


def _tv_rows(dists: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """:func:`tv_distance` of each row of ``dists`` to ``pi``, also at most 1."""
    return np.minimum(0.5 * np.abs(dists - pi).sum(axis=1), 1.0)


def _visited_tv_rows(visited: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """TV to ``pi`` of each row's empirical distribution, at most 1.

    Row ``t`` of ``visited`` holds the ranks of the ``R`` replicas after
    step ``t``; the rows are sorted in place.  A row's TV is the positive
    part of half the L1 distance, ``sum_x max(c_x / R - pi_x, 0)`` for a
    rank ``x`` visited ``c_x`` times, where an unvisited rank adds 0: so
    only the at most ``R`` runs of equal ranks of the sorted row are
    summed, one by one in ascending rank order.  That costs ``O(R log R)``
    per step, whatever the number of states.
    """
    steps, replicas = visited.shape
    visited.sort(axis=1)
    flat = visited.ravel()
    # A run of equal ranks ends before a different rank or at a row's end.
    last = np.empty(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=last[:-1])
    last[replicas - 1 :: replicas] = True
    ends = np.flatnonzero(last)
    excess = np.diff(ends, prepend=-1) / replicas
    excess -= pi.take(flat[ends])
    np.maximum(excess, 0.0, out=excess)
    # bincount adds each row's terms one after another, in index order.
    tvs = np.bincount(ends // replicas, weights=excess, minlength=steps)
    return np.minimum(tvs, 1.0, out=tvs)


def _incoming_table(kernel: SparseKernel) -> tuple[np.ndarray, np.ndarray]:
    """The columns of ``P`` as a slot-major table, ``(sources, weights)``.

    Entry ``[s, y]`` is the ``s``-th state ``x`` that reaches ``y`` in one
    step and ``P(x, y)``.  Each column lists its states by increasing rank,
    the order of a canonical CSR row of ``P^T``, so summing the slots in
    order adds the terms of ``(mu P)_y`` in that CSR product's order.
    """
    order = np.argsort(kernel.cols, axis=1)
    sources = np.take_along_axis(kernel.cols, order, axis=1)
    weights = np.take_along_axis(reverse_data(kernel), order, axis=1)
    return (
        np.ascontiguousarray(sources.T, dtype=np.intp),
        np.ascontiguousarray(weights.T),
    )


def _distribution_blocks(
    kernel: SparseKernel, start: int, k_max: int
) -> Iterator[np.ndarray]:
    """Yield the distributions after 0, 1, ..., ``k_max`` steps from rank
    ``start``, as blocks of :func:`_block_length` consecutive rows.

    A step gathers the previous distribution by :func:`_incoming_table`,
    multiplies by the weights, and adds the slots in order: ``add.reduce``
    along the table's first axis adds them one after another.  Every block
    is a view into one buffer that the next block overwrites.  Propagation
    is deterministic, so once a step leaves the distribution bitwise
    unchanged (its float fixed point), every later step would too.  That is
    checked at the end of each block: after a block whose last two rows are
    equal, no more blocks are yielded, and every distribution past it is its
    last row.  A caller may stop sooner: :func:`tv_curve` stops at its
    rounding floor, which comes no later than the fixed point wherever the
    TV there is at most ``ROUNDING_TOLERANCE`` (at step 3787 rather than
    12422 from the least likely state of (n=10, N=2, T=0.5)), and holds its
    TV, which bounds every later one.
    """
    sources, weights = _incoming_table(kernel)
    gathered = np.empty(weights.shape)
    block = np.zeros((_block_length(kernel.dimension), kernel.dimension))
    block[0, start] = 1.0
    dist = block[0]
    for first in range(0, k_max + 1, len(block)):
        steps = min(len(block), k_max + 1 - first)
        for t in range(0 if first else 1, steps):
            # Every source is a rank; "clip" spares take its bounds check.
            dist.take(sources, out=gathered, mode="clip")
            gathered *= weights
            dist = np.add.reduce(gathered, axis=0, out=block[t])
        yield block[:steps]
        if steps > 1 and np.array_equal(block[steps - 1], block[steps - 2]):
            return


# Buckets of the color uniforms; a power of two, so a uniform's bucket is exact.
_BUCKETS = 4096


def _bin_lookup(cuts: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``u -> searchsorted(cuts, u, "right")`` for uniforms ``u`` in [0, 1).

    ``u`` lies in bucket ``floor(4096 u)`` of 4096 equal buckets, exactly,
    as 4096 is a power of two.  Where no cut lies strictly inside a bucket,
    every uniform in it falls in the bin of its lower edge; only the
    uniforms in the other buckets are searched among the cuts.
    """
    edges = np.arange(_BUCKETS + 1) / _BUCKETS
    lower = np.searchsorted(cuts, edges[:-1], "right")
    split = lower != np.searchsorted(cuts, edges[1:], "left")

    def bins(u: np.ndarray) -> np.ndarray:
        buckets = (u * _BUCKETS).astype(np.intp)
        out = lower[buckets]
        searched = split[buckets]
        out[searched] = np.searchsorted(cuts, u[searched], "right")
        return out

    return bins


def _mc_distributions(
    kernel: SparseKernel, start: int, k_max: int, seed: int, replicas: int
) -> np.ndarray:
    """TV of the replicas' empirical state distribution at every step count.

    All replicas advance together by state rank.  A color draw depends only
    on where its uniform ``u`` falls among the thresholds of the site's
    cumulative conditional without its last entry (so no color past the end
    can be drawn), so it is read off the sorted distinct thresholds of every
    conditional, ``cuts``: ``u`` falls in bin ``q = searchsorted(cuts, u,
    "right")``, and the color drawn is the number of the site's thresholds
    in bins below ``q``.  That compares bin indices, so no threshold is
    rounded again; :func:`_bin_lookup` finds the bins.  One table, indexed
    ``(site * (K + 1) + q) * m + rank`` for ``K`` cuts, holds the
    :func:`~spectral_gibbs.kernel.successor_table` rank of that color, so a
    step is one lookup.  Each step consumes one block of site uniforms and
    one block of color uniforms, so one replica consumes the module's
    two-uniforms-per-step stream, and the result is a pure function of
    (seed, replicas, k_max).  Uniforms are drawn, and visited ranks reduced
    to TVs by :func:`_visited_tv_rows`, ``_block_length(replicas)`` steps at
    a time (64 steps at 256 replicas); that changes neither the stream nor
    any value.  Step 0 goes through the same reduction.

    Returns:
        Array of shape ``(k_max + 1,)``.
    """
    spec = kernel.spec
    n, m = spec.n, spec.num_states
    pi = kernel.pi
    rng = make_rng(seed)
    thresholds = np.cumsum(conditional_table(spec, kernel.colors), axis=2)[..., :-1]
    cuts = np.unique(thresholds)
    bins = len(cuts) + 1
    # A cumulative count over bins: drawn[site, q, rank] is the number of
    # thresholds of (rank, site) in bins 0..q-1, the color drawn in bin q.
    # Up to N - 1 thresholds: uint8 up to 256 colors.
    count = np.min_scalar_type(spec.num_colors - 1)
    drawn = np.zeros((n, bins, m), dtype=count)
    np.add.at(
        drawn,
        (np.arange(n)[:, None], np.searchsorted(cuts, thresholds) + 1,
         np.arange(m)[:, None, None]),
        1,
    )
    drawn = drawn.cumsum(axis=1, dtype=count)
    color_bins = _bin_lookup(cuts)
    # Ranks are below EXACT_STATES_BUDGET = 2^16, so the table holds int32.
    successors = successor_table(spec, kernel.colors).astype(np.int32)
    table = np.take_along_axis(successors.transpose(1, 2, 0), drawn, axis=1).ravel()
    ranks = np.full(replicas, start, dtype=np.int32)
    out = np.empty(k_max + 1)
    out[:1] = _visited_tv_rows(ranks[None].copy(), pi)
    block = _block_length(replicas)
    for first in range(1, k_max + 1, block):
        steps = min(block, k_max + 1 - first)
        uniforms = rng.random(2 * replicas * steps).reshape(steps, 2, replicas)
        sites = np.minimum((uniforms[:, 0] * n).astype(np.int64), n - 1)
        keys = (sites * bins + color_bins(uniforms[:, 1])) * m
        visited = np.empty((steps, replicas), dtype=np.int32)
        for t in range(steps):
            key = np.add(keys[t], ranks, out=keys[t])
            # Every index is in range by construction; "clip" spares take
            # its buffered bounds check.
            ranks = table.take(key, out=visited[t], mode="clip")
        # A copy: ranks is a row of visited, which the reduction sorts.
        ranks = ranks.copy()
        out[first : first + steps] = _visited_tv_rows(visited, pi)
    return out


@dataclass(frozen=True)
class TvCurve:
    """Exact TV decay from one start state with its certified envelope.

    Attributes:
        spec: Chain parameters.
        start_state: Rank of the start state.
        ks: Step counts ``0..k_max``.
        exact_tv: Exact TV between the propagated distribution and the
            stationary one at each step count.
        envelope: Certified decay envelope at each step count.
        mc_tv: Empirical TV estimates, or None when no seed was given.  The
            estimate is biased upward by sampling noise and carries no
            certification.
        seed: Seed of the Monte Carlo arm, or None.
    """

    spec: ModelSpec
    start_state: int
    ks: np.ndarray
    exact_tv: np.ndarray
    envelope: np.ndarray
    mc_tv: np.ndarray | None
    seed: int | None

    @property
    def within_envelope(self) -> bool:
        """Whether ``exact_tv <= envelope + ROUNDING_TOLERANCE`` holds at
        every step."""
        return bool(np.all(self.exact_tv <= self.envelope + ROUNDING_TOLERANCE))

    def to_rows(self) -> tuple[list[str], list[list]]:
        header = ["k", "exact_tv", "envelope", "mc_tv"]
        mc = [None] * len(self.ks) if self.mc_tv is None else self.mc_tv.tolist()
        columns = (self.ks.tolist(), self.exact_tv.tolist(), self.envelope.tolist(), mc)
        return header, [list(row) for row in zip(*columns)]

    def to_csv(self) -> str:
        header, rows = self.to_rows()
        return canonical_csv(header, rows)

    def to_dict(self) -> dict:
        return {
            "model": {
                "n": self.spec.n,
                "colors": self.spec.num_colors,
                "temp": float(self.spec.temp),
            },
            "start_state": self.start_state,
            "seed": self.seed,
            "ks": [int(k) for k in self.ks],
            "exact_tv": [float(v) for v in self.exact_tv],
            "envelope": [float(v) for v in self.envelope],
            "mc_tv": None
            if self.mc_tv is None
            else [float(v) for v in self.mc_tv],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


def tv_curve(
    kernel: SparseKernel, start: int, k_max: int, seed: int | None = None
) -> TvCurve:
    """Measure exact TV decay from rank ``start`` against the certified envelope.

    The exact arm propagates the start distribution step by step.  It
    stops at its rounding floor, the first step ``k >= 1`` whose TV is at
    most ``ROUNDING_TOLERANCE`` and at least the TV at ``k - 1``: TV to
    ``pi`` never rises under a Markov step, so that rise or tie is rounding,
    and the TV at ``k - 1``, the least one resolved, is held from ``k`` on
    and bounds every later TV.  From its least likely state, (n=10, N=2,
    T=0.5) stops at ``k = 3787`` rather than at its float fixed point,
    ``k = 12422``.  A chain that never falls to the tolerance stops at the
    float fixed point of propagation instead, if it reaches one.  The
    envelope is :func:`~spectral_gibbs.bounds.ds_tv_envelope` at the exact
    rate ``beta1`` and the start state's stationary probability.  When a
    seed is given, a Monte Carlo arm of 256 chains estimates the same curve
    empirically.

    Raises:
        BudgetExceededError: If the spectrum refuses the state space, or the
            curve's ``k_max + 1`` step counts do not fit in memory.
        ValueError: On a negative ``k_max`` or an out-of-range start.
        PrecisionLimitError: If the start state's stationary probability
            underflowed to 0 or the spectrum refuses a gap that rounded to 0,
            either of which leaves the envelope undefined or vacuous.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    start = int(start)
    if not 0 <= start < kernel.dimension:
        raise ValueError(f"start rank {start} out of range")
    spectrum = compute_spectrum(kernel)
    pi = kernel.pi
    pi_start = float(pi[start])
    if pi_start == 0.0:
        raise PrecisionLimitError(
            f"pi of start state {start} underflowed to 0 at temp "
            f"{kernel.spec.temp!r}, so its envelope is undefined"
        )

    # Past 2^63 bytes numpy raises ValueError rather than MemoryError;
    # either way nothing is allocated.
    try:
        ks = np.arange(k_max + 1)
        exact = np.empty(k_max + 1)
    except (MemoryError, ValueError) as exc:
        raise BudgetExceededError(
            f"a curve of {k_max + 1} step counts does not fit in memory"
        ) from exc
    k = 0
    for block in _distribution_blocks(kernel, start, k_max):
        exact[k : k + len(block)] = _tv_rows(block, pi)
        first = max(k, 1)
        k += len(block)
        # A Markov step never raises TV to pi, so a rise at or below the
        # tolerance is rounding: the arm stops at the first such step.
        tvs = exact[first:k]
        floor = np.flatnonzero(
            (tvs <= ROUNDING_TOLERANCE) & (tvs >= exact[first - 1 : k - 1])
        )
        if len(floor):
            k = first + int(floor[0])
            break
    # Past the rounding floor or the float fixed point, every TV is held at
    # the last one resolved, which bounds every later TV.
    exact[k:] = exact[k - 1]

    mc = None
    if seed is not None:
        mc = _mc_distributions(kernel, start, k_max, seed, 256)

    return TvCurve(
        spec=kernel.spec,
        start_state=start,
        ks=ks,
        exact_tv=exact,
        envelope=ds_tv_envelope(pi_start, spectrum.beta1, ks),
        mc_tv=mc,
        seed=seed,
    )
