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
of distributions at a time and stops at the float fixed point of propagation:
once a step leaves the distribution bitwise unchanged, every later step
would too.  Both arms reduce a block of distributions to TVs with one set of
numpy calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .model import BudgetExceededError, ModelSpec, PrecisionLimitError
from .kernel import SparseKernel, conditional_table, reverse_data, successor_table
from .kernel import build_kernel  # noqa: F401 -- perfbench/spans.py wraps this name
from .spectral import check_gap_resolved
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


def _block_length(num_states: int) -> int:
    """Steps whose TVs are reduced together.

    A block holds about 2^14 state entries (128 KiB of float64): enough steps
    to share each reduction's numpy calls, few enough that its arrays stay
    in cache.
    """
    return max(1, 2**14 // num_states)


def _tv_rows(
    dists: np.ndarray, pi: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """:func:`tv_distance` of each row of ``dists`` to ``pi``, also at most 1.

    ``out``, when given, receives ``|dists - pi|``; it may be ``dists``.
    """
    deviations = np.abs(np.subtract(dists, pi, out=out), out=out)
    return np.minimum(0.5 * deviations.sum(axis=1), 1.0)


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
    last row.
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
    to TVs, :func:`_block_length` steps at a time; that changes neither the
    stream nor any value.

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
    drawn = np.zeros((n, bins, m), dtype=np.uint8)
    np.add.at(
        drawn,
        (np.arange(n)[:, None], np.searchsorted(cuts, thresholds) + 1,
         np.arange(m)[:, None, None]),
        1,
    )
    drawn = drawn.cumsum(axis=1, dtype=np.uint8)
    color_bins = _bin_lookup(cuts)
    # Ranks are below EXACT_STATES_BUDGET = 2^16, so the table holds int32.
    successors = successor_table(spec, kernel.colors).astype(np.int32)
    table = np.take_along_axis(successors.transpose(1, 2, 0), drawn, axis=1).ravel()
    ranks = np.full(replicas, start, dtype=np.int32)
    # levels[c] = c / replicas, the frequency of a rank visited c times.
    levels = np.arange(replicas + 1) / replicas
    out = np.empty(k_max + 1)
    out[0] = tv_distance(np.bincount(ranks, minlength=m) / replicas, pi)
    block = _block_length(m)
    for first in range(1, k_max + 1, block):
        steps = min(block, k_max + 1 - first)
        uniforms = rng.random(2 * replicas * steps).reshape(steps, 2, replicas)
        sites = np.minimum((uniforms[:, 0] * n).astype(np.int64), n - 1)
        keys = (sites * bins + color_bins(uniforms[:, 1])) * m
        visited = np.empty((steps, replicas), dtype=np.int32)
        for t in range(steps):
            # Every index is in range by construction; "clip" spares take
            # its buffered bounds check.
            ranks = table.take(keys[t] + ranks, out=visited[t], mode="clip")
        # A copy: ranks is a row of visited, which gets its offsets next.
        ranks = ranks.copy()
        # Visit counts of all steps at once: step t counts into row t.
        visited += np.arange(0, steps * m, m, dtype=np.int32)[:, None]
        counts = np.bincount(visited.ravel(), minlength=steps * m)
        dists = levels.take(counts).reshape(steps, m)
        out[first : first + steps] = _tv_rows(dists, pi, out=dists)
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
        """Whether ``exact_tv <= envelope + 1e-12`` holds at every step."""
        return bool(np.all(self.exact_tv <= self.envelope + 1e-12))

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

    The exact arm propagates the start distribution step by step, up to
    the float fixed point of propagation where one is reached; the
    envelope is :func:`~spectral_gibbs.bounds.ds_tv_envelope` at the exact
    rate and the start state's stationary probability.  When a seed is
    given, a Monte Carlo arm of 256 chains estimates the same curve
    empirically.

    Raises:
        BudgetExceededError: If the state space exceeds ``DENSE_SOLVE_BUDGET``,
            or the curve's ``k_max + 1`` step counts do not fit in memory.
        ValueError: On a negative ``k_max`` or an out-of-range start.
        PrecisionLimitError: If the start state's stationary probability
            underflowed to 0 or the spectral gap rounded to 0, either of
            which leaves the envelope undefined or vacuous.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    start = int(start)
    if not 0 <= start < kernel.dimension:
        raise ValueError(f"start rank {start} out of range")
    spectrum = compute_spectrum(kernel)
    check_gap_resolved(spectrum)
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
        k += len(block)
    # Past the float fixed point every distribution is the last one yielded.
    exact[k:] = exact[k - 1]

    mc = None
    if seed is not None:
        mc = _mc_distributions(kernel, start, k_max, seed, 256)

    return TvCurve(
        spec=kernel.spec,
        start_state=start,
        ks=ks,
        exact_tv=exact,
        envelope=ds_tv_envelope(pi_start, spectrum.beta_star, ks),
        mc_tv=mc,
        seed=seed,
    )
