"""Exact distribution propagation, the Monte Carlo stepper, and TV curves.

Total variation is half the L1 distance throughout.  Randomness comes from a
counter-based generator (numpy's Philox keyed with the seed), so every
trajectory is reproducible from its seed: each step of a chain consumes two
uniforms, one for the site choice (``floor(n * u)``) and one for the color
choice (inverse CDF over colors in index order).

The Monte Carlo arm of :func:`tv_curve` is the package's one stepper.  It
steps all its replicas by state rank through per-(rank, site) tables of
thresholds and successor ranks, and draws the stream a block of steps at a
time; both arms reduce a block of distributions to TVs with one set of numpy
calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .model import ModelSpec, PrecisionLimitError
from .kernel import SparseKernel, conditional_table, successor_table
from .kernel import build_kernel  # noqa: F401 -- perfbench/spans.py wraps this name
from .spectral import check_gap_resolved
from .spectral import spectrum as compute_spectrum
from .bounds import ds_tv_envelope
from .serialize import canonical_csv, canonical_json


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator with a documented identity (Philox, keyed)."""
    return np.random.Generator(np.random.Philox(key=seed))


def _distributions(
    kernel: SparseKernel, start: int, k_max: int
) -> Iterator[np.ndarray]:
    """Yield the distribution after 0, 1, ..., ``k_max`` steps from rank ``start``.

    Holds one state vector at a time, whatever ``k_max`` is.
    """
    transposed = kernel.matrix.T.tocsr()
    dist = np.zeros(kernel.dimension)
    dist[start] = 1.0
    yield dist
    for _ in range(k_max):
        dist = transposed @ dist
        yield dist


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Half the L1 distance between two distributions."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    return 0.5 * float(np.abs(p - q).sum())


def _block_length(num_states: int) -> int:
    """Steps whose TVs are reduced together.

    A block holds about 2^14 state entries (128 KiB of float64): enough steps
    to share each reduction's numpy calls, few enough that its arrays stay
    in cache.
    """
    return max(1, 2**14 // num_states)


def _tv_rows(dists: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """:func:`tv_distance` of each row of ``dists`` to ``pi``."""
    return 0.5 * np.abs(dists - pi).sum(axis=1)


def _mc_distributions(
    kernel: SparseKernel, start: int, k_max: int, seed: int, replicas: int
) -> np.ndarray:
    """TV of the replicas' empirical state distribution at every step count.

    All replicas advance together by state rank.  Two tables indexed by
    ``site * m + rank`` are read off the kernel's state table once: the
    site's cumulative conditional without its last entry (so no color past
    the end can be drawn) and the :func:`~spectral_gibbs.kernel.successor_table`
    rank each color leads to.  Each step consumes one block of site
    uniforms and one block of color uniforms, so one replica consumes the
    module's two-uniforms-per-step stream, and the result is a pure
    function of (seed, replicas, k_max).  Uniforms are drawn, and visited
    ranks reduced to TVs, :func:`_block_length` steps at a time; that
    changes neither the stream nor any value.

    Returns:
        Array of shape ``(k_max + 1,)``.
    """
    spec = kernel.spec
    n, num_colors = spec.n, spec.num_colors
    m = spec.num_states
    pi = kernel.pi.weights
    rng = make_rng(seed)
    cdf = np.cumsum(conditional_table(spec, kernel.colors), axis=2)
    thresholds = cdf[:, :, :-1].transpose(1, 0, 2).reshape(n * m, num_colors - 1)
    successors = successor_table(spec, kernel.colors).transpose(1, 0, 2).ravel()
    ranks = np.full(replicas, start, dtype=np.int64)
    out = np.empty(k_max + 1)
    out[0] = tv_distance(np.bincount(ranks, minlength=m) / replicas, pi)
    block = _block_length(m)
    for first in range(1, k_max + 1, block):
        steps = min(block, k_max + 1 - first)
        uniforms = rng.random(2 * replicas * steps).reshape(steps, 2, replicas)
        offsets = np.minimum((uniforms[:, 0] * n).astype(np.int64), n - 1) * m
        u_colors = uniforms[:, 1, :, None]
        visited = np.empty((steps, replicas), dtype=np.int64)
        for t in range(steps):
            rows = offsets[t] + ranks
            colors = (thresholds.take(rows, axis=0) <= u_colors[t]).sum(axis=1)
            ranks = visited[t] = successors.take(rows * num_colors + colors)
        # Visit counts of all steps at once: step t counts into row t.
        visited += np.arange(0, steps * m, m, dtype=np.int64)[:, None]
        counts = np.bincount(visited.ravel(), minlength=steps * m)
        out[first : first + steps] = _tv_rows(counts.reshape(steps, m) / replicas, pi)
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
        rows = []
        for idx, k in enumerate(self.ks):
            mc = None if self.mc_tv is None else float(self.mc_tv[idx])
            rows.append(
                [int(k), float(self.exact_tv[idx]), float(self.envelope[idx]), mc]
            )
        return header, rows

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
    kernel: SparseKernel,
    start: int,
    k_max: int,
    seed: int | None = None,
    mc_replicas: int = 256,
) -> TvCurve:
    """Measure exact TV decay from rank ``start`` against the certified envelope.

    The exact arm propagates the start distribution step by step; the
    envelope is :func:`~spectral_gibbs.bounds.ds_tv_envelope` at the exact
    rate and the start state's stationary probability.  When a seed is
    given, a Monte Carlo arm with ``mc_replicas`` chains estimates the same
    curve empirically.

    Raises:
        BudgetExceededError: If the state space exceeds ``DENSE_SOLVE_BUDGET``.
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
    pi = kernel.pi.weights
    pi_start = float(pi[start])
    if pi_start == 0.0:
        raise PrecisionLimitError(
            f"pi of start state {start} underflowed to 0 at temp "
            f"{kernel.spec.temp!r}, so its envelope is undefined"
        )

    exact = np.empty(k_max + 1)
    block = np.empty((_block_length(kernel.dimension), kernel.dimension))
    for k, dist in enumerate(_distributions(kernel, start, k_max)):
        row = k % len(block)
        block[row] = dist
        if row == len(block) - 1 or k == k_max:
            exact[k - row : k + 1] = _tv_rows(block[: row + 1], pi)

    ks = np.arange(k_max + 1)
    mc = None
    if seed is not None:
        mc = _mc_distributions(kernel, start, k_max, seed, mc_replicas)

    return TvCurve(
        spec=kernel.spec,
        start_state=start,
        ks=ks,
        exact_tv=exact,
        envelope=ds_tv_envelope(pi_start, spectrum.beta_star, ks),
        mc_tv=mc,
        seed=seed,
    )
