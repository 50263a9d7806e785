"""Spans around the calls into each layer of ``spectral_gibbs``, from outside.

``cli`` and ``chain`` bind library functions with ``from ... import``, so a
function is wrapped under every name that a caller looks up, in the module of
that caller. Spans are kept in memory; ``layer_metrics`` turns them into
per-op self times and counts. A layer's self time is its span's duration
minus the time its child spans cover, so the self times of all layers plus
``cli.self_s`` (the op span's own self time) add up to the traced op time.
"""

from __future__ import annotations

import functools
import time

from spectral_gibbs import bounds, chain, cli, kernel, model, paths, spectral


def _kernel_counts(args, kwargs, result) -> dict:
    return {"kernel.states": result.dimension, "kernel.nnz": result.matrix.nnz}


def _spectrum_counts(args, kwargs, result) -> dict:
    m = args[0].dimension
    # Computed, not measured: the dense matrix handed to LAPACK, and the
    # 4/3 m^3 flops of the tridiagonal reduction that dominates eigvalsh.
    return {"spectral.dense_bytes": 8 * m * m, "spectral.eig_flops": 4 * m**3 // 3}


def _kappa_counts(args, kwargs, result) -> dict:
    spec = result.spec
    m = spec.num_states
    # Computed: ordered pairs, and their total canonical-path length (the
    # mean Hamming distance between two states is n (N-1)/N).
    return {
        "paths.kappa.pairs": m * m - m,
        "paths.kappa.edge_loads": m * m * spec.n * (spec.num_colors - 1) // spec.num_colors,
    }


def _tv_counts(args, kwargs, result) -> dict:
    return {"chain.exact_tv.matvecs": int(result.ks[-1])}


def _mc_counts(args, kwargs, result) -> dict:
    k_max, replicas = args[2], args[4]
    return {"chain.mc.replica_steps": k_max * replicas}


def _certify_counts(args, kwargs, result) -> dict:
    return {"paths.certify.edges": result.num_edges}


def _text_counts(args, kwargs, result) -> dict:
    return {"serialize.bytes_out": len(result)}


# (layer, count function, [(namespace, attribute), ...]).
WRAPPED = [
    ("model.enumerate", None, [
        (model, "colors_table"), (model, "energies_table"),
        (model, "stationary_measure"), (kernel, "colors_table"),
        (kernel, "stationary_measure"), (kernel, "conditional_table"),
        (paths, "colors_table"), (paths, "conditional_table"),
    ]),
    ("kernel.build", _kernel_counts, [(cli, "build_kernel"), (chain, "build_kernel")]),
    ("kernel.checks", None, [
        (cli, "check_detailed_balance"), (cli, "check_stationarity"),
        (cli, "check_irreducible"), (spectral, "check_detailed_balance"),
    ]),
    ("spectral.spectrum", _spectrum_counts, [
        (cli, "compute_spectrum"), (chain, "compute_spectrum"),
    ]),
    ("paths.kappa", _kappa_counts, [(cli, "kappa_exact")]),
    ("paths.certify", _certify_counts, [(cli, "certify_all_edges")]),
    ("paths.slice", None, [(cli, "verify_slice_identities")]),
    # Report assembly, including the closed-form bounds of each sweep row
    # and the kappa summary that verify prints.
    ("bounds.report", None, [
        (cli, "assemble_report"), (cli, "report_to_dict"), (cli, "report_to_json"),
        (cli, "theorem3_bound"), (cli, "ingrassia_beta1_bound"), (cli, "theta"),
        (cli, "crossover_n"), (cli, "kappa_closed_form"), (cli, "kappa_report"),
    ]),
    # tv_curve's self time is the exact propagation loop plus the envelope.
    ("chain.exact_tv", _tv_counts, [(cli, "tv_curve")]),
    # The one private boundary: the Monte Carlo arm is a layer of its own.
    ("chain.mc", _mc_counts, [(chain, "_mc_distributions")]),
    ("serialize", _text_counts, [
        (cli, "canonical_csv"), (cli, "canonical_json"), (chain, "canonical_csv"),
        (chain, "canonical_json"), (bounds, "canonical_json"), (paths, "canonical_json"),
    ]),
    # Row formatting of the TV curve; its canonical_csv call is counted above.
    ("serialize", None, [
        (cli, "format_float"), (chain.TvCurve, "to_csv"), (chain.TvCurve, "to_json"),
    ]),
]

# Layers whose call count is a metric.
COUNTED_CALLS = ("kernel.build", "spectral.spectrum", "paths.kappa", "paths.slice")
# Everything the count functions above report, zero where nothing is called.
COUNTS = (
    "kernel.states", "kernel.nnz", "spectral.dense_bytes", "spectral.eig_flops",
    "paths.kappa.pairs", "paths.kappa.edge_loads", "paths.certify.edges",
    "chain.exact_tv.matvecs", "chain.mc.replica_steps", "serialize.bytes_out",
)

OP_SPAN = "cli"


class Tracer:
    """Records spans (layer, start, end, parent, counts) while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, layer: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, layer)

    def _open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"layer": layer, "parent": parent, "start": time.perf_counter()})
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int, counts: dict | None = None) -> None:
        self.spans[index]["end"] = time.perf_counter()
        if counts:
            self.spans[index]["counts"] = counts
        self._stack.pop()

    def _wrap(self, func, layer: str, count):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self._open(layer)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                self._close(index, count(args, kwargs, result) if count and result is not None else None)

        return wrapper

    def install(self) -> None:
        for layer, count, names in WRAPPED:
            for namespace, attr in names:
                original = getattr(namespace, attr)
                self._saved.append((namespace, attr, original))
                setattr(namespace, attr, self._wrap(original, layer, count))

    def uninstall(self) -> None:
        while self._saved:
            namespace, attr, original = self._saved.pop()
            setattr(namespace, attr, original)


class _Span:
    def __init__(self, tracer: Tracer, layer: str):
        self.tracer = tracer
        self.layer = layer

    def __enter__(self):
        self.index = self.tracer._open(self.layer)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.index)
        span = self.tracer.spans[self.index]
        self.seconds = span["end"] - span["start"]
        return False


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict], ops: int) -> dict[str, float]:
    """Per-op self time of every layer, call counts and computed counts."""
    layers = sorted({layer for layer, _, _ in WRAPPED})
    metrics = {f"{layer}.self_s": 0.0 for layer in layers + [OP_SPAN]}
    for layer in COUNTED_CALLS:
        metrics[f"{layer}.calls"] = 0
    for name in COUNTS:
        metrics[name] = 0
    for span, own in zip(spans, self_times(spans)):
        metrics[f"{span['layer']}.self_s"] += own
        if span["layer"] in COUNTED_CALLS:
            metrics[f"{span['layer']}.calls"] += 1
        for name, value in span.get("counts", {}).items():
            metrics[name] += value
    return {name: value / ops for name, value in metrics.items()}
