"""One workload in one process: set up, then run ops in a closed loop.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``. After imports and a
warm-up op at small size (the first-call lazy initialisation a fresh process
pays, such as loading LAPACK), it prints ``ready`` so the parent can time the
set-up. With ``--setup-only`` it then exits. Otherwise it runs ops one after
another for ``--seconds``, checks each op's output outside the
timed region, and prints one JSON line with the op times, failures, peak RSS
and, when traced, the spans.

With ``--trace 1`` untraced and traced ops alternate, starting untraced, so
the difference of their medians is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext

import workloads
from spans import OP_SPAN, Tracer, layer_metrics


def run_ops(workload, seconds: float, trace: bool) -> dict:
    """Closed loop: each op starts after the previous one and its check end."""
    times = {False: [], True: []}
    failures = []
    tracer = Tracer()
    begin = time.perf_counter()
    traced = False
    # Start an op only if one more of the median length fits in the window,
    # so a run lasts about ``seconds`` whatever the op length; but run at
    # least one op of each kind.
    while (
        not times[False]
        or (trace and not times[True])
        or time.perf_counter() - begin + statistics.median(times[False] + times[True]) <= seconds
    ):
        workload.prepare()
        gc.collect()
        if traced:
            tracer.install()
        error = None
        span = tracer.span(OP_SPAN) if traced else nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                raw = workload.op()
        except (Exception, SystemExit) as exc:  # a failed op must not end the run
            error = exc
        # A traced op's time is its span, so the layers' self times add up to it.
        times[traced].append(span.seconds if traced else time.perf_counter() - t0)
        tracer.uninstall()
        if error is None:
            try:
                workload.check(workload.collect(raw))
            except (Exception, SystemExit) as exc:
                error = exc
        if error is not None:
            failures.append(f"{type(error).__name__}: {error}")
        raw = None
        if trace:
            traced = not traced
    result = {
        "op_s": times[False],
        "attempted": len(times[False]) + len(times[True]),
        "failures": failures,
    }
    if trace:
        result["traced_op_s"] = times[True]
        result["layers"] = layer_metrics(tracer.spans, len(times[True]))
        # Mean, like the per-op layer metrics, so that they add up to it.
        result["layers"]["trace.op_s"] = statistics.fmean(times[True])
        result["layers"]["trace.overhead_s"] = (
            statistics.median(times[True]) - statistics.median(times[False])
        )
        result["spans"] = tracer.spans
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    warmup = workloads.make(args.workload, "small", args.seed, args.outdir)
    warmup.prepare()
    warmup.op()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    workload = workloads.make(args.workload, args.size, args.seed, args.outdir)
    result = run_ops(workload, args.seconds, bool(args.trace))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
