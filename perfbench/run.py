"""Benchmark of spectral-gibbs: one workload per run, closed loop, one client.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload certify --seed 7 --seconds 25 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``certify``,
``sweep`` and ``tv``. The run starts ``SETUP_PROBES`` fresh
processes that only set up, then one worker process that sets up and runs
ops for ``--seconds`` (at least one; another only if it is expected to end in
time); each op starts after the previous one and its output check end.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
``setup_s`` (median over all processes of the time from process start to
ready), ``op_s.p50`` (median op time) and ``peak_rss_mb`` (peak RSS of the
worker). ``--trace 1`` alternates untraced and traced ops and reports the
per-layer metrics instead. Failed ops (an exception, a nonzero exit code or a
wrong output) are counted in ``failed``; ``ops_failed`` is printed as a
fraction on the summary lines.

Every line but the last is for people: one line per metric with its unit,
then the run record. The last line is the JSON result. The run record and,
when traced, the spans are also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 4
# A run must end within 180 s; the worker is stopped before that.
DEADLINE_S = 170.0
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "SPECTRAL_GIBBS_THREADS",
)


class RunError(Exception):
    """The benchmark could not produce a result."""


def _git_commit(root: str) -> str | None:
    """Commit of the checkout, read from ``.git`` without leaving the checkout."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as handle:
        ref = handle.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(root, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as handle:
            return handle.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def run_record(root: str, args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    src = os.path.join(root, "src", "spectral_gibbs")
    lines = {}
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path) as handle:
            lines[os.path.basename(path)] = sum(1 for _ in handle)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(root),
        # Informational only; never gates.
        "src_lines": {"total": sum(lines.values()), **lines},
    }


def _start(args: argparse.Namespace, outdir: str, env: dict, setup_only: bool,
           deadline: float):
    """Start a worker; return it and its set-up time (start to ``ready``)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--outdir", outdir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - t0))
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        _stop(proc)
        raise RunError(f"worker did not set up (exit code {proc.returncode})")
    return proc, setup


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for a started worker and return its standard output."""
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise RunError("worker ran past the deadline") from None
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return out


def run_workload(args: argparse.Namespace, root: str, outdir: str) -> tuple[dict, list[float]]:
    """Set up ``SETUP_PROBES`` + 1 fresh processes; the last one runs the ops."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    deadline = time.perf_counter() + DEADLINE_S
    setups = []
    for probe in range(SETUP_PROBES + 1):
        last = probe == SETUP_PROBES
        proc, setup = _start(args, outdir, env, not last, deadline)
        setups.append(setup)
        out = _finish(proc, deadline)
    lines = out.strip().splitlines()
    if not lines:
        raise RunError("worker printed no result")
    return json.loads(lines[-1]), setups


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="spectral-gibbs benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Small inputs for the benchmark's self-test; the benchmark uses full.
    parser.add_argument("--size", choices=("full", "small"), default="full")
    args = parser.parse_args(argv)

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "spectral_gibbs", "cli.py")):
        print("error: run from the root of a spectral-gibbs checkout "
              "(src/spectral_gibbs is missing)", file=sys.stderr)
        return 2
    with open(spec_path) as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    outdir = os.path.join(root, ".perfbench_out")
    os.makedirs(outdir, exist_ok=True)

    try:
        result, setups = run_workload(args, root, outdir)
    except (RunError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = len(result["op_s"])
    failed = len(result["failures"])
    if args.trace:
        values = result["layers"]
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "op_s.p50": statistics.median(result["op_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    for failure in result["failures"]:
        print(f"failed op: {failure}", file=sys.stderr)
    kind = "traced and untraced" if args.trace else "untraced"
    print(f"{args.workload} seed={args.seed}: {result['attempted']} ops ({kind}), "
          f"{ops} untraced; set-up measured in {len(setups)} processes")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"ops_failed {failed / result['attempted']:.6g} fraction "
          f"({failed} of {result['attempted']} ops)")

    record = run_record(root, args)
    record.update(
        setup_s=setups, op_s=result["op_s"], traced_op_s=result.get("traced_op_s"),
        peak_rss_mb=result["peak_rss_mb"], failures=result["failures"], metrics=metrics,
    )
    record_path = os.path.join(
        outdir, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record_path, "w") as handle:
        json.dump({**record, "spans": result.get("spans")}, handle)
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
