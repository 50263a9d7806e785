"""The benchmark workloads: one op each, and the check of its output.

An op is the unit the benchmark times. Each workload drives
``spectral_gibbs.cli.main(argv)`` in-process with ``--out`` to a file, so one
op covers argument parsing, compute, serialization and the file write.

The per-step stepper ``chain.simulate_trajectory`` (500 000 steps at n=64,
N=3) is not a workload: it is interpreter-bound, and on a shared 2-core
machine the median op time of 25-second runs spread by 24% between runs
(first to third quartile), close to the largest bound a metric may have.

Checks run outside the timed region. Invariants hold at every seed; the
Monte Carlo column depends on the seed and is compared with
``reference.json`` only at ``REFERENCE_SEED``. Floats are compared with a
tolerance relative to each quantity's scale, so a result that moves in the
last digits (for example an iterative ``beta1``) still passes.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from spectral_gibbs import cli

REFERENCE_SEED = 7
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
# Relative tolerance; the scale of eigenvalues and TV distances is 1.
RTOL = 1e-9


class CheckError(Exception):
    """An op's output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _close(name: str, value, ref, scale: float | None = None) -> None:
    """Compare within ``RTOL`` times ``scale`` (default: the reference's magnitude)."""
    if ref is None or value is None:
        _require(value is None and ref is None, f"{name}: {value!r} != {ref!r}")
        return
    scale = abs(ref) if scale is None else scale
    _require(abs(value - ref) <= RTOL * scale, f"{name}: {value!r} != {ref!r}")


def load_reference(size: str, name: str) -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)[size][name]


class Workload:
    """An op made of one or more ``cli.main`` calls, each writing one file."""

    name = ""
    # size -> list of (label, argv); argv may hold "{seed}".
    commands: dict[str, list[tuple[str, list[str]]]] = {}

    def __init__(self, size: str, seed: int, outdir: str):
        self.size = size
        self.seed = seed
        self.runs = [
            (label, [arg.format(seed=seed) for arg in argv],
             os.path.join(outdir, f"{self.name}.{label}.out"))
            for label, argv in self.commands[size]
        ]

    def prepare(self) -> None:
        """Remove earlier outputs, so a command that writes nothing fails."""
        for _, _, path in self.runs:
            if os.path.exists(path):
                os.remove(path)

    def op(self) -> list[int]:
        return [cli.main(argv + ["--out", path]) for _, argv, path in self.runs]

    def collect(self, codes: list[int]) -> dict:
        outputs = {}
        for code, (label, _, path) in zip(codes, self.runs):
            with open(path) as handle:
                outputs[label] = {"code": code, "text": handle.read()}
        return outputs

    def check(self, outputs: dict) -> None:
        for label, out in outputs.items():
            _require(out["code"] == 0, f"{label}: exit code {out['code']}")
        self.check_values(self.extract(outputs), load_reference(self.size, self.name))

    def reference(self, outputs: dict):
        return self.extract(outputs)


class Certify(Workload):
    name = "certify"
    commands = {
        "full": [
            ("bounds", ["bounds", "--n", "12", "--colors", "2", "--temp", "1"]),
            ("verify", ["verify", "--n", "6", "--colors", "4", "--temp", "1",
                        "--format", "json"]),
        ],
        "small": [
            ("bounds", ["bounds", "--n", "4", "--colors", "2", "--temp", "1"]),
            ("verify", ["verify", "--n", "3", "--colors", "3", "--temp", "1",
                        "--format", "json"]),
        ],
    }

    def extract(self, outputs: dict) -> dict:
        bounds = json.loads(outputs["bounds"]["text"])
        verify = json.loads(outputs["verify"]["text"])
        margin = {c["name"]: c["margin"] for c in verify["checks"]}["kappa-vs-beta1"]
        kappa = verify["kappa"]["kappa"]
        return {
            "bounds": {
                "all_passed": bounds["all_passed"],
                "beta1": bounds["exact"]["beta1"],
                "kappa": bounds["kappa"]["exact"],
                "closed_form": bounds["kappa"]["closed_form"],
            },
            "verify": {
                "all_passed": verify["all_passed"],
                # The report states beta1 only through the Poincare margin.
                "beta1": (1.0 - 1.0 / kappa) - margin,
                "kappa": kappa,
                "closed_form": verify["kappa"]["closed_form"],
            },
        }

    def check_values(self, got: dict, ref: dict) -> None:
        for label in ("bounds", "verify"):
            out = got[label]
            _require(out["all_passed"] is True, f"{label}: all_passed is false")
            _require(
                out["kappa"] <= out["closed_form"] * (1 + RTOL),
                f"{label}: kappa {out['kappa']!r} above closed form",
            )
            _require(
                out["beta1"] <= 1.0 - 1.0 / out["kappa"] + RTOL,
                f"{label}: beta1 above 1 - 1/kappa",
            )
            _close(f"{label}.beta1", out["beta1"], ref[label]["beta1"], scale=1.0)
            _close(f"{label}.kappa", out["kappa"], ref[label]["kappa"])
            _close(f"{label}.closed_form", out["closed_form"], ref[label]["closed_form"])


SWEEP_EXACT = ("exact_beta1", "exact_beta_star")
SWEEP_BOUNDS = ("theorem3", "ingrassia_beta1", "theta", "crossover_n")


class Sweep(Workload):
    name = "sweep"
    commands = {
        "full": [("sweep", ["sweep"])],
        "small": [("sweep", ["sweep", "--n", "1:3", "--colors", "2,3",
                             "--temp", "0.5,2"])],
    }

    def extract(self, outputs: dict) -> list[dict]:
        rows = []
        for row in csv.DictReader(outputs["sweep"]["text"].splitlines()):
            rows.append({
                "n": int(row["n"]),
                "colors": int(row["colors"]),
                "temp": float(row["temp"]),
                "skipped_exact": row["skipped_exact"],
                **{c: float(row[c]) if row[c] else None
                   for c in SWEEP_EXACT + SWEEP_BOUNDS},
            })
        return rows

    def check_values(self, got: list[dict], ref: list[dict]) -> None:
        _require(len(got) == len(ref), f"{len(got)} rows, expected {len(ref)}")
        for row, want in zip(got, ref):
            key = (row["n"], row["colors"], row["temp"])
            _require(
                key == (want["n"], want["colors"], want["temp"])
                and row["skipped_exact"] == want["skipped_exact"],
                f"row {key} does not match the reference",
            )
            for col in SWEEP_EXACT:
                _close(f"{key}.{col}", row[col], want[col], scale=1.0)
            for col in SWEEP_BOUNDS:
                _close(f"{key}.{col}", row[col], want[col])
            if row["exact_beta1"] is not None:
                _require(
                    row["exact_beta1"] <= row["theorem3"] + RTOL,
                    f"{key}: exact beta1 above the theorem-3 bound",
                )


# Rows of the TV curve kept in the reference: every k up to 200, then every
# 100th, so the file stays small while the tail is still compared.
def _tv_sample(kmax: int) -> list[int]:
    return sorted(set(range(min(kmax, 200) + 1)) | set(range(0, kmax + 1, 100)) | {kmax})


class Tv(Workload):
    name = "tv"
    commands = {
        "full": [("tv", ["tv", "--n", "10", "--colors", "2", "--temp", "0.5",
                         "--kmax", "20000", "--seed", "{seed}"])],
        "small": [("tv", ["tv", "--n", "4", "--colors", "2", "--temp", "0.5",
                          "--kmax", "200", "--seed", "{seed}"])],
    }

    def extract(self, outputs: dict) -> dict:
        lines = outputs["tv"]["text"].splitlines()
        _require(lines[0] == "k,exact_tv,envelope,mc_tv", f"header {lines[0]!r}")
        table = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
        return {
            "k": table[:, 0].astype(np.int64),
            "exact_tv": table[:, 1],
            "envelope": table[:, 2],
            "mc_tv": table[:, 3],
        }

    def check_values(self, got: dict, ref: dict) -> None:
        kmax = ref["k"][-1]
        _require(np.array_equal(got["k"], np.arange(kmax + 1)), "k column is not 0..kmax")
        _require(
            bool(np.all(got["exact_tv"] <= got["envelope"] + 1e-12)),
            "exact TV exceeds the envelope",
        )
        _require(
            bool(np.all((got["mc_tv"] >= 0) & (got["mc_tv"] <= 1))),
            "Monte Carlo TV outside [0, 1]",
        )
        ks = np.asarray(ref["k"])
        _require(
            bool(np.all(np.abs(got["exact_tv"][ks] - ref["exact_tv"]) <= RTOL)),
            "exact TV differs from the reference",
        )
        envelope = np.asarray(ref["envelope"])
        _require(
            bool(np.all(np.abs(got["envelope"][ks] - envelope) <= RTOL * envelope)),
            "envelope differs from the reference",
        )
        if self.seed == REFERENCE_SEED:
            _require(
                bool(np.all(np.abs(got["mc_tv"][ks] - ref["mc_tv"]) <= RTOL)),
                "Monte Carlo TV differs from the reference",
            )

    def reference(self, outputs: dict) -> dict:
        got = self.extract(outputs)
        ks = _tv_sample(int(got["k"][-1]))
        return {col: [v.item() for v in got[col][ks]] for col in got}


WORKLOADS = {cls.name: cls for cls in (Certify, Sweep, Tv)}


def make(name: str, size: str, seed: int, outdir: str):
    return WORKLOADS[name](size, seed, outdir)
