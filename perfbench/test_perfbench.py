"""Self-test of the benchmark, at small sizes. Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402
from spans import OP_SPAN  # noqa: E402
from worker import run_ops  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1 + trace
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for m in wanted:
        assert any(
            line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"])
            for line in lines
        ), m["name"]
    assert any(line.startswith("ops_failed 0 fraction") for line in lines)


def _nudge_json(label: str, path: list[str], delta: float):
    def corrupt(outputs):
        payload = json.loads(outputs[label]["text"])
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += delta
        outputs[label]["text"] = json.dumps(payload)
        return outputs

    return corrupt


def _nudge_csv(label: str, row: int, column: int, delta: float):
    def corrupt(outputs):
        lines = outputs[label]["text"].splitlines()
        cells = lines[row].split(",")
        cells[column] = repr(float(cells[column]) + delta)
        lines[row] = ",".join(cells)
        outputs[label]["text"] = "\n".join(lines) + "\n"
        return outputs

    return corrupt


CORRUPTIONS = {
    "certify-beta1": ("certify", _nudge_json("bounds", ["exact", "beta1"], 1e-6)),
    "certify-kappa": ("certify", _nudge_json("verify", ["kappa", "kappa"], 1e-3)),
    "sweep-beta1": ("sweep", _nudge_csv("sweep", 5, 7, 1e-6)),
    "tv-exact": ("tv", _nudge_csv("tv", 150, 1, 1e-6)),
    "tv-mc": ("tv", _nudge_csv("tv", 20, 3, 1.0 / 256)),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupted_output_counts_as_failed_op(case, tmp_path, monkeypatch):
    name, corrupt = CORRUPTIONS[case]
    workload = workloads.make(name, "small", workloads.REFERENCE_SEED, str(tmp_path))
    assert run_ops(workload, 0, trace=False)["failures"] == []
    collect = type(workload).collect
    monkeypatch.setattr(
        type(workload), "collect", lambda self, raw: corrupt(collect(self, raw))
    )
    result = run_ops(workload, 0, trace=False)
    assert result["attempted"] == 1
    assert len(result["failures"]) == 1, result


def test_nonzero_exit_code_counts_as_failed_op(tmp_path, monkeypatch):
    workload = workloads.make("certify", "small", 11, str(tmp_path))
    monkeypatch.setattr(workloads.cli, "main", lambda argv: 1)
    result = run_ops(workload, 0, trace=False)
    assert len(result["failures"]) == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_self_times_account_for_the_traced_op(name, tmp_path):
    workload = workloads.make(name, "small", 11, str(tmp_path))
    result = run_ops(workload, 0, trace=True)
    assert result["failures"] == []
    assert len(result["op_s"]) == 1 and len(result["traced_op_s"]) == 1
    layers = result["layers"]
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(layers["trace.op_s"], rel=1e-9)
    assert layers[f"{OP_SPAN}.self_s"] < layers["trace.op_s"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(str(tmp_path), "certify", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
