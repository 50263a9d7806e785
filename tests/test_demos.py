"""Scripts outside the package: every demo runs to completion, with
RuntimeWarning as an error, and every name the benchmark wraps exists."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        cwd=demo.parent,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_benchmark_wraps_existing_names():
    # perfbench/spans.py replaces each (namespace, attribute) of WRAPPED with
    # a timed wrapper, so a name deleted from the package breaks its traced
    # runs; its own self-test runs outside this suite.
    location = importlib.util.spec_from_file_location(
        "spans", ROOT / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(location)
    location.loader.exec_module(spans)
    missing = [
        f"{getattr(namespace, '__name__', namespace)}.{attr}"
        for _, _, names in spans.WRAPPED
        for namespace, attr in names
        if not callable(getattr(namespace, attr, None))
    ]
    assert not missing
