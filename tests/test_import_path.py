"""scipy stays off the import path of every command.

Each command runs in a fresh interpreter twice: as ``python -m
spectral_gibbs``, and with ``sys.modules["scipy"] = None``, which makes any
import of scipy fail.  Both runs must agree on exit code and stdout.  Only
the test oracles and ``SparseKernel.matrix`` import scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHAIN = ["--n", "4", "--colors", "3", "--temp", "1"]
WITHOUT_SCIPY = (
    "import runpy, sys; sys.modules['scipy'] = None; sys.argv[0] = 'spectral_gibbs'; "
    "runpy.run_module('spectral_gibbs', run_name='__main__', alter_sys=True)"
)
# Prints, as JSON on stderr, the scipy modules loaded when the process ends.
LOADED = (
    "import atexit, json, sys; atexit.register(lambda: print(json.dumps(sorted("
    "m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))), "
    "file=sys.stderr)); "
)


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def _scipy_modules(code, *argv):
    """The scipy modules that ``python -c code *argv`` has loaded at exit."""
    result = _python("-c", LOADED + code, *argv)
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stderr.splitlines()[-1]))


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", *CHAIN],
        ["verify", *CHAIN],
        ["verify", *CHAIN, "--format", "json"],
        ["verify", "--n", "5", "--colors", "4", "--temp", "1"],
        ["sweep", "--n", "1:4"],
        ["tv", *CHAIN, "--kmax", "20", "--seed", "1"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_command_runs_without_scipy(argv):
    plain = _python("-m", "spectral_gibbs", *argv)
    blocked = _python("-c", WITHOUT_SCIPY, *argv)
    assert plain.returncode == 0, plain.stderr
    assert blocked.returncode == plain.returncode, blocked.stderr
    assert blocked.stdout == plain.stdout


@pytest.mark.parametrize("module", ["spectral_gibbs", "spectral_gibbs.cli"])
def test_import_loads_no_scipy(module):
    assert _scipy_modules(f"import {module}") == set()


def test_tv_loads_no_scipy():
    code = (
        "import sys; from spectral_gibbs.cli import main; "
        "sys.exit(main(sys.argv[1:]))"
    )
    loaded = _scipy_modules(code, "tv", *CHAIN, "--kmax", "20", "--seed", "1")
    assert loaded == set()
