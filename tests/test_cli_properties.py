"""Property test: no command line ends in a traceback or a warning.

Every drawn command exits 2 exactly when its input is invalid, and
otherwise 0, or 3 with one ``precision limit:`` line on stderr; its JSON
output parses.  Temperatures range over the whole float range, 1e-320 to
1e300, plus inf and nan.
"""

import contextlib
import io
import json
import math
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from spectral_gibbs.cli import main  # noqa: E402

FORMATS = {
    "bounds": ["json", "csv"],
    "verify": ["text", "json"],
    "sweep": ["csv", "json"],
    "tv": ["csv", "json"],
}


@st.composite
def command_lines(draw):
    """An argv of one subcommand on a chain of at most 256 states, and
    whether its input is valid."""
    command = draw(st.sampled_from(sorted(FORMATS)))
    colors = draw(st.integers(2, 26))
    n = draw(st.integers(1, max(n for n in range(1, 9) if colors**n <= 256)))
    temp = draw(
        st.one_of(
            st.floats(-320, 300).map(lambda exponent: repr(10.0**exponent)),
            st.sampled_from(["1e-320", "1e300", "inf", "nan"]),
        )
    )
    fmt = draw(st.sampled_from(FORMATS[command]))
    argv = [command, "--n", str(n), "--colors", str(colors), "--temp", temp,
            "--format", fmt]
    valid = 0 < float(temp) < math.inf
    if command == "tv":
        argv += ["--kmax", str(draw(st.integers(0, 5))), "--seed", "1"]
        start = draw(st.none() | st.integers(0, colors**n))
        if start is not None:
            argv += ["--start", str(start)]
            valid = valid and start < colors**n
    return argv, valid


def run(argv):
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(drawn=command_lines())
def test_cli_exits_cleanly(drawn):
    argv, valid = drawn
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(argv)
    assert code in ((0, 3) if valid else (2,)), (code, err)
    if code == 3:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("precision limit:"), err
    if code == 0 and "json" in argv:
        json.loads(out)
