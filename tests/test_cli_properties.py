"""Property test: no command line ends in a traceback or a warning.

Every drawn command exits 2 exactly when its input is invalid, and
otherwise 0, or 3 with one ``precision limit:`` line on stderr; its JSON
output parses.  Temperatures range over the whole float range, 1e-320 to
the largest float, plus inf and nan.  ``sweep`` list flags are drawn as
comma lists and ``a:b`` ranges, empty, reversed and around the range cap.
Items run from -3 to 10**4000 for ``--n``, to 10**30 for ``--colors`` and
over the whole float range for ``--temp``; every row's closed forms come
out finite and in range.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from conftest import check_closed_form_cells, sweep_rows

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from spectral_gibbs.cli import MAX_RANGE, main  # noqa: E402

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
            st.sampled_from(
                ["1e-320", "1e300", "1e308", "1.7976931348623157e308", "inf", "nan"]
            ),
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


# The two flags not drawn, at values whose rows stay cheap: at most 676
# states at 26 colors, and no exact spectrum at n = 17, past both caps.
SWEEP_FIXED = {
    "--n": ["--colors", "26", "--temp", "1"],
    "--colors": ["--n", "17", "--temp", "1"],
    "--temp": ["--n", "17", "--colors", "2"],
}
# The largest integer drawn for each list flag.
LARGEST = {"--n": 10**4000, "--colors": 10**30, "--temp": 10**30}


def items(flag):
    """Texts of one list item or range end of ``flag``."""
    numbers = st.integers(-3, LARGEST[flag]).map(str)
    if flag == "--temp":
        numbers |= st.floats().map(repr)
    return numbers | st.sampled_from(["", "x", "nan", "inf", "1e999", "0.5", "1e-320"])


def valid_item(flag, text):
    """Whether ``text`` is a valid value of ``flag`` in a sweep list."""
    if flag == "--temp":
        try:
            return 0 < float(text) < math.inf
        except ValueError:
            return False
    return text.lstrip("-").isdigit() and int(text) >= (1 if flag == "--n" else 2)


@st.composite
def sweep_lists(draw):
    """A sweep argv with one drawn list flag, and the number of values it
    names (None when it is invalid)."""
    flag = draw(st.sampled_from(sorted(SWEEP_FIXED)))
    if draw(st.booleans()):
        drawn = draw(st.lists(items(flag), max_size=4))
        text = ",".join(drawn)
        named = [item for item in drawn if item]
        valid = named and all(valid_item(flag, item) for item in named)
        count = len(named) if valid else None
    else:
        # Ends past 10**30 come from the items below: a range of 10**4 rows
        # whose n has 4000 digits takes seconds to print.
        start = draw(st.integers(-3, 10**30))
        offset = draw(
            st.one_of(
                st.integers(-2, 3),
                st.integers(MAX_RANGE - 2, MAX_RANGE + 1),
                st.integers(-3, 10**30),
            )
        )
        ends = [str(start), str(start + offset)]
        if draw(st.booleans()):
            ends[draw(st.integers(0, 1))] = draw(items(flag))
        text = ":".join(ends)
        valid = (
            flag != "--temp"
            and all(valid_item(flag, end) for end in ends)
            and 0 <= int(ends[1]) - int(ends[0]) < MAX_RANGE
        )
        count = int(ends[1]) - int(ends[0]) + 1 if valid else None
    fmt = draw(st.sampled_from(FORMATS["sweep"]))
    return ["sweep", f"{flag}={text}", *SWEEP_FIXED[flag], "--format", fmt], count


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(drawn=sweep_lists())
def test_sweep_lists_exit_cleanly(drawn):
    argv, count = drawn
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(argv)
    assert "Traceback" not in err
    if count is None:
        assert code == 2 and out == "", (code, err)
        flag = argv[1].split("=")[0]
        assert f"error: argument {flag}: expected " in err, err
        return
    assert code == 0, (code, err)
    rows = sweep_rows(out)
    assert len(rows) == count
    check_closed_form_cells(rows)
