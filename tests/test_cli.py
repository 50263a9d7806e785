"""Command-line interface: outputs, determinism, and exit codes."""

import csv
import hashlib
import json
import re
import subprocess
import sys
import time

import pytest
from conftest import check_closed_form_cells, sweep_rows

from spectral_gibbs import (
    ModelSpec,
    PrecisionLimitError,
    build_kernel,
    crossover_n,
    format_float,
    ingrassia_beta1_bound,
    spectrum,
    theorem3_bound,
    tv_curve,
)
from spectral_gibbs import cli
from spectral_gibbs.cli import main
from spectral_gibbs.model import ROUNDING_TOLERANCE


def run_main(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_bounds_json(capsys):
    code, out = run_main(["bounds", "--n", "2", "--colors", "2", "--temp", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["model"] == {"n": 2, "colors": 2, "temp": 1}
    assert payload["all_passed"] is True
    assert payload["bounds"]["theorem3"] == theorem3_bound(2, 2, 1.0)
    assert payload["bounds"]["theorem2"] is None
    assert payload["kappa"]["exact"] <= payload["kappa"]["closed_form"]


def test_bounds_csv(capsys):
    code, out = run_main(
        ["bounds", "--n", "2", "--colors", "3", "--temp", "1", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("model.n,model.colors,model.temp,")
    assert "bounds.theorem2" in lines[0]


def test_verify_text(capsys):
    code, out = run_main(["verify", "--n", "2", "--colors", "3", "--temp", "1"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    assert all(line.startswith(("PASS", "FAIL")) for line in lines)
    assert lines[-1] == "PASS overall"
    # The least eigenvalue is checked inside the spectrum, by every command.
    assert [line.split()[1] for line in lines] == [
        "row-sums",
        "detailed-balance",
        "stationarity",
        "irreducible",
        "slice-identities",
        "edge-certificates",
        "kappa-vs-beta1",
        "kappa-vs-closed-form",
        "overall",
    ]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_single_site_leaves_out_slice_identities(fmt, capsys):
    # with no bond there is no identity to check, so no vacuous PASS
    code, out = run_main(
        ["verify", "--n", "1", "--colors", "3", "--temp", "1", "--format", fmt], capsys
    )
    assert code == 0
    if fmt == "json":
        names = [check["name"] for check in json.loads(out)["checks"]]
    else:
        names = [line.split()[1] for line in out.splitlines()]
    assert "slice-identities" not in names and "edge-certificates" in names


def test_verify_json(capsys):
    code, out = run_main(
        ["verify", "--n", "2", "--colors", "2", "--temp", "0.5", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert {c["name"] for c in payload["checks"]} >= {"row-sums", "edge-certificates"}
    assert set(payload["kappa"]["argmax_edge"]) == {
        "site",
        "colorFrom",
        "colorTo",
        "neighbors",
    }


def test_sweep_csv(capsys):
    code, out = run_main(
        ["sweep", "--n", "1:3", "--colors", "2,3", "--temp", "1"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    header = (
        "n,colors,temp,theorem3,ingrassia_beta1,theta,crossover_n,"
        "exact_beta1,exact_beta_star,skipped_exact"
    )
    assert lines[0] == header
    assert len(lines) == 7
    # rows ordered by (n, colors, temp)
    keys = [tuple(line.split(",")[:2]) for line in lines[1:]]
    assert keys == sorted(keys)
    row = lines[1].split(",")
    assert float(row[3]) == theorem3_bound(1, 2, 1.0)
    assert float(row[4]) == ingrassia_beta1_bound(1, 2, 1.0)
    assert row[9] == "false"


def test_sweep_flags_skipped_exact(capsys):
    code, out = run_main(
        ["sweep", "--n", "13:17", "--colors", "2,4", "--temp", "1"], capsys
    )
    assert code == 0
    rows = {
        (int(row[0]), int(row[1])): row
        for row in (line.split(",") for line in out.splitlines()[1:])
    }
    # 4^13 exceeds the dense budget: bounds only, flagged
    for n, colors in [(13, 4), (16, 4), (17, 4)]:
        row = rows[n, colors]
        assert row[7] == "" and row[8] == "" and row[9] == "true", (n, colors)
    # At N = 2 the spectrum is one root in theta, so 2^17 states fill in as
    # well as 2^13.
    for n in range(13, 18):
        row = rows[n, 2]
        assert float(row[7]) == float(row[8]) < 1.0 and row[9] == "false", n


def test_sweep_two_color_exact_at_any_n(capsys):
    code, out = run_main(["sweep", "--n", "15:20", "--colors", "2"], capsys)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 24
    for row in rows:
        assert row["skipped_exact"] == "false", row
        assert float(row["exact_beta1"]) == float(row["exact_beta_star"]) < 1.0
    # N = 2 has no spectrum cap: n = 4097, once refused, and n = 10^6 get
    # their exact columns.  At n = 10^15, beta1 = 1 - 3.6e-17 rounds to 1,
    # so that row is flagged, as is any row past the float range.
    code, out = run_main(
        ["sweep", "--n", "4097,1000000,1000000000000000", "--colors", "2", "--temp", "1"],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert [row["skipped_exact"] for row in rows] == ["false", "false", "true"]
    for row in rows[:2]:
        assert float(row["exact_beta1"]) == float(row["exact_beta_star"]) < 1.0
    assert rows[2]["exact_beta1"] == rows[2]["exact_beta_star"] == ""


def test_sweep_json(capsys):
    code, out = run_main(
        ["sweep", "--n", "1:2", "--colors", "2", "--temp", "0.5,1", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["rows"]
    assert len(payload["rows"]) == 4
    assert payload["rows"][0]["n"] == 1


def test_sweep_low_temperature(capsys):
    # theta past the float range prints empty instead of raising, and the
    # exact columns of a row whose gap rounded to 0 are empty and flagged
    code, out = run_main(
        ["sweep", "--n", "1:3", "--colors", "2", "--temp", "0.001"], capsys
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 3
    assert all(row[5] == "" for row in rows)
    assert all(float(row[6]) == crossover_n(2, 0.001) for row in rows)
    assert rows[0][7:] == ["0", "0", "false"]
    assert all(row[7:] == ["", "", "true"] for row in rows[1:])


def test_sweep_low_temperature_json_parses(capsys):
    code, out = run_main(
        ["sweep", "--n", "1:3", "--colors", "2", "--temp", "0.001", "--format", "json"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["n"] for row in rows] == [1, 2, 3]
    assert all(row["theta"] is None for row in rows)
    assert rows[0]["skipped_exact"] is False
    for row in rows[1:]:
        assert row["exact_beta1"] is None and row["exact_beta_star"] is None
        assert row["skipped_exact"] is True


def test_tv_csv_matches_library(capsys):
    code, out = run_main(
        ["tv", "--n", "2", "--colors", "2", "--temp", "1", "--kmax", "8",
         "--start", "1", "--seed", "3"],
        capsys,
    )
    assert code == 0
    spec = ModelSpec(2, 2, 1.0)
    assert out == tv_curve(build_kernel(spec), 1, 8, seed=3).to_csv()


def test_tv_distances_at_most_one(capsys):
    # pi of the default start is about e^-41, and the sum of |mu - pi| over
    # the 2048 states rounds up, so the unclamped exact TV would pass 1 at
    # k = 0 (1.0000000000000004).
    code, out = run_main(
        ["tv", "--n", "11", "--colors", "2", "--temp", "0.5", "--kmax", "2000",
         "--seed", "3", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    for column in ("exact_tv", "mc_tv"):
        assert max(payload[column]) == 1.0, column
        assert payload[column][0] == 1.0, column


def test_tv_past_the_rounding_floor_keeps_the_envelope(capsys):
    # From its least likely state the exact TV falls to 3.9e-13 by k = 3786.
    # Propagated on to its float fixed point, rounding alone lifts it to
    # 1.06e-12, above the envelope plus the tolerance from k = 106925 on, a
    # false "envelope violated" (exit 1); the arm holds the TV instead.
    code, out = run_main(
        ["tv", "--n", "10", "--colors", "2", "--temp", "0.5", "--kmax", "120000"],
        capsys,
    )
    assert code == 0
    rows = out.splitlines()[1:]
    tail = {row.split(",")[1] for row in rows[3786:]}
    assert len(tail) == 1 and float(tail.pop()) <= ROUNDING_TOLERANCE


def test_tv_single_site_odd_colors_has_zero_envelope(capsys):
    # One site with N = 3: the second eigenvalue solves to -5.55e-17, and
    # P >= 0 makes the rate 0, so the envelope is 0 after the first step
    # instead of powers of the rounding noise.
    code, out = run_main(
        ["tv", "--n", "1", "--colors", "3", "--temp", "1", "--kmax", "5"], capsys
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [float(row[2]) for row in rows][1:] == [0.0] * 5


def test_tv_start_letters_equal_rank(capsys):
    code_letters, out_letters = run_main(
        ["tv", "--n", "2", "--colors", "2", "--temp", "1", "--kmax", "4",
         "--start", "ab"],
        capsys,
    )
    code_rank, out_rank = run_main(
        ["tv", "--n", "2", "--colors", "2", "--temp", "1", "--kmax", "4",
         "--start", "1"],
        capsys,
    )
    assert code_letters == code_rank == 0
    assert out_letters == out_rank


def test_tv_default_start_is_least_likely(capsys):
    code, out = run_main(
        ["tv", "--n", "2", "--colors", "2", "--temp", "1", "--kmax", "0",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["start_state"] == 1  # argmin of pi at this spec
    assert len(payload["exact_tv"]) == 1


def test_cli_rerun_byte_identical(tmp_path):
    base = ["bounds", "--n", "2", "--colors", "3", "--temp", "0.5"]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(base + ["--out", str(first)]) == 0
    assert main(base + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_cli_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--n", "2", "--colors", "2"])  # --temp missing
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--n", "0", "--colors", "2", "--temp", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nosuchcommand"])
    assert exc.value.code == 2
    # the state caps are fixed; there is no flag to lower them
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--n", "3", "--colors", "3", "--temp", "1",
              "--budget-states", "8"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag", [["--n", ""], ["--n", ","], ["--n", "5:3"], ["--colors", ","], ["--temp", ""]],
    ids=" ".join,
)
def test_sweep_empty_list_is_usage_error(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", *flag])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "empty" in captured.err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (command, flag, value)
        for command, flags in [
            ("tv", ["--n", "--colors", "--temp", "--kmax", "--seed"]),
            ("sweep", ["--n", "--colors", "--temp"]),
        ]
        for flag in flags
        for value in ["x", "-1", "0", "nan", "1e999"]
        # 0 steps and seed 0 are valid
        if not (flag in ("--kmax", "--seed") and value == "0")
    ],
)
def test_bad_flag_value_names_what_was_expected(command, flag, value, capsys):
    # each value is refused when parsed, as a single-chain value or as the
    # one item of a sweep list, with a message that names no private function
    argv = [command, "--n", "2", "--colors", "2", "--temp", "1"] + (
        ["--kmax", "3"] if command == "tv" else []
    )
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"{flag}={value}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(lines) == 1
    assert f"error: argument {flag}: expected " in lines[0]
    assert lines[0].endswith(f", got '{value}'")
    assert not re.search(r"(?<![\w-])_\w", captured.err), captured.err


@pytest.mark.parametrize("flag", [["--n", "2,0"], ["--colors", "2,1"]], ids=" ".join)
def test_sweep_bad_item_is_refused_before_any_kernel(flag, monkeypatch, capsys):
    # a list item follows the rules of the single-chain flag, so a bad item
    # late in a list is refused before the rows of the good ones are made
    def no_kernel(spec):
        raise AssertionError("build_kernel called")

    monkeypatch.setattr(cli, "build_kernel", no_kernel)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", *flag])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"argument {flag[0]}: expected " in captured.err


@pytest.mark.parametrize("stop", [10**20, 10**12], ids=str)
def test_sweep_range_past_cap_is_refused_unbuilt(stop, capsys):
    # the range is refused from its ends; 10**20 values would not fit an
    # index, and 10**12 would fill memory
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--n", f"1:{stop}"])
    assert time.perf_counter() - start < 1.0
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"at most {cli.MAX_RANGE} values" in captured.err


def test_sweep_range_up_to_cap():
    # a range of MAX_RANGE values is taken whole, one more is refused
    parse = cli.build_parser().parse_args
    top = 9 + cli.MAX_RANGE
    assert parse(["sweep", "--n", f"10:{top}"]).n == list(range(10, top + 1))
    with pytest.raises(SystemExit):
        parse(["sweep", "--n", f"9:{top}"])


@pytest.mark.parametrize("seed", ["-1", str(2**128), str(10**41), "x"])
def test_tv_bad_seed_is_refused_before_any_work(seed, monkeypatch, capsys):
    # the Philox key must be 0 <= seed < 2**128; the flag is refused when
    # parsed, before the kernel is built or the curve propagated
    def no_kernel(spec):
        raise AssertionError("build_kernel called")

    monkeypatch.setattr(cli, "build_kernel", no_kernel)
    with pytest.raises(SystemExit) as exc:
        main(["tv", "--n", "10", "--colors", "2", "--temp", "0.5", "--kmax", "20000",
              "--seed", seed])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--seed" in captured.err


@pytest.mark.parametrize("seed", [0, 2**128 - 1], ids=str)
def test_tv_seed_range_ends_run(seed, capsys):
    argv = ["tv", "--n", "2", "--colors", "2", "--temp", "1", "--kmax", "5"]
    assert main(argv + ["--seed", str(seed), "--format", "json"]) == 0
    curve = json.loads(capsys.readouterr().out)
    assert curve["seed"] == seed and len(curve["mc_tv"]) == 6


@pytest.mark.parametrize("command", ["bounds", "verify", "sweep"])
def test_seed_only_on_tv(command, capsys):
    # only the Monte Carlo arm of tv draws random numbers
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "2", "--colors", "2", "--temp", "1", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bounds", "verify", "tv", "sweep"])
def test_huge_n_decided_without_forming_the_state_count(command, capsys):
    # 3^30000000 has over 14 million digits: forming it would take about 25 s,
    # and printing it exceeds Python's integer-to-string digit limit
    start = time.perf_counter()
    code = main([command, "--n", "30000000", "--colors", "3", "--temp", "1"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert elapsed < 1.0
    if command == "sweep":
        assert code == 0 and captured.out.splitlines()[1].endswith(",,,true")
        return
    assert code == 3 and captured.out == ""
    assert captured.err == (
        "resource limit: dense symmetrization would touch 3^30000000 states, "
        "exceeding its budget of 4096\n"
    )


def test_cli_bad_start_is_usage_error(capsys):
    code = main(
        ["tv", "--n", "2", "--colors", "2", "--temp", "1", "--start", "zz"]
    )
    assert code == 2
    code = main(
        ["tv", "--n", "2", "--colors", "2", "--temp", "1", "--start", "99"]
    )
    assert code == 2
    capsys.readouterr()
    # str.isdigit takes '²', which int() refuses: it is read as a letter.
    code = main(["tv", "--n", "1", "--colors", "2", "--temp", "1", "--start", "²"])
    assert code == 2
    assert capsys.readouterr().err == "error: color letters are 'a'..'z', got '²'\n"


def test_cli_budget_exit_code(capsys):
    code = main(["bounds", "--n", "9", "--colors", "4", "--temp", "1"])
    assert code == 3
    capsys.readouterr()
    # 16384 states: the kernel fits, the dense eigensolve refuses
    code = main(["verify", "--n", "7", "--colors", "4", "--temp", "1"])
    assert code == 3
    assert "dense symmetrization" in capsys.readouterr().err


def test_two_color_bounds_at_any_n(capsys, monkeypatch):
    # At N = 2 the spectrum is one root in theta and kappa reads three
    # neighbor-pattern slabs, so bounds, which builds no kernel, takes any n,
    # n = 4097 included, which the spectrum's cap once refused.  verify and
    # tv build a kernel, so the state enumeration's own cap of 65536 states
    # still stops them at n = 17, before any state is enumerated and before
    # tv takes its default start.
    from spectral_gibbs import model

    argv = ["--n", "16", "--colors", "2", "--temp", "1"]
    for command in ("bounds", "verify", "tv"):
        code, out = run_main([command, *argv], capsys)
        assert code == 0 and out, command
    for n in (17, 1000, 4097):
        code, out = run_main(
            ["bounds", "--n", str(n), "--colors", "2", "--temp", "1"], capsys
        )
        payload = json.loads(out)
        assert code == 0 and payload["all_passed"], n
        assert set(payload["verdicts"].values()) == {"pass"}, n

    def fail(*args):
        raise AssertionError("work ran before the budget refusal")

    monkeypatch.setattr(model, "color_rows", fail)
    monkeypatch.setattr(cli, "least_likely_rank", fail)
    for n in ("17", "1" + "0" * 400):
        for command in ("verify", "tv"):
            code = main([command, "--n", n, "--colors", "2", "--temp", "1"])
            assert code == 3, command
            assert capsys.readouterr().err == (
                f"resource limit: state enumeration would touch 2^{n} states, "
                "exceeding its budget of 65536\n"
            ), command


def test_bounds_at_a_million_sites(capsys):
    # Kappa's three slabs cost O(N^4) at any n: the whole command takes
    # 0.13 s and 30 MiB in a fresh process on 2 cores, most of it the
    # imports.  The least likely state's rank has 301030 digits, past what
    # Python prints, so its envelope start is null.
    code, out = run_main(
        ["bounds", "--n", "1000000", "--colors", "2", "--temp", "1"], capsys
    )
    payload = json.loads(out)
    assert code == 0 and payload["all_passed"]
    assert 0.0 < payload["exact"]["beta1"] < 1.0
    assert payload["envelope"] == {"start_state": None, "pi_start": 0.0}


def test_bounds_at_10_to_the_14_sites(capsys):
    # Kappa reads its site sums from their closed form, so no array of n
    # floats caps it: 10^14 sites pass like a million.
    code, out = run_main(
        ["bounds", "--n", "100000000000000", "--colors", "2", "--temp", "1"], capsys
    )
    assert code == 0 and json.loads(out)["all_passed"]


def test_bounds_start_state_is_null_past_the_digit_limit(capsys):
    # At N = 2 the rank of 0, 1, 0, 1, ... has 4300 digits at n = 14285,
    # the most that Python converts to text, and 4301 at n = 14286.
    from spectral_gibbs.model import least_likely_rank

    starts = {}
    for n in (14285, 14286):
        code, out = run_main(
            ["bounds", "--n", str(n), "--colors", "2", "--temp", "1"], capsys
        )
        assert code == 0
        starts[n] = json.loads(out)["envelope"]["start_state"]
    assert starts == {14285: least_likely_rank(ModelSpec(14285, 2, 1.0)), 14286: None}
    code, out = run_main(
        ["bounds", "--n", "14286", "--colors", "2", "--temp", "1", "--format", "csv"],
        capsys,
    )
    header, row = (line.split(",") for line in out.splitlines())
    assert code == 0 and row[header.index("envelope.start_state")] == ""


def test_bounds_past_the_float_range_of_n(capsys):
    # 2(n - 1)/T does not convert to a float at n = 10^400: a precision
    # limit, not an OverflowError
    code = main(["bounds", "--n", "1" + "0" * 400, "--colors", "2", "--temp", "1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == (
        "precision limit: Boltzmann exponents differ past the float range at temp 1.0\n"
    )


def test_tv_start_is_checked_before_the_kernel_cap(capsys, monkeypatch):
    # An explicit bad start stays a usage error past the kernel's cap, and a
    # start rank is checked against N^n without forming it.
    for n, start in [("20", "zz"), ("20", str(2**20)), ("1" + "0" * 400, "ab")]:
        code = main(["tv", "--n", n, "--colors", "2", "--temp", "1", "--start", start])
        assert code == 2, (n, start)
        assert capsys.readouterr().err.startswith("error: "), (n, start)
    code = main(["tv", "--n", "1" + "0" * 400, "--colors", "2", "--temp", "1", "--start", "5"])
    assert code == 3
    assert capsys.readouterr().err.startswith("resource limit: state enumeration")


def test_bounds_prints_an_underflowed_envelope_start(capsys):
    # At (1024, 2, 1) the least likely state's pi is exp(-2046 - log Z),
    # which underflows to 0.  No verdict reads it, so bounds prints it as
    # computed, with the start's 308-digit rank, and passes.
    from spectral_gibbs.model import least_likely_rank

    spec = ModelSpec(1024, 2, 1.0)
    code, out = run_main(
        ["bounds", "--n", "1024", "--colors", "2", "--temp", "1"], capsys
    )
    payload = json.loads(out)
    assert code == 0 and payload["all_passed"]
    assert payload["envelope"]["pi_start"] == 0.0
    assert payload["envelope"]["start_state"] == least_likely_rank(spec)


@pytest.mark.parametrize("n,colors", [(12, 2), (6, 4)])
def test_bounds_builds_no_kernel(n, colors, capsys, monkeypatch):
    # log Z and the least likely state are closed forms, and the spectrum
    # and kappa read no state table.
    from spectral_gibbs import kernel, model, paths

    def fail(*args):
        raise AssertionError("bounds built a kernel or enumerated the states")

    for namespace in (model, kernel, paths):
        monkeypatch.setattr(namespace, "colors_table", fail)
    monkeypatch.setattr(cli, "build_kernel", fail)
    argv = ["bounds", "--n", str(n), "--colors", str(colors), "--temp", "1"]
    code, out = run_main(argv, capsys)
    assert code == 0
    assert json.loads(out)["all_passed"] is True


def test_verify_refuses_before_checks(capsys, monkeypatch):
    # Above the dense budget every single-chain command refuses before it
    # builds a kernel, also past the state-enumeration budget (n=9).
    from spectral_gibbs import cli

    def fail(spec):
        raise AssertionError("build_kernel ran before the dense budget refusal")

    monkeypatch.setattr(cli, "build_kernel", fail)
    for command in ("bounds", "verify", "tv"):
        for n in (7, 8, 9):
            code = main([command, "--n", str(n), "--colors", "4", "--temp", "1"])
            assert code == 3, (command, n)
            assert capsys.readouterr().err == (
                f"resource limit: dense symmetrization would touch 4^{n} "
                "states, exceeding its budget of 4096\n"
            ), (command, n)


@pytest.mark.parametrize("chain", [("3", "5"), ("4", "3"), ("4", "4")], ids="-".join)
def test_verify_edge_certificates_pass_on_rounding(chain, capsys):
    # the worst ratio exceeds its bound by a relative 8e-15 at T = 0.06
    n, colors = chain
    code, out = run_main(
        ["verify", "--n", n, "--colors", colors, "--temp", "0.06"], capsys
    )
    assert code == 0
    assert any(line.startswith("PASS edge-certificates ") for line in out.splitlines())
    assert out.endswith("PASS overall\n")


def test_verify_refuses_unresolved_gap_before_other_checks(capsys, monkeypatch):
    from spectral_gibbs import cli

    def fail(*args):
        raise AssertionError("a check ran before the gap refusal")

    for name in ("kappa_exact", "certify_all_edges", "verify_slice_identities"):
        monkeypatch.setattr(cli, name, fail)
    code = main(["verify", "--n", "3", "--colors", "2", "--temp", "0.01"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("precision limit: ")


@pytest.mark.parametrize("command", ["bounds", "verify"])
@pytest.mark.parametrize("chain", [("4", "3", "0.01"), ("3", "2", "0.005")])
def test_low_temperature_kappa_refuses(command, chain, capsys):
    # kappa reads no edge capacity pi*P, which underflows here, but the gap
    # rounds to 0 at (4,3,0.01) and the closed form is past the float range
    # at (3,2,0.005)
    n, colors, temp = chain
    code = main([command, "--n", n, "--colors", colors, "--temp", temp])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("precision limit: ")


@pytest.mark.parametrize(
    "argv",
    [
        # pi of the default start underflows to 0 and beta* rounds to 1
        ["tv", "--n", "3", "--colors", "2", "--temp", "0.001", "--kmax", "5",
         "--seed", "1"],
        # beta* rounds to 1, so the envelope would be flat
        ["tv", "--n", "3", "--colors", "2", "--temp", "0.01", "--kmax", "3"],
        # beta1 and 1 - 1/kappa both round to 1
        ["verify", "--n", "3", "--colors", "2", "--temp", "0.01"],
        ["bounds", "--n", "3", "--colors", "2", "--temp", "0.02"],
        # e^{4/T} in the closed forms is past the float range
        ["bounds", "--n", "2", "--colors", "2", "--temp", "0.005"],
        ["verify", "--n", "2", "--colors", "2", "--temp", "0.005"],
        # The gap is 5.06e-17 (60-digit mpmath), below 2^-54, so beta1
        # rounds to 1.
        ["bounds", "--n", "12", "--colors", "2", "--temp", "0.06"],
        ["verify", "--n", "12", "--colors", "2", "--temp", "0.06"],
    ],
    ids=" ".join,
)
def test_low_temperature_refuses_without_traceback(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("precision limit:")


@pytest.mark.parametrize("n", [10, 11])
def test_low_temperature_gap_above_half_an_ulp_resolves(n, capsys):
    # The gaps at T = 0.06 are 7.42e-17 and 6.07e-17, above 2^-54, so beta1
    # rounds to 1 - 2^-53 and every verdict and check is decided; the dense
    # solve of A lost them in its rounding and refused both chains.
    argv = ["--n", str(n), "--colors", "2", "--temp", "0.06", "--format", "json"]
    code, out = run_main(["bounds", *argv], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["all_passed"]
    assert payload["exact"]["beta1"] == 0.9999999999999999
    assert set(payload["verdicts"].values()) == {"pass"}
    code, out = run_main(["verify", *argv], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["all_passed"]
    assert all(check["passed"] for check in payload["checks"])


@pytest.mark.parametrize("command", ["bounds", "verify", "sweep", "tv"])
def test_temperature_domain(command, capsys):
    # a temperature must be positive and finite; one whose Boltzmann
    # exponents differ past the float range is a precision limit
    base = [command, "--n", "2", "--colors", "3", "--temp"]
    for temp in ("inf", "nan", "0"):
        with pytest.raises(SystemExit) as exc:
            main(base + [temp])
        assert exc.value.code == 2
    capsys.readouterr()
    code = main(base + ["1e-320"])
    captured = capsys.readouterr()
    if command == "sweep":
        assert code == 0
        assert captured.out.splitlines()[1].endswith(",,,true")
    else:
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("precision limit: Boltzmann exponents")


def test_sweep_high_temperature(capsys):
    # theta's factors tend to 1; crossover_n tends to 1 at N=2 and -1 at N=3
    code, out = run_main(
        ["sweep", "--n", "1:2", "--colors", "2,3", "--temp", "1e20,1e300"], capsys
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 8
    for row in rows:
        expected = 1.0 if row[1] == "2" else -1.0
        assert float(row[6]) == pytest.approx(expected, abs=1e-12), row


def test_sweep_at_large_n_and_high_temperature(capsys):
    # the comparison bound's power overflowed at n=300, N=26; at n=1 and
    # T=1e12 both bounds are 2e-12 to the last digit or two
    code, out = run_main(
        ["sweep", "--n", "1,300", "--colors", "2,26", "--temp", "1,1e12"], capsys
    )
    assert code == 0
    cells = [line.split(",") for line in out.splitlines()[1:]]
    rows = {tuple(row[:3]): row for row in cells}
    assert float(rows["300", "26", "1"][4]) == pytest.approx(1.0, abs=1e-12)
    for column in (3, 4):
        assert float(rows["1", "2", "1000000000000"][column]) == pytest.approx(
            2e-12, rel=1e-15
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "1" + "0" * 200, "--colors", "2", "--temp", "1"],
        ["--n", "1" + "0" * 200, "--colors", "2", "--temp", "1", "--format", "json"],
        ["--n", "1" + "0" * 400, "--colors", "2", "--temp", "1", "--format", "json"],
        ["--n", "20", "--colors", str(10**16), "--temp", "0.001"],
        ["--n", "5000", "--colors", str(10**20), "--temp", "1e-5"],
        ["--n", "2", "--colors", "3", "--temp", "1e308"],
    ],
    ids=["n=1e200", "n=1e200-json", "n=1e400-json", "N=1e16", "N=1e20", "T=1e308"],
)
def test_sweep_closed_forms_at_any_n_and_colors(argv, capsys):
    # n^2 is past the float range from n = 1e155 and n itself from 1e309;
    # 1 + (N-1) expm1(-4/T)/N rounds to 0 at N = 1e16 and T = 0.001; 2T is
    # past the float range at T = 1e308
    code, out = run_main(["sweep", *argv], capsys)
    assert code == 0
    rows = sweep_rows(out)
    assert len(rows) == 1
    check_closed_form_cells(rows)


def test_sweep_one_site_with_many_colors(capsys):
    # Past 127 colors the color table leaves int8, and one site reads only
    # the missing-neighbor row of the local table; one site's beta1 is 0.
    from spectral_gibbs.model import EIGENVALUE_TOLERANCE

    colors = [127, 128, 129, 200, 1000]
    argv = ["sweep", "--n", "1", "--colors", ",".join(map(str, colors)), "--temp", "1"]
    code, out = run_main(argv, capsys)
    assert code == 0
    rows = sweep_rows(out)
    assert [int(row["colors"]) for row in rows] == colors
    for row in rows:
        assert row["skipped_exact"] == "false", row
        assert abs(float(row["exact_beta1"])) <= EIGENVALUE_TOLERANCE, row


# Every N^n <= 4096, so no row is refused for its size.  At T = 1e-309 the
# Boltzmann exponents are past the float range, at 0.001 most gaps rounded
# to 0, and at 0.06 some did.
@pytest.mark.parametrize(
    "argv",
    [["--n", "1:12", "--colors", "2"], ["--n", "1:7", "--colors", "3"],
     ["--n", "1:6", "--colors", "4"], ["--n", "1:5", "--colors", "5"],
     ["--n", "1", "--colors", "128,129,4096"]],
    ids=lambda argv: f"N={argv[3]}",
)
def test_sweep_matches_the_single_chain_path(argv, monkeypatch, capsys):
    # sweep evaluates one plan per (n, N) at each temperature and builds no
    # kernel; each exact cell is byte for byte what the spectrum of the
    # chain's kernel gives, and the same rows are skipped, with no
    # RuntimeWarning, which the pytest settings make an error.
    def no_kernel(spec):
        raise AssertionError("sweep built a kernel")

    monkeypatch.setattr(cli, "build_kernel", no_kernel)
    code, out = run_main(["sweep", *argv, "--temp", "1e-309,0.001,0.06,0.5,1,5"], capsys)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    for row in rows:
        spec = ModelSpec(int(row["n"]), int(row["colors"]), float(row["temp"]))
        try:
            want = format_float(spectrum(build_kernel(spec)).beta1), "false"
        except PrecisionLimitError:
            want = "", "true"
        assert (row["exact_beta1"], row["skipped_exact"]) == want, spec
    assert {row["skipped_exact"] for row in rows} == {"true", "false"}


# Runs its arguments and prints their peak RSS in KiB on stderr.
PEAK_RSS = (
    "import resource, subprocess, sys\n"
    "code = subprocess.run(sys.argv[1:]).returncode\n"
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


@pytest.mark.parametrize(
    "argv",
    [["--n", "1", "--colors", "4096", "--temp", "1"],
     ["--n", "13:16", "--colors", "2", "--temp", "1"]],
    ids=["one-site", "two-color"],
)
def test_sweep_corners_fill_every_exact_cell_in_little_memory(argv):
    # A kernel of one site with 4096 colors holds 4096 x 4096 tables, and
    # one of (16, 2) enumerates 65536 states; sweep builds neither, so both
    # stay near the interpreter's own footprint (the first peaked at
    # 685 MiB when each row built its kernel).
    command = [sys.executable, "-m", "spectral_gibbs", "sweep", *argv]
    result = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, *command], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    rows = list(csv.DictReader(result.stdout.splitlines()))
    assert rows and all(row["skipped_exact"] == "false" for row in rows)
    peak_kib = int(result.stderr.splitlines()[-1])
    assert peak_kib < 150 * 1024, peak_kib


def test_sweep_skips_rows_past_the_cap_without_a_refusal(monkeypatch, capsys):
    # Formatting a refusal writes the 4000-digit n out, only for sweep to drop
    # it; the rows past the cap must not construct one.  The sha256 pins the
    # ten rows' bytes: empty exact columns and skipped_exact set.
    from spectral_gibbs import BudgetExceededError

    refusals = []
    original = BudgetExceededError.__init__

    def counted(self, *args):
        refusals.append(args)
        original(self, *args)

    monkeypatch.setattr(BudgetExceededError, "__init__", counted)
    big = 10**4000
    code, out = run_main(
        ["sweep", f"--n={big - 5}:{big + 4}", "--colors", "26", "--temp", "1"], capsys
    )
    assert code == 0 and refusals == []
    assert len(out.splitlines()) == 11
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "accd7b809ee8a767360f76b61081e9c81c189b68194388449fabd2152105dbb3"
    )


@pytest.mark.parametrize("kmax", [10**15, 2**60, 10**19, 2**63 - 1], ids=str)
def test_tv_kmax_past_memory_is_a_resource_limit(kmax, capsys):
    # numpy refuses each curve before it touches memory: the 8 PB one with
    # MemoryError, the larger ones, past what it can index, with ValueError
    code = main(["tv", "--n", "2", "--colors", "2", "--temp", "1", "--kmax", str(kmax)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("resource limit: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--n", "5", "--colors", "3", "--temp", "1"],
        ["verify", "--n", "5", "--colors", "3", "--temp", "1"],
        ["tv", "--n", "5", "--colors", "3", "--temp", "1", "--kmax", "20",
         "--seed", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_state_space_enumerated_at_most_twice(argv, capsys, monkeypatch):
    # the kernel carries its color table; nothing downstream rebuilds it
    from spectral_gibbs import bounds, chain, cli, kernel, model, paths, spectral

    calls = []
    original = model.colors_table

    def counted(spec):
        calls.append(spec)
        return original(spec)

    for module in (bounds, chain, cli, kernel, model, paths, spectral):
        if hasattr(module, "colors_table"):
            monkeypatch.setattr(module, "colors_table", counted)
    assert main(argv) == 0
    capsys.readouterr()
    # bounds reads log Z and the least likely state from closed forms.
    assert len(calls) == 0 if argv[0] == "bounds" else 1 <= len(calls) <= 2


def test_cli_io_exit_code(capsys):
    code = main(
        ["verify", "--n", "2", "--colors", "2", "--temp", "1",
         "--out", "/nonexistent/dir/out.txt"]
    )
    assert code == 3
    capsys.readouterr()


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "spectral_gibbs", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "bounds" in result.stdout and "sweep" in result.stdout
