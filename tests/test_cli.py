"""Command-line interface: outputs, determinism, and exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from spectral_gibbs import (
    ModelSpec,
    build_kernel,
    crossover_n,
    ingrassia_beta1_bound,
    theorem3_bound,
    tv_curve,
)
from spectral_gibbs.cli import main


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
    assert len(lines) == 10
    assert all(line.startswith(("PASS", "FAIL")) for line in lines)
    assert lines[-1] == "PASS overall"
    names = {line.split()[1] for line in lines}
    assert {
        "row-sums",
        "detailed-balance",
        "stationarity",
        "irreducible",
        "slice-identities",
        "edge-certificates",
        "kappa-vs-beta1",
        "beta-min",
        "kappa-vs-closed-form",
        "overall",
    } <= names


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
        ["sweep", "--n", "13", "--colors", "2", "--temp", "1"], capsys
    )
    assert code == 0
    row = out.splitlines()[1].split(",")
    # 8192 states exceeds the dense budget: bounds only, flagged
    assert row[7] == "" and row[8] == ""
    assert row[9] == "true"


def test_sweep_json(capsys):
    code, out = run_main(
        ["sweep", "--n", "1:2", "--colors", "2", "--temp", "0.5,1", "--format", "json",
         "--seed", "5"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 5
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


def test_cli_budget_exit_code(capsys):
    code = main(["bounds", "--n", "9", "--colors", "4", "--temp", "1"])
    assert code == 3
    capsys.readouterr()
    # 16384 states: the kernel fits, the dense eigensolve refuses
    code = main(["verify", "--n", "7", "--colors", "4", "--temp", "1"])
    assert code == 3
    assert "dense symmetrization" in capsys.readouterr().err


def test_verify_refuses_before_checks(capsys, monkeypatch):
    # Above the dense budget every single-chain command refuses before it
    # builds a kernel, also past the state-enumeration budget (n=9).
    from spectral_gibbs import cli

    def fail(spec):
        raise AssertionError("build_kernel ran before the dense budget refusal")

    monkeypatch.setattr(cli, "build_kernel", fail)
    for command in ("bounds", "verify", "tv"):
        for n, states in ((7, 16384), (8, 65536), (9, 262144)):
            code = main([command, "--n", str(n), "--colors", "4", "--temp", "1"])
            assert code == 3, (command, n)
            assert capsys.readouterr().err == (
                f"resource limit: dense symmetrization would touch {states} "
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
    # some edge capacities pi*P underflow to 0, so kappa is undefined
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
    assert 1 <= len(calls) <= 2


def test_verify_fails_negative_beta_min(capsys, monkeypatch):
    from spectral_gibbs import Spectrum, cli

    def negative(kernel):
        eigs = np.array([1.0, 0.5, -0.25])
        return Spectrum(eigenvalues=eigs, beta1=0.5, beta_min=-0.25, beta_star=0.5)

    monkeypatch.setattr(cli, "compute_spectrum", negative)
    code, out = run_main(["verify", "--n", "2", "--colors", "2", "--temp", "1"], capsys)
    assert code == 1
    assert "FAIL beta-min margin=-0.25" in out.splitlines()


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
