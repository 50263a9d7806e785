"""Command-line front end: bound reports, verification suites, sweeps, TV curves.

Every command is deterministic given its flags (plus ``--seed`` where
randomness is involved): field order is fixed and floats are printed with 17
significant digits, so repeated runs at one BLAS thread count emit
byte-identical output.  The dense symmetry blocks round differently with
different thread counts (``beta1`` at (6,4,1) moves in its last digits
between one and two OpenBLAS threads), so fixing ``OPENBLAS_NUM_THREADS``
makes output comparable across machines; at N = 2 nothing depends on it.

Exit codes: 0 all applicable checks pass, 1 a verification failed (a check
of the report, or an exact solve that fails its own check, printed as one
``solver failure:`` line), 2 usage error, 3 resource limit, precision limit
or I/O failure.  A precision limit
is a result that float64 cannot hold at a (positive, finite) temperature: a
start-state probability that underflowed to 0, a spectral gap that rounded
to 0 (which ``spectral.Spectrum`` refuses), a closed form past the float
range, or Boltzmann exponents past it.

``bounds``, ``verify`` and ``tv`` refuse a chain past the spectrum's cap,
``spectral.check_spectrum_budget`` (``N^n`` states at N >= 3; none at
N = 2), before any other work; ``sweep`` leaves the exact columns of such
rows, and of rows whose Boltzmann exponents or spectral gap are past
float64, empty and sets their ``skipped_exact``.  Only ``verify`` and ``tv``
build a kernel, under its own cap of 65536 states, which ``tv`` applies
before it takes its default start; ``bounds`` and ``tv``'s default start
take the least likely state from its closed form in ``model``.

Every flag value is checked when the flags are parsed, before any work: a
value, a list item of ``sweep`` and both ends of its ``a:b`` range each
follow the rules of the single-chain flag, and a bad one is a usage error
"argument --flag: expected ..., got '...'".  A range may name at most
``MAX_RANGE`` values; a longer one is refused before its list is built.
``bounds``, ``verify`` and ``tv`` print and parse colors as the letters
a..z, so their ``--colors`` stops at 26; ``sweep`` prints no letters, so its
color counts have no upper limit.
"""

from __future__ import annotations

import argparse
import math
import sys

from .model import (
    ROUNDING_TOLERANCE,
    BudgetExceededError,
    ModelSpec,
    PrecisionLimitError,
    SolverError,
    encode_rank,
    exceeds_budget,
    least_likely_rank,
    string_to_colors,
)
from .kernel import (
    build_kernel,
    check_detailed_balance,
    check_irreducible,
    check_row_sums,
    check_stationarity,
)
from .spectral import SectorPlan, check_spectrum_budget, exceeds_spectrum_budget
from .spectral import spectrum_at
from .spectral import spectrum as compute_spectrum
from .paths import (
    certify_all_edges,
    kappa_closed_form,
    kappa_exact,
    kappa_report,
    verify_slice_identities,
)
from .bounds import (
    assemble_report,
    crossover_n,
    ingrassia_beta1_bound,
    kappa_vs_beta1,
    kappa_vs_closed_form,
    report_to_dict,
    report_to_json,
    theorem3_bound,
    theta,
)
from .chain import tv_curve
from .serialize import canonical_csv, canonical_json, format_float


# The most values an a:b range of a list flag may name; a longer range is
# refused before its list is built.
MAX_RANGE = 10_000


def _typed(convert, accept, expected: str):
    """An argparse type: ``convert(text)`` if that succeeds and ``accept``
    takes the value, else the usage error "expected <expected>, got '<text>'"."""

    def parse(text: str):
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got '{text}'")

    return parse


def _list_of(item):
    """A list flag: '2,4,6' as a list or '1:6' as an inclusive range, every
    item and both ends of a range checked by the scalar type ``item``."""

    def convert(text: str) -> list:
        if ":" not in text:
            return [item(part) for part in text.split(",") if part]
        start, stop = (item(end) for end in text.split(":", 1))
        # Temperatures take no range; a range is refused from its two ends.
        if not (isinstance(start, int) and 0 <= stop - start < MAX_RANGE):
            raise ValueError(text)
        return list(range(start, stop + 1))

    expected = f"a nonempty list or an integer range a:b of at most {MAX_RANGE} values"
    return _typed(convert, bool, expected)


_chain_length = _typed(int, lambda value: value >= 1, "a positive integer")
# A single chain prints and parses its colors as the letters a..z.
_letter_count = _typed(
    int, lambda value: 2 <= value <= 26, "a color count from 2 to 26"
)
_color_count = _typed(int, lambda value: value >= 2, "a color count >= 2")
_temperature = _typed(float, lambda value: 0 < value < math.inf, "a finite number > 0")
_steps = _typed(int, lambda value: value >= 0, "a nonnegative integer")
# A key of the Monte Carlo arm's Philox generator.
_philox_key = _typed(int, lambda value: 0 <= value < 2**128, "0 <= seed < 2**128")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as handle:
            handle.write(text)


def _exact_spec(args: argparse.Namespace) -> ModelSpec:
    """The chain of a single-spec command, refused before any other work
    when its spectrum would be."""
    spec = ModelSpec(n=args.n, num_colors=args.colors, temp=args.temp)
    check_spectrum_budget(spec)
    return spec


def cmd_bounds(args: argparse.Namespace) -> int:
    """Evaluate every bound for one chain, building no kernel, and print it."""
    spec = _exact_spec(args)
    report = assemble_report(spec, spectrum_at(spec), kappa_exact(spec))
    payload = report_to_dict(report)
    if args.format == "csv":
        # One row: every group's keys as "group.key", then all_passed.
        cells = {
            f"{group}.{key}": value
            for group, values in payload.items()
            if isinstance(values, dict)
            for key, value in values.items()
        }
        cells["all_passed"] = payload["all_passed"]
        text = canonical_csv(list(cells), [list(cells.values())])
    else:
        text = report_to_json(report)
    _emit(text, args.out)
    return 0 if payload["all_passed"] else 1


def _check(name: str, margin, passed, checked: int | None = None) -> dict:
    """One verify check; ``checked`` counts the cases it covered, if it counts."""
    counted = {} if checked is None else {"checked": checked}
    return {"name": name, **counted, "margin": margin, "passed": passed}


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the full verification suite for one chain."""
    spec = _exact_spec(args)
    kernel = build_kernel(spec)
    # The spectrum refuses an unresolved gap, so it comes before the costlier
    # checks; the printed order of the checks stays as below.
    spectrum = compute_spectrum(kernel)
    row_error = check_row_sums(kernel)
    asym = check_detailed_balance(kernel)
    residual = check_stationarity(kernel)
    connected = check_irreducible(kernel)
    slices = verify_slice_identities(kernel)
    kappa = kappa_exact(spec)
    certificates = certify_all_edges(kappa)
    poincare_margin, poincare_passed = kappa_vs_beta1(spectrum.beta1, kappa.kappa)
    closed_margin, closed_passed = kappa_vs_closed_form(
        kappa.kappa, kappa_closed_form(spec)
    )
    checks = [
        _check("row-sums", row_error, row_error <= ROUNDING_TOLERANCE),
        _check("detailed-balance", asym, asym <= ROUNDING_TOLERANCE),
        _check("stationarity", residual, residual <= ROUNDING_TOLERANCE),
        _check("irreducible", None, connected),
        _check("slice-identities", slices.max_error, slices.passed, slices.checked),
        _check(
            "edge-certificates",
            certificates.min_slack,
            certificates.all_passed,
            certificates.num_edges,
        ),
        _check("kappa-vs-beta1", poincare_margin, poincare_passed),
        _check("kappa-vs-closed-form", closed_margin, closed_passed),
    ]
    # A check that covered no case would pass vacuously, so it is left out:
    # a single site has no bond, so no slice identity to check.
    checks = [check for check in checks if check.get("checked") != 0]
    all_passed = all(c["passed"] for c in checks)
    if args.format == "json":
        payload = {
            "model": {"n": spec.n, "colors": spec.num_colors, "temp": float(spec.temp)},
            "kappa": kappa_report(kappa),
            "checks": checks,
            "all_passed": all_passed,
        }
        text = canonical_json(payload)
    else:
        lines = []
        for check in checks:
            status = "PASS" if check["passed"] else "FAIL"
            extra = f" checked={check['checked']}" if "checked" in check else ""
            if check["margin"] is not None:
                extra += f" margin={format_float(check['margin'])}"
            lines.append(f"{status} {check['name']}{extra}\n")
        lines.append(("PASS" if all_passed else "FAIL") + " overall\n")
        text = "".join(lines)
    _emit(text, args.out)
    return 0 if all_passed else 1


def _finite(value: float) -> float | None:
    """``value``, or None (an empty cell) when it is past the float range."""
    return value if math.isfinite(value) else None


def _sweep_row(spec: ModelSpec, exact: bool, plan: SectorPlan | None) -> dict:
    """One row of ``sweep``; its exact columns are filled when ``exact``, from
    ``plan``, the spectrum's plan of the row's ``(n, N)``."""
    n, colors, temp = spec.n, spec.num_colors, spec.temp
    row = {
        "n": n,
        "colors": colors,
        "temp": float(temp),
        "theorem3": theorem3_bound(n, colors, temp),
        "ingrassia_beta1": ingrassia_beta1_bound(n, colors, temp),
        "theta": _finite(theta(n, colors, temp)),
        "crossover_n": _finite(crossover_n(colors, temp)),
        "exact_beta1": None,
        "exact_beta_star": None,
        "skipped_exact": True,
    }
    if not exact:
        return row
    try:
        spectrum = spectrum_at(spec, plan)
    except PrecisionLimitError:
        return row
    row["exact_beta1"] = spectrum.beta1
    # The kernel is positive semidefinite, so the paper's rate beta* is
    # beta1; the column keeps its place for readers of the table.
    row["exact_beta_star"] = spectrum.beta1
    row["skipped_exact"] = False
    return row


def cmd_sweep(args: argparse.Namespace) -> int:
    """Tabulate bounds (and exact values up to the spectrum's cap) over a grid.

    One row per (n, colors, temp), in that lexicographic order.  Rows past
    ``exceeds_spectrum_budget``, tested without formatting a refusal, or
    whose Boltzmann exponents or spectral gap are past float64, keep empty
    exact columns and are flagged, never dropped.  A ``theta`` or
    ``crossover_n`` past the float range is empty.  No row builds a kernel:
    the temperatures of one ``(n, colors)`` share one ``SectorPlan``, and
    N = 2 needs none.
    """
    rows = []
    for n in args.n:
        for colors in args.colors:
            specs = [ModelSpec(n, colors, temp) for temp in args.temp]
            exact = not exceeds_spectrum_budget(specs[0])
            plan = SectorPlan(specs[0]) if exact and colors > 2 else None
            rows.extend(_sweep_row(spec, exact, plan) for spec in specs)
    if args.format == "json":
        text = canonical_json({"rows": rows})
    else:
        # The parsers refuse empty lists, so there is a first row.
        text = canonical_csv(list(rows[0]), [list(row.values()) for row in rows])
    _emit(text, args.out)
    return 0


def _parse_start(spec: ModelSpec, text: str) -> int:
    """The rank of ``--start``, a rank or a letter string."""
    # str.isdigit also takes digits such as '²' that int() refuses.
    if text.isascii() and text.isdigit():
        rank = int(text)
        # N^n is not formed: a rank is in range while N^n exceeds it.
        if not exceeds_budget(spec, rank):
            raise ValueError(f"start rank {rank} out of range")
        return rank
    return encode_rank(spec, string_to_colors(spec, text))


def cmd_tv(args: argparse.Namespace) -> int:
    """Emit the exact TV decay curve with its envelope (and optional MC arm)."""
    spec = _exact_spec(args)
    # A bad start is a usage error, whatever the kernel build would say; the
    # default start is taken once the kernel's cap has passed the chain.
    start = None if args.start is None else _parse_start(spec, args.start)
    kernel = build_kernel(spec)
    start = least_likely_rank(spec) if start is None else start
    curve = tv_curve(kernel, start, args.kmax, seed=args.seed)
    text = curve.to_json() if args.format == "json" else curve.to_csv()
    _emit(text, args.out)
    return 0 if curve.within_envelope else 1


def _add_common(parser: argparse.ArgumentParser, plural: bool) -> None:
    """Add ``--n``, ``--colors`` and ``--temp``: one value each, or for
    ``sweep`` (``plural``) a list of them, which prints no color letters."""
    for flag, one, each, default, help_one, help_list in (
        ("--n", _chain_length, _chain_length, "1:6",
         "chain length", "chain lengths, e.g. 1:6 or 2,4,6 (default 1:6)"),
        ("--colors", _letter_count, _color_count, "2,3,4",
         "color count (2..26)", "color counts, e.g. 2,3,4 (default 2,3,4)"),
        ("--temp", _temperature, _temperature, "0.5,1,2,5",
         "temperature", "temperatures, e.g. 0.5,1,2 (default 0.5,1,2,5)"),
    ):
        if plural:
            # argparse parses a string default with the flag's type.
            parser.add_argument(
                flag, type=_list_of(each), default=default, help=help_list
            )
        else:
            parser.add_argument(flag, type=one, required=True, help=help_one)
    parser.add_argument("--out", default=None, help="output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-gibbs",
        description="Exact spectra, path-congestion constants, and closed-form "
        "eigenvalue bounds for the random-scan single-site sampler on 1-D "
        "color chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, formats, summary in (
        ("bounds", cmd_bounds, ["json", "csv"],
         "evaluate every bound and compare with exact values"),
        ("verify", cmd_verify, ["text", "json"],
         "run reversibility, identity, and certificate checks"),
        ("sweep", cmd_sweep, ["csv", "json"],
         "tabulate bounds over a (n, colors, temp) grid"),
        ("tv", cmd_tv, ["csv", "json"],
         "exact TV decay curve against the certified envelope"),
    ):
        command = sub.add_parser(name, help=summary)
        _add_common(command, plural=name == "sweep")
        if name == "tv":
            command.add_argument(
                "--kmax", type=_steps, default=200,
                help="largest step count (default 200)",
            )
            command.add_argument(
                "--start",
                default=None,
                help="start state as a rank or a letter string like 'aab' "
                "(default: least likely state)",
            )
            command.add_argument(
                "--seed",
                type=_philox_key,
                default=None,
                help="seed of the Monte Carlo arm, 0 <= seed < 2**128",
            )
        command.add_argument("--format", choices=formats, default=formats[0])
        command.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BudgetExceededError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return 3
    except PrecisionLimitError as exc:
        sys.stderr.write(f"precision limit: {exc}\n")
        return 3
    except SolverError as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"i/o failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
