"""Command-line front end: bound reports, verification suites, sweeps, TV curves.

Every command is deterministic given its flags (plus ``--seed`` where
randomness is involved): field order is fixed and floats are printed with 17
significant digits, so repeated runs emit byte-identical output.

Exit codes: 0 all applicable checks pass, 1 a verification failed, 2 usage
error, 3 resource limit, precision limit or I/O failure.  A precision limit
is a result that float64 cannot hold at a (positive, finite) temperature: a
start-state probability that underflowed to 0, a spectral gap that rounded
to 0, a closed form past the float range, or Boltzmann exponents past it.

``bounds``, ``verify`` and ``tv`` need the dense spectrum, so they refuse a
chain above ``DENSE_SOLVE_BUDGET`` states before any kernel is built;
``sweep`` leaves the exact columns of such rows, and of rows whose kernel
or spectral gap is past float64, empty and sets their ``skipped_exact``.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .model import (
    DENSE_SOLVE_BUDGET,
    BudgetExceededError,
    ModelSpec,
    PrecisionLimitError,
    check_budget,
    encode_rank,
    string_to_colors,
)
from .kernel import (
    build_kernel,
    check_detailed_balance,
    check_irreducible,
    check_row_sums,
    check_stationarity,
)
from .spectral import check_gap_resolved
from .spectral import spectrum as compute_spectrum
from .paths import (
    SLICE_TOLERANCE,
    certify_all_edges,
    kappa_closed_form,
    kappa_exact,
    kappa_report,
    verify_slice_identities,
)
from .bounds import (
    EXACT_TOLERANCE,
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


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _color_count(text: str) -> int:
    value = int(text)
    if not 2 <= value <= 26:
        raise argparse.ArgumentTypeError(
            f"color count must be between 2 and 26, got {text}"
        )
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text}")
    return value


def _int_list(text: str) -> list[int]:
    """Parse '1:6' as an inclusive range or '2,3,4' as an explicit list."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        start, stop = int(lo), int(hi)
        if stop < start:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        return list(range(start, stop + 1))
    return _nonempty([int(part) for part in text.split(",") if part], text)


def _float_list(text: str) -> list[float]:
    return _nonempty([_positive_float(part) for part in text.split(",") if part], text)


def _nonempty(values: list, text: str) -> list:
    """``values``, refused when the list ``text`` names nothing."""
    if not values:
        raise argparse.ArgumentTypeError(f"empty list {text!r}")
    return values


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as handle:
            handle.write(text)


def _dense_spec(args: argparse.Namespace) -> ModelSpec:
    """The chain of a single-spec command, refused before any kernel is built
    when its dense spectrum would be."""
    spec = ModelSpec(n=args.n, num_colors=args.colors, temp=args.temp)
    check_budget(spec, DENSE_SOLVE_BUDGET, "dense symmetrization")
    return spec


def cmd_bounds(args: argparse.Namespace) -> int:
    """Evaluate every bound for one chain and print the report."""
    kernel = build_kernel(_dense_spec(args))
    spectrum = compute_spectrum(kernel)
    kappa = kappa_exact(kernel.spec)
    report = assemble_report(kernel, spectrum, kappa)
    if args.format == "csv":
        payload = report_to_dict(report)
        header, row = _flatten(payload)
        text = canonical_csv(header, [row])
    else:
        text = report_to_json(report)
    _emit(text, args.out)
    return 0 if report.all_passed else 1


def _flatten(payload: dict, prefix: str = "") -> tuple[list[str], list]:
    header: list[str] = []
    row: list = []
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            sub_header, sub_row = _flatten(value, f"{name}.")
            header.extend(sub_header)
            row.extend(sub_row)
        else:
            header.append(name)
            row.append(value)
    return header, row


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the full verification suite for one chain."""
    spec = _dense_spec(args)
    kernel = build_kernel(spec)
    # Refuse an unresolved gap before the costlier checks; the printed order
    # of the checks stays as below.
    spectrum = compute_spectrum(kernel)
    check_gap_resolved(spectrum)
    checks: list[dict] = []

    row_error = check_row_sums(kernel)
    checks.append(
        {"name": "row-sums", "margin": row_error, "passed": row_error <= 1e-12}
    )
    asym = check_detailed_balance(kernel)
    checks.append(
        {"name": "detailed-balance", "margin": asym, "passed": asym <= 1e-12}
    )
    residual = check_stationarity(kernel)
    checks.append(
        {"name": "stationarity", "margin": residual, "passed": residual <= 1e-12}
    )
    connected = check_irreducible(kernel)
    checks.append({"name": "irreducible", "margin": None, "passed": connected})

    worst_slice = 0.0
    count = 0
    for site in range(1, spec.n):
        for color_from in range(spec.num_colors):
            for color_to in range(spec.num_colors):
                if color_from == color_to:
                    continue
                report = verify_slice_identities(kernel, site, color_from, color_to)
                worst_slice = max(worst_slice, report.max_error)
                count += 1
    # A single site has no bond, so no identity to check and nothing to pass.
    if count:
        checks.append(
            {
                "name": "slice-identities",
                "checked": count,
                "margin": worst_slice,
                "passed": worst_slice <= SLICE_TOLERANCE,
            }
        )

    kappa = kappa_exact(spec)
    certificates = certify_all_edges(kappa)
    checks.append(
        {
            "name": "edge-certificates",
            "checked": certificates.num_edges,
            "margin": certificates.min_slack,
            "passed": certificates.all_passed,
        }
    )
    poincare_margin, passed = kappa_vs_beta1(spectrum.beta1, kappa.kappa)
    checks.append(
        {"name": "kappa-vs-beta1", "margin": poincare_margin, "passed": passed}
    )
    # Random-scan Gibbs is positive semidefinite (Liu, Wong and Kong 1995).
    checks.append(
        {
            "name": "beta-min",
            "margin": spectrum.beta_min,
            "passed": spectrum.beta_min >= -EXACT_TOLERANCE,
        }
    )
    closed_margin, passed = kappa_vs_closed_form(kappa.kappa, kappa_closed_form(spec))
    checks.append(
        {"name": "kappa-vs-closed-form", "margin": closed_margin, "passed": passed}
    )

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
            margin = (
                ""
                if check["margin"] is None
                else f" margin={format_float(check['margin'])}"
            )
            extra = f" checked={check['checked']}" if "checked" in check else ""
            lines.append(f"{status} {check['name']}{extra}{margin}\n")
        lines.append(("PASS" if all_passed else "FAIL") + " overall\n")
        text = "".join(lines)
    _emit(text, args.out)
    return 0 if all_passed else 1


def _finite(value: float) -> float | None:
    """``value``, or None (an empty cell) when it is past the float range."""
    return value if math.isfinite(value) else None


def _sweep_row(n: int, colors: int, temp: float) -> dict:
    spec = ModelSpec(n, colors, temp)
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
    try:
        check_budget(spec, DENSE_SOLVE_BUDGET, "dense symmetrization")
        spectrum = compute_spectrum(build_kernel(spec))
        check_gap_resolved(spectrum)
    except (BudgetExceededError, PrecisionLimitError):
        return row
    row["exact_beta1"] = spectrum.beta1
    row["exact_beta_star"] = spectrum.beta_star
    row["skipped_exact"] = False
    return row


def run_sweep(
    n_range: list[int], color_range: list[int], temps: list[float]
) -> list[dict]:
    """One row per (n, colors, temp), in that lexicographic order.

    Rows whose state space exceeds ``DENSE_SOLVE_BUDGET``, or whose kernel
    or spectral gap is past float64, keep empty exact columns and are
    flagged, never dropped.  A ``theta`` or ``crossover_n`` past the float
    range is empty.
    """
    combos = [
        (n, colors, temp) for n in n_range for colors in color_range for temp in temps
    ]
    return [_sweep_row(*combo) for combo in combos]


SWEEP_COLUMNS = [
    "n",
    "colors",
    "temp",
    "theorem3",
    "ingrassia_beta1",
    "theta",
    "crossover_n",
    "exact_beta1",
    "exact_beta_star",
    "skipped_exact",
]


def cmd_sweep(args: argparse.Namespace) -> int:
    """Tabulate bounds (and exact values up to the dense cap) over a grid."""
    rows = run_sweep(args.n, args.colors, args.temp)
    if args.format == "json":
        text = canonical_json({"rows": rows})
    else:
        text = canonical_csv(
            SWEEP_COLUMNS, [[row[col] for col in SWEEP_COLUMNS] for row in rows]
        )
    _emit(text, args.out)
    return 0


def _parse_start(spec: ModelSpec, text: str | None) -> int | None:
    if text is None:
        return None
    if text.isdigit():
        rank = int(text)
        if rank >= spec.num_states:
            raise ValueError(f"start rank {rank} out of range")
        return rank
    return encode_rank(spec, string_to_colors(spec, text))


def cmd_tv(args: argparse.Namespace) -> int:
    """Emit the exact TV decay curve with its envelope (and optional MC arm)."""
    spec = _dense_spec(args)
    # A bad start is a usage error, whatever the kernel build would say.
    start = _parse_start(spec, args.start)
    kernel = build_kernel(spec)
    if start is None:
        start = int(np.argmin(kernel.pi.weights))
    curve = tv_curve(kernel, start, args.kmax, seed=args.seed)
    text = curve.to_json() if args.format == "json" else curve.to_csv()
    _emit(text, args.out)
    return 0 if curve.within_envelope else 1


def _add_common(parser: argparse.ArgumentParser, plural: bool) -> None:
    if plural:
        parser.add_argument(
            "--n",
            type=_int_list,
            default=list(range(1, 7)),
            help="chain lengths, e.g. 1:6 or 2,4,6 (default 1:6)",
        )
        parser.add_argument(
            "--colors",
            type=_int_list,
            default=[2, 3, 4],
            help="color counts, e.g. 2,3,4 (default 2,3,4)",
        )
        parser.add_argument(
            "--temp",
            type=_float_list,
            default=[0.5, 1.0, 2.0, 5.0],
            help="temperatures, e.g. 0.5,1,2 (default 0.5,1,2,5)",
        )
    else:
        parser.add_argument(
            "--n", type=_positive_int, required=True, help="chain length"
        )
        parser.add_argument(
            "--colors", type=_color_count, required=True, help="color count (2..26)"
        )
        parser.add_argument(
            "--temp", type=_positive_float, required=True, help="temperature"
        )
    parser.add_argument("--out", default=None, help="output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-gibbs",
        description="Exact spectra, path-congestion constants, and closed-form "
        "eigenvalue bounds for the random-scan single-site sampler on 1-D "
        "color chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser(
        "bounds", help="evaluate every bound and compare with exact values"
    )
    _add_common(p_bounds, plural=False)
    p_bounds.add_argument("--format", choices=["json", "csv"], default="json")
    p_bounds.set_defaults(func=cmd_bounds)

    p_verify = sub.add_parser(
        "verify", help="run reversibility, identity, and certificate checks"
    )
    _add_common(p_verify, plural=False)
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser(
        "sweep", help="tabulate bounds over a (n, colors, temp) grid"
    )
    _add_common(p_sweep, plural=True)
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_tv = sub.add_parser(
        "tv", help="exact TV decay curve against the certified envelope"
    )
    _add_common(p_tv, plural=False)
    p_tv.add_argument(
        "--kmax", type=int, default=200, help="largest step count (default 200)"
    )
    p_tv.add_argument(
        "--start",
        default=None,
        help="start state as a rank or a letter string like 'aab' "
        "(default: least likely state)",
    )
    p_tv.add_argument(
        "--seed", type=int, default=None, help="seed of the Monte Carlo arm"
    )
    p_tv.add_argument("--format", choices=["csv", "json"], default="csv")
    p_tv.set_defaults(func=cmd_tv)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "kmax", 0) < 0:
        parser.error("--kmax must be nonnegative")
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
    except OSError as exc:
        sys.stderr.write(f"i/o failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
