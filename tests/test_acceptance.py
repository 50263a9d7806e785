"""Acceptance gate: one test per criterion, one printed verdict line each.

The grid is {n=1..6} x {colors=2,3,4} x {temp=0.5,1,2,5}, capped at 4096
states (which admits every combination).  Tests run in definition order, so
the timed criteria below see a cold cache for the work they claim to time.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import full_spectrum, grid_specs, kappa_for, kernel_for, spectrum_for
from oracles import corollary_gate, ingrassia_lambda_min_bound, two_color_eigenvalues

from spectral_gibbs import (
    ModelSpec,
    build_kernel,
    certify_all_edges,
    check_detailed_balance,
    check_irreducible,
    check_stationarity,
    crossover_n,
    ingrassia_beta1_bound,
    kappa_closed_form,
    theorem3_bound,
    theta,
    verify_slice_identities,
    worst_alpha_beta,
)
from spectral_gibbs.model import EIGENVALUE_TOLERANCE
from spectral_gibbs.cli import main as cli_main

GRID = grid_specs(max_states=4096)


def test_criterion_01_kernel_validity(announce):
    started = time.perf_counter()
    failures = []
    for spec in GRID:
        kern = kernel_for(spec)
        rows = np.abs(np.asarray(kern.matrix.sum(axis=1)).ravel() - 1.0).max()
        if rows > 1e-12:
            failures.append((spec, "row-sums", rows))
        asym = check_detailed_balance(kern)
        if asym > 1e-12:
            failures.append((spec, "detailed-balance", asym))
        resid = check_stationarity(kern)
        if resid > 1e-12:
            failures.append((spec, "stationarity", resid))
        if not check_irreducible(kern):
            failures.append((spec, "irreducible", None))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60.0
    announce(
        1,
        ok,
        f"kernel validity on {len(GRID)} specs "
        f"({elapsed:.1f}s, {len(failures)} failures)",
    )
    assert not failures, failures[:5]
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_02_upper_bound_dominance(announce):
    failures = []
    checked = 0
    for spec in GRID:
        if spec.n < 2:
            continue
        beta1 = spectrum_for(spec).beta1
        bound = theorem3_bound(spec.n, spec.num_colors, spec.temp)
        checked += 1
        if not beta1 < bound:
            failures.append((spec, beta1, bound))
        if spec.num_colors == 3:
            # the three-color slice must agree with the paper's dedicated
            # form 1 - 3 / (n^2 (e^{4/T} + 2))
            dedicated = 1 - 3 / (spec.n**2 * (math.exp(4 / spec.temp) + 2))
            if not math.isclose(bound, dedicated, rel_tol=1e-15):
                failures.append((spec, "three-color slice mismatch"))
    ok = not failures
    announce(2, ok, f"exact beta1 strictly below the bound on {checked} specs")
    assert not failures, failures[:5]


def test_criterion_03_lambda_min_bound(announce):
    # The floor is negative, and random-scan Gibbs is positive semidefinite,
    # so the least eigenvalue, which spectrum does not keep, must clear both.
    failures = []
    for spec in GRID:
        least = full_spectrum(spec)[-1]
        bound = ingrassia_lambda_min_bound(spec.num_colors, spec.temp)
        if not least >= bound:
            failures.append((spec, least, bound))
        if not least >= -EIGENVALUE_TOLERANCE:
            failures.append((spec, least, "negative"))
    ok = not failures
    announce(
        3, ok, f"least eigenvalue above its closed-form floor and 0 on {len(GRID)} specs"
    )
    assert not failures, failures[:5]


def test_criterion_04_beta_star_dominance(announce):
    failures = []
    checked = 0
    for spec in GRID:
        if not corollary_gate(spec.n, spec.num_colors):
            continue
        checked += 1
        beta_star = max(spectrum_for(spec).beta1, abs(full_spectrum(spec)[-1]))
        bound = theorem3_bound(spec.n, spec.num_colors, spec.temp)
        if not beta_star < bound:
            failures.append((spec, beta_star, bound))
    ok = not failures
    announce(4, ok, f"beta* strictly below the bound on {checked} gated specs")
    assert not failures, failures[:5]


def test_criterion_05_kappa_soundness(announce):
    # time the largest state space fresh; the cache has not seen kappa yet
    largest = [s for s in GRID if s.num_states == 4096]
    slowest = 0.0
    for spec in largest:
        started = time.perf_counter()
        kappa_for(spec)
        slowest = max(slowest, time.perf_counter() - started)
    failures = []
    for spec in GRID:
        result = kappa_for(spec)
        beta1 = spectrum_for(spec).beta1
        # equality holds at n=1, so allow eigensolver roundoff
        if not 1 - 1 / result.kappa >= beta1 - EIGENVALUE_TOLERANCE:
            failures.append((spec, "poincare", result.kappa, beta1))
        closed = kappa_closed_form(spec)
        if not result.kappa <= closed * (1 + 1e-12):
            failures.append((spec, "closed-form", result.kappa, closed))
    ok = not failures and slowest <= 600.0
    announce(
        5,
        ok,
        f"congestion constant sound on {len(GRID)} specs "
        f"(largest spec {slowest:.1f}s)",
    )
    assert not failures, failures[:5]
    assert slowest <= 600.0, f"largest spec took {slowest:.1f}s"


def test_criterion_06_proof_identities(announce):
    slice_failures = []
    certificate_failures = []
    for spec in GRID:
        report = verify_slice_identities(kernel_for(spec))
        if report.max_error > 1e-12:
            slice_failures.append((spec, report.max_error))
        summary = certify_all_edges(kappa_for(spec))
        if not summary.all_passed:
            certificate_failures.append((spec, summary.min_slack))

    # worst alpha+beta: attained exactly at a shared third neighbor color
    pattern_failures = []
    for colors in (3, 4):
        for temp in (0.5, 1.0, 2.0, 5.0):
            worst = worst_alpha_beta(ModelSpec(3, colors, temp))
            if not math.isclose(worst.value, worst.closed_form, rel_tol=1e-12):
                pattern_failures.append((colors, temp, "value", worst.value))
            for pattern in worst.argmax:
                left, right, color_from, color_to = pattern
                if left != right or left in (color_from, color_to):
                    pattern_failures.append((colors, temp, "pattern", pattern))
    for temp in (0.5, 1.0, 2.0, 5.0):
        # two colors leave no third color: strictly below the closed form
        worst = worst_alpha_beta(ModelSpec(3, 2, temp))
        if not worst.value < worst.closed_form:
            pattern_failures.append((2, temp, "strictness", worst.value))

    ok = not slice_failures and not certificate_failures and not pattern_failures
    announce(
        6,
        ok,
        "slice identities, per-edge certificates, and worst-factor pattern "
        f"verified on {len(GRID)} specs",
    )
    assert not slice_failures, slice_failures[:5]
    assert not certificate_failures, certificate_failures[:5]
    assert not pattern_failures, pattern_failures[:5]


def test_criterion_07_tv_envelope_all_starts(announce):
    specs = grid_specs(max_states=1024)
    worst_margin = -math.inf
    failures = []
    for spec in specs:
        kern = kernel_for(spec)
        # P >= 0, so the envelope's rate beta* = max(beta1, |beta_min|) is beta1.
        beta1 = spectrum_for(spec).beta1
        pi = kern.pi
        coef = 0.5 * np.sqrt((1 - pi) / pi)
        transposed = kern.matrix.T.tocsr()
        dists = np.eye(spec.num_states)  # column j: chain started at j
        rate = 1.0
        for k in range(201):
            if k:
                dists = transposed @ dists
                rate *= beta1
            tv = 0.5 * np.abs(dists - pi[:, None]).sum(axis=0)
            margin = float((tv - coef * rate).max())
            worst_margin = max(worst_margin, margin)
            if margin > 1e-12:
                failures.append((spec, k, margin))
                break
    ok = not failures
    announce(
        7,
        ok,
        f"exact TV within the envelope for all starts, k<=200, "
        f"{len(specs)} specs (worst margin {worst_margin:.2e})",
    )
    assert not failures, failures[:5]


def _log_gap_congestion(n, colors, temp):
    # log of (1 - congestion bound), written to stay finite at low temp
    return (
        math.log(colors)
        - 2 * math.log(n)
        - 4 / temp
        - math.log1p((colors - 1) * math.exp(-4 / temp))
    )


def _log_gap_geometric(n, colors, temp):
    # log of (1 - geometric-bound beta1), same scaling discipline
    per_site = math.log1p((colors - 1) * math.exp(-0.5 / temp)) - math.log(colors)
    return -2 * math.log(n) + (n - 1) * per_site - 2 / temp


def test_criterion_08_improvement_region(announce):
    failures = []
    for colors in (2, 3, 4):
        for temp in (0.1, 0.2, 0.5, 1.0):
            cross = crossover_n(colors, temp)
            for n in range(1, math.ceil(cross) + 6):
                if abs(n - cross) < 1e-9:
                    continue
                th = theta(n, colors, temp)
                if n > cross:
                    if not th < 1:
                        failures.append((n, colors, temp, "above", th))
                    # At low temp both bounds round to exactly 1.0 in doubles
                    # (gaps ~1e-21 sit far below the float spacing at 1), so
                    # strict `<` on the bounds themselves cannot resolve the
                    # ordering there. Forbid any reversal of the rounded
                    # bounds, then assert strict ordering on the log-gaps,
                    # which never underflow.
                    t3 = theorem3_bound(n, colors, temp)
                    ib = ingrassia_beta1_bound(n, colors, temp)
                    if t3 > ib:
                        failures.append((n, colors, temp, "reversal", ib - t3))
                    lg_c = _log_gap_congestion(n, colors, temp)
                    lg_g = _log_gap_geometric(n, colors, temp)
                    if not lg_g < lg_c:
                        failures.append((n, colors, temp, "ordering", lg_g - lg_c))
                else:
                    if not th >= 1:
                        failures.append((n, colors, temp, "below", th))
    ok = not failures
    announce(8, ok, "theta crossover matches the bound ordering on 12 (colors, temp) cells")
    assert not failures, failures[:5]


def test_criterion_09_analytic_spot_checks(announce):
    failures = []

    single = ModelSpec(1, 3, 1.0)
    result = kappa_for(single)
    spect = spectrum_for(single)
    if result.kappa != 1.0:
        failures.append(("kappa", result.kappa))
    if abs(spect.beta1) > 1e-12:
        failures.append(("beta1", spect.beta1))
    # the congestion bound is attained with equality here
    if abs((1 - 1 / result.kappa) - spect.beta1) > 1e-10:
        failures.append(("equality", result.kappa, spect.beta1))

    # 4-state chain at T=1: hand eigendecomposition gives {1, p, q, 0}
    # (antisymmetric vector -> q; symmetric block -> {1, p, 0}; the multiset
    # matches trace(P) = 2)
    two = ModelSpec(2, 2, 1.0)
    p = math.e / (math.e + 1 / math.e)
    q = 1 - p
    eigs = two_color_eigenvalues(two)
    expected = np.array([1.0, p, q, 0.0])
    if np.abs(eigs - expected).max() > 1e-12:
        failures.append(("spectrum", eigs.tolist()))
    spect = spectrum_for(two)
    if abs(spect.beta1 - p) > 1e-12:
        failures.append(("two-site beta1", spect.beta1))
    if abs(eigs[-1]) > 1e-12:
        failures.append(("two-site least eigenvalue", eigs[-1]))
    beta_star = max(spect.beta1, abs(eigs[-1]))
    if abs(beta_star - p) > 1e-12:
        failures.append(("two-site beta*", beta_star))

    ok = not failures
    announce(
        9,
        ok,
        "single-site chain attains the bound; 4-state spectrum is {1, p, q, 0}",
    )
    assert not failures, failures


def test_criterion_10_cli_determinism(announce, tmp_path):
    commands = {
        "bounds": ["bounds", "--n", "2", "--colors", "3", "--temp", "1"],
        "verify": ["verify", "--n", "2", "--colors", "3", "--temp", "0.5",
                   "--format", "json"],
        "sweep": ["sweep", "--n", "1:3", "--colors", "2,3", "--temp", "0.5,1"],
        "tv": ["tv", "--n", "3", "--colors", "3", "--temp", "1", "--kmax", "60",
               "--seed", "11"],
    }
    failures = []
    for name, args in commands.items():
        first = tmp_path / f"{name}_1.out"
        second = tmp_path / f"{name}_2.out"
        cli_main(args + ["--out", str(first)])
        cli_main(args + ["--out", str(second)])
        if first.read_bytes() != second.read_bytes():
            failures.append((name, "in-process"))
        # fresh interpreter: determinism must not lean on process state
        third = tmp_path / f"{name}_3.out"
        proc = subprocess.run(
            [sys.executable, "-m", "spectral_gibbs", *args, "--out", str(third)],
            capture_output=True,
        )
        if proc.returncode not in (0, 1):
            failures.append((name, "subprocess", proc.returncode))
        elif first.read_bytes() != third.read_bytes():
            failures.append((name, "cross-process"))
    ok = not failures
    announce(10, ok, f"byte-identical reruns for {len(commands)} commands")
    assert not failures, failures
