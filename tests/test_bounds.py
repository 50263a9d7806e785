"""Closed-form eigenvalue bounds and the assembled comparison report."""

import json
import math
import sys

import numpy as np
import pytest

from conftest import (
    CLOSED_FORM_CHAINS,
    CLOSED_FORM_TEMPS,
    kappa_for,
    kernel_for,
    spectrum_for,
)
from oracles import corollary_gate, ingrassia_lambda_min_bound

from spectral_gibbs import (
    ModelSpec,
    Spectrum,
    assemble_report,
    build_kernel,
    crossover_n,
    decode_rank,
    ds_tv_envelope,
    ingrassia_beta1_bound,
    kappa_closed_form,
    kappa_exact,
    report_to_dict,
    report_to_json,
    theorem3_bound,
    theta,
)
from spectral_gibbs.bounds import kappa_vs_beta1
from spectral_gibbs.model import EIGENVALUE_TOLERANCE


def test_theorem3_formula():
    # 1 - N n^{-2} e^{-4/T} / (1 + (N-1) e^{-4/T})
    n, colors, temp = 5, 3, 1.0
    expected = 1 - colors / n**2 * math.exp(-4 / temp) / (1 + (colors - 1) * math.exp(-4 / temp))
    assert math.isclose(theorem3_bound(n, colors, temp), expected, rel_tol=1e-15)
    assert math.isclose(theorem3_bound(5, 3, 1.0), 0.9978797893583142, rel_tol=1e-15)


def test_theorem2_is_three_color_slice():
    # the paper's three-color form 1 - 3 / (n^2 (e^{4/T} + 2))
    for n, temp in [(2, 2.0), (4, 1.3)]:
        dedicated = 1 - 3 / (n**2 * (math.exp(4 / temp) + 2))
        assert math.isclose(theorem3_bound(n, 3, temp), dedicated, rel_tol=1e-15)
    assert math.isclose(theorem3_bound(2, 3, 2.0), 0.9201197658105994, rel_tol=1e-15)


def test_theorem3_equals_one_minus_inverse_kappa():
    for n, colors, temp in [(2, 2, 1.0), (3, 4, 0.5), (5, 3, 2.0)]:
        spec = ModelSpec(n, colors, temp)
        from spectral_gibbs import kappa_closed_form

        assert math.isclose(
            theorem3_bound(n, colors, temp),
            1 - 1 / kappa_closed_form(spec),
            rel_tol=1e-14,
        )


def test_bound_validation():
    with pytest.raises(ValueError):
        theorem3_bound(0, 3, 1.0)
    with pytest.raises(ValueError):
        theorem3_bound(2, 1, 1.0)
    with pytest.raises(ValueError):
        theorem3_bound(2, 3, 0.0)
    with pytest.raises(ValueError):
        ingrassia_lambda_min_bound(1, 1.0)


def test_lambda_min_formula():
    # -1 + 2 / (1 + (N-1) e^{2/T})
    got = ingrassia_lambda_min_bound(3, 1.0)
    expected = -1 + 2 / (1 + 2 * math.exp(2))
    assert math.isclose(got, expected, rel_tol=1e-15)
    assert math.isclose(got, -0.8732421233339247, rel_tol=1e-15)


def test_lambda_min_past_float_range():
    # e^{2/T} overflows, and -1 + 2/(1 + (N-1) e^{2/T}) rounds to -1
    assert ingrassia_lambda_min_bound(3, 0.001) == -1.0
    assert ingrassia_lambda_min_bound(3, 0.01) == -1.0


def test_ingrassia_beta1_formula():
    # 1 - z e^{-m/T} / (b gamma C |S|) with the recipe's constants at n=4,
    # N=3: C=3, m=2, b=3^3 paths per edge, gamma=4, |S|=4 sites
    n, colors, temp = 4, 3, 1.0
    z_upper = 3 * (1 + 2 * math.exp(-0.5)) ** 3
    expected = 1 - z_upper * math.exp(-2 / temp) / (3**3 * 4 * 3 * 4)
    assert math.isclose(ingrassia_beta1_bound(n, colors, temp), expected, rel_tol=1e-14)
    # simplified closed form of the same quantity
    simplified = 1 - ((1 + (colors - 1) * math.exp(-0.5 / temp)) / colors) ** (
        n - 1
    ) * math.exp(-2 / temp) / n**2
    assert math.isclose(ingrassia_beta1_bound(n, colors, temp), simplified, rel_tol=1e-14)


def test_theta_values():
    assert math.isclose(theta(1, 3, 1.0), 2.553242221801292, rel_tol=1e-14)
    assert math.isclose(theta(4, 3, 1.0), 1.024963962390302, rel_tol=1e-13)
    assert math.isclose(theta(5, 3, 1.0), 0.7561026996569437, rel_tol=1e-13)


def test_theta_orders_the_gap_bounds():
    # theta < 1 exactly when the congestion bound beats the comparison bound
    for n in range(1, 9):
        for colors in (2, 3, 4):
            for temp in (0.2, 0.5, 1.0, 2.0):
                th = theta(n, colors, temp)
                tighter = theorem3_bound(n, colors, temp) < ingrassia_beta1_bound(
                    n, colors, temp
                )
                if abs(th - 1) > 1e-12:
                    assert (th < 1) == tighter


def test_theta_decreasing_in_n():
    values = [theta(n, 3, 1.0) for n in range(1, 10)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_theta_past_float_range():
    # e^{2/T} alone overflows a float at T=0.001; theta is inf only where
    # its own logarithm is past the float range
    assert theta(1, 2, 0.001) == math.inf
    assert theta(1000, 2, 0.001) == math.inf
    assert 1 < theta(2000, 2, 0.001) < math.inf


def test_crossover_brackets_theta():
    for colors in (2, 3, 4):
        for temp in (0.001, 0.1, 0.2, 0.5, 1.0):
            cross = crossover_n(colors, temp)
            above = math.ceil(cross + 1e-9)
            assert theta(above, colors, temp) < 1
            below = math.floor(cross - 1e-9)
            if below >= 1:
                assert theta(below, colors, temp) >= 1


def test_crossover_value():
    assert math.isclose(crossover_n(3, 1.0), 4.081047253750751, rel_tol=1e-14)


@pytest.mark.parametrize(
    "temp",
    [1e-300, 0.001, 0.05, 1.0, 1e3, 1e12, 1e20, 1e300, 1e-309, 5e-310, 1e-310,
     8.98846567431158e307, 1e308, 1.7976931348623157e308],
)
def test_theta_and_crossover_match_mpmath(temp):
    # at high temperature both factors of theta tend to 1, so their logs
    # must not cancel; at large N and low temperature 1 + (N-1) expm1(-x)/N
    # keeps few digits, or rounds to 0, though both logs are finite.  Below
    # T = 1.1e-308, 2/T is past the float range, but crossover_n is not at
    # large N: 2.9e307 at (1e30, 1e-309).  Above T = 9e307, 2T is past it,
    # but 1/(2T) is not.  The reference carries enough digits to resolve
    # e^{-1/(2T)} at T=1.8e308
    mp = pytest.importorskip("mpmath")
    with mp.workdps(400):
        t = mp.mpf(temp)
        for colors in (2, 3, 4, 10**6, 10**12, 2**53 + 1, 10**16, 10**30):
            head = (mp.exp(2 / t) + (colors - 1) * mp.exp(-2 / t)) / colors
            ratio = (1 + (colors - 1) * mp.exp(-1 / (2 * t))) / colors
            cross = mp.log(head) / -mp.log(ratio) + 1
            if cross > sys.float_info.max:
                assert crossover_n(colors, temp) == math.inf
            else:
                assert math.isclose(crossover_n(colors, temp), cross, rel_tol=1e-14)
            for n in (1, 2, 10):
                want = head * ratio ** (n - 1)
                if want > sys.float_info.max:
                    assert theta(n, colors, temp) == math.inf
                else:
                    assert math.isclose(theta(n, colors, temp), want, rel_tol=1e-14)


@pytest.mark.parametrize("temp", [0.06, 1.0, 5.0, 1e3, 1e12, 1e15, 1e17, 1e300])
def test_gap_bounds_keep_their_digits(temp):
    # at n = 1 and high temperature both bounds tend to 0 like 2/T, and a
    # form that subtracts from 1 cancels every digit; at large n the
    # comparison bound's power must not overflow
    mp = pytest.importorskip("mpmath")
    with mp.workdps(400):
        t = mp.mpf(temp)
        u = mp.exp(-4 / t)
        for n in (1, 2, 3, 12, 1000):
            for colors in (2, 3, 26):
                want = 1 - colors * u / (n * n * (1 + (colors - 1) * u))
                got = theorem3_bound(n, colors, temp)
                assert math.isclose(got, want, rel_tol=1e-15), (n, colors)
                ratio = (1 + (colors - 1) * mp.exp(-1 / (2 * t))) / colors
                want = 1 - ratio ** (n - 1) * mp.exp(-2 / t) / (n * n)
                got = ingrassia_beta1_bound(n, colors, temp)
                assert math.isclose(got, want, rel_tol=1e-15), (n, colors)


@pytest.mark.parametrize(
    "n,colors",
    [(10**200, 2), (10**400, 3), (1, 10**400), (2, 10**400), (20, 10**30),
     (10**160, 10**30)],
    ids=str,
)
def test_closed_forms_past_float_range(n, colors):
    # n^2, N u or n itself is past the float range; every closed form still
    # comes out finite and in range, the gap bounds to the last digits.  At
    # T = 1e-309, 2/T is past it too, and theta is 0 or inf by its log's sign
    mp = pytest.importorskip("mpmath")
    for temp in (1e-300, 0.001, 0.5, 1.0, 1e300, 1e-309):
        with mp.workdps(400):
            t = mp.mpf(temp)
            u, n2 = mp.exp(-4 / t), mp.mpf(n) ** 2
            want = (n2 * -mp.expm1(-4 / t) + colors * u * (n2 - 1)) / (
                n2 * (1 + (colors - 1) * u)
            )
            got = theorem3_bound(n, colors, temp)
            assert math.isclose(got, want, rel_tol=1e-13, abs_tol=1e-300), temp
            assert got <= 1
            ratio = (1 + (colors - 1) * mp.exp(-1 / (2 * t))) / colors
            r = ratio ** (n - 1) / n2
            want = -mp.expm1(-2 / t) + mp.exp(-2 / t) * (1 - r)
            got = ingrassia_beta1_bound(n, colors, temp)
            assert math.isclose(got, want, rel_tol=1e-13, abs_tol=1e-300), temp
            assert got <= 1
            head = (mp.exp(2 / t) + (colors - 1) * mp.exp(-2 / t)) / colors
            log_theta = mp.log(head) + (n - 1) * mp.log(ratio)
        assert theta(n, colors, temp) >= 0
        if temp == 1e-309:
            assert theta(n, colors, temp) == (math.inf if log_theta > 0 else 0.0)


def test_theorem3_at_most_one():
    # (n^2 (1 - u) + N u (n^2 - 1)) / (n^2 (1 + (N-1) u)) rounds to
    # 1 + 2^-52 here; values at or below 1 are left as evaluated
    assert theorem3_bound(10**9, 2, 0.5) == 1.0
    assert theorem3_bound(10**16, 30, 0.5) == 1.0
    assert theorem3_bound(10**6, 2, 0.5) == 0.9999999999999994


def test_envelope_two_site_start():
    # start (a,a): coefficient (1/2)sqrt((1-pi)/pi) with pi = e/(2e+2e^-1)
    pi_aa = math.e / (2 * math.e + 2 / math.e)
    beta = math.e / (math.e + 1 / math.e)
    got = ds_tv_envelope(pi_aa, beta, 10)
    expected = 0.5 * math.sqrt((1 - pi_aa) / pi_aa) * beta**10
    assert math.isclose(got, expected, rel_tol=1e-15)
    assert math.isclose(got, 0.1583963396912283, rel_tol=1e-13)


def test_envelope_monotone_and_start():
    values = [ds_tv_envelope(0.25, 0.9, k) for k in range(20)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert math.isclose(values[0], 0.5 * math.sqrt(3), rel_tol=1e-15)


def test_envelope_over_step_array():
    ks = np.arange(30)
    values = ds_tv_envelope(0.25, 0.9, ks)
    assert values.shape == (30,)
    # numpy's power and Python's may differ in the last digit
    scalars = [ds_tv_envelope(0.25, 0.9, int(k)) for k in ks]
    np.testing.assert_allclose(values, scalars, rtol=1e-15, atol=0)


def test_envelope_validation():
    with pytest.raises(ValueError):
        ds_tv_envelope(0.0, 0.5, 1)
    with pytest.raises(ValueError):
        ds_tv_envelope(1.0, 0.5, 1)
    with pytest.raises(ValueError):
        ds_tv_envelope(0.5, 1.0, 1)
    with pytest.raises(ValueError):
        ds_tv_envelope(0.5, -0.1, 1)
    with pytest.raises(ValueError):
        ds_tv_envelope(0.5, 0.5, -1)
    with pytest.raises(ValueError):
        ds_tv_envelope(0.5, 0.5, np.array([0, 1, -1]))


def test_corollary_gate():
    assert corollary_gate(2, 2)  # 2 > 2/sqrt(2)
    assert not corollary_gate(1, 2)
    assert not corollary_gate(2, 3)  # 2 < 3/sqrt(2) = 2.121...
    assert corollary_gate(3, 3)
    assert not corollary_gate(2, 4)
    assert corollary_gate(3, 4)  # 3 > 4/sqrt(2) = 2.828...


def test_assemble_report_passes():
    spec = ModelSpec(2, 2, 1.0)
    report = assemble_report(spec, spectrum_for(spec), kappa_for(spec))
    assert report_to_dict(report)["all_passed"]
    assert report["verdicts"]["theorem3"] == "pass"
    assert "theorem2" not in report["verdicts"]  # needs exactly three colors
    assert report["bounds"]["theorem2"] is None
    assert math.isclose(
        report["envelope"]["pi_start"], min(kernel_for(spec).pi), rel_tol=1e-15
    )


@pytest.mark.parametrize("n,colors", CLOSED_FORM_CHAINS)
def test_report_start_is_the_kernels_least_likely_state(n, colors):
    # The report builds no kernel, yet its start, the colors 0, 1, 0, 1, ...,
    # and its pi_start are the kernel's argmin of pi and that state's pi,
    # bitwise.  No verdict is read, so any resolved beta1 serves.
    for temp in CLOSED_FORM_TEMPS:
        spec = ModelSpec(n, colors, temp)
        pi = build_kernel(spec).pi
        report = assemble_report(spec, Spectrum(spec, 0.5), kappa_exact(spec))
        start = report["envelope"]["start_state"]
        assert decode_rank(spec, start) == tuple(i % 2 for i in range(n))
        assert start == int(np.argmin(pi)), spec
        assert report["envelope"]["pi_start"] == pi[start], spec


def test_assemble_report_three_colors():
    spec = ModelSpec(3, 3, 1.0)
    report = assemble_report(spec, spectrum_for(spec), kappa_for(spec))
    assert report["verdicts"]["theorem2"] == "pass"
    bounds = report["bounds"]
    assert bounds["theorem2"] == bounds["theorem3"] == theorem3_bound(3, 3, 1.0)


def test_assemble_report_has_no_vacuous_verdict():
    # P >= 0 makes beta* = beta1, so a beta* verdict would restate Theorem 3,
    # and the lambda_min floor, negative at every N and T, would pass on every
    # chain: the report holds neither, nor a derived beta*.  (2,3,1) is below
    # the corollary's gate n > N/sqrt(2).
    spec = ModelSpec(2, 3, 1.0)
    report = assemble_report(spec, spectrum_for(spec), kappa_for(spec))
    assert list(report["verdicts"]) == [
        "theorem3", "theorem2", "kappa_vs_beta1", "kappa_vs_closed_form",
        "theta_consistency",
    ]
    assert set(report["verdicts"].values()) == {"pass"}
    assert report_to_dict(report)["all_passed"]
    assert list(report["exact"]) == ["beta1", "log_z"]
    assert "ingrassia_lambda_min" not in report["bounds"]
    assert list(report["envelope"]) == ["start_state", "pi_start"]


def test_poincare_verdicts_fail_past_the_eigenvalue_tolerance():
    # At (6,4,0.15) 1/kappa is 2.9e-13.  A beta1 whose gap is a tenth of it
    # breaks the Poincare inequality by 2.6e-13, and Theorem 3, which is
    # 1 - 1/kappa_closed_form, by about as much: both beyond the solvers'
    # error, though within the 1e-10 the verdicts allowed before.
    spec = ModelSpec(6, 4, 0.15)
    kappa = kappa_for(spec)
    assert 1 / kappa.kappa < 3e-13
    broken = Spectrum(spec, 1.0 - 1.0 / (10.0 * kappa.kappa))
    report = assemble_report(spec, broken, kappa)
    assert report["verdicts"]["kappa_vs_beta1"] == "fail"
    assert report["verdicts"]["theorem3"] == "fail"
    assert kappa_vs_beta1(broken.beta1, kappa.kappa)[0] < -EIGENVALUE_TOLERANCE
    # The solved beta1 passes both.
    report = assemble_report(spec, spectrum_for(spec), kappa)
    assert report_to_dict(report)["all_passed"]


def test_theorem3_verdict_is_poincare_with_closed_form(monkeypatch):
    # theorem3 and theorem2 are decided by kappa_vs_beta1 with the closed
    # form for kappa, not by a second comparison.
    from spectral_gibbs import bounds

    spec = ModelSpec(3, 3, 1.0)
    calls = []

    def recorded(beta1, kappa):
        calls.append(kappa)
        return (0.0, False) if kappa == kappa_closed_form(spec) else (0.0, True)

    monkeypatch.setattr(bounds, "kappa_vs_beta1", recorded)
    report = assemble_report(spec, spectrum_for(spec), kappa_for(spec))
    assert sorted(calls) == sorted([kappa_closed_form(spec), kappa_for(spec).kappa])
    assert report["verdicts"]["theorem3"] == report["verdicts"]["theorem2"] == "fail"
    assert report["verdicts"]["kappa_vs_beta1"] == "pass"


@pytest.mark.parametrize("n", [30, 64, 256])
def test_theta_consistency_where_both_bounds_round_to_1(n, monkeypatch):
    # At (n, 2, 0.1) theorem3 and ingrassia_beta1 both round to 1, while
    # theta is 0.55, 4.0e-11 and 2.3e-68: the verdict reads the two gap
    # terms, which stay apart, not the two rounded bounds.
    from spectral_gibbs import bounds
    from spectral_gibbs.spectral import spectrum_at

    spec = ModelSpec(n, 2, 0.1)
    spect, kappa = spectrum_at(spec), kappa_exact(spec)
    report = assemble_report(spec, spect, kappa)
    assert report["bounds"]["theorem3"] == report["bounds"]["ingrassia_beta1"] == 1.0
    assert report["bounds"]["theta"] < 0.6
    assert report_to_dict(report)["all_passed"]
    # The verdict still fails where theta or one gap term disagrees.
    original = bounds._log_gaps
    for name, patched in [
        ("theta", lambda *args: 2.0),
        ("_log_gaps", lambda *args: (original(*args)[0], 0.0)),
        ("_log_gaps", lambda *args: (-math.inf, original(*args)[1])),
    ]:
        with monkeypatch.context() as patch:
            patch.setattr(bounds, name, patched)
            verdicts = assemble_report(spec, spect, kappa)["verdicts"]
        assert verdicts["theta_consistency"] == "fail", name


def test_assemble_report_rejects_mismatch():
    a = ModelSpec(2, 2, 1.0)
    b = ModelSpec(2, 2, 2.0)
    with pytest.raises(ValueError):
        assemble_report(a, spectrum_for(a), kappa_for(b))
    with pytest.raises(ValueError):
        assemble_report(a, spectrum_for(ModelSpec(3, 2, 1.0)), kappa_for(a))
    # Another chain with the same state count: its beta1 is 0.7311, not 0.8808.
    with pytest.raises(ValueError):
        assemble_report(a, spectrum_for(b), kappa_for(a))


def test_report_dict_and_json():
    spec = ModelSpec(2, 3, 0.5)
    report = assemble_report(spec, spectrum_for(spec), kappa_for(spec))
    payload = report_to_dict(report)
    assert list(payload) == [
        "model",
        "exact",
        "bounds",
        "kappa",
        "envelope",
        "verdicts",
        "all_passed",
    ]
    assert payload["model"] == {"n": 2, "colors": 3, "temp": 0.5}
    assert payload["kappa"]["poincare_beta1"] == 1 - 1 / report["kappa"]["exact"]
    parsed = json.loads(report_to_json(report))
    # 17-digit floats survive the round trip bit for bit
    assert parsed["exact"]["beta1"] == report["exact"]["beta1"]
    assert parsed["bounds"]["theorem3"] == report["bounds"]["theorem3"]
    assert parsed["all_passed"] is True
