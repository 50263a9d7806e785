"""Closed-form eigenvalue bounds and the assembled comparison report."""

import json
import math

import pytest

from conftest import kappa_for, kernel_for, spectrum_for

from spectral_gibbs import (
    ModelSpec,
    assemble_report,
    corollary_gate,
    crossover_n,
    ds_tv_envelope,
    ingrassia_beta1_bound,
    ingrassia_lambda_min_bound,
    report_to_dict,
    report_to_json,
    theorem2_bound,
    theorem3_bound,
    theta,
)


def test_theorem3_formula():
    # 1 - N n^{-2} e^{-4/T} / (1 + (N-1) e^{-4/T})
    n, colors, temp = 5, 3, 1.0
    expected = 1 - colors / n**2 * math.exp(-4 / temp) / (1 + (colors - 1) * math.exp(-4 / temp))
    assert math.isclose(theorem3_bound(n, colors, temp), expected, rel_tol=1e-15)
    assert math.isclose(theorem3_bound(5, 3, 1.0), 0.9978797893583142, rel_tol=1e-15)


def test_theorem2_is_three_color_slice():
    assert theorem2_bound(4, 1.3) == theorem3_bound(4, 3, 1.3)
    assert math.isclose(theorem2_bound(2, 2.0), 0.9201197658105994, rel_tol=1e-15)


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


def test_corollary_gate():
    assert corollary_gate(2, 2)  # 2 > 2/sqrt(2)
    assert not corollary_gate(1, 2)
    assert not corollary_gate(2, 3)  # 2 < 3/sqrt(2) = 2.121...
    assert corollary_gate(3, 3)
    assert not corollary_gate(2, 4)
    assert corollary_gate(3, 4)  # 3 > 4/sqrt(2) = 2.828...


def test_assemble_report_passes():
    spec = ModelSpec(2, 2, 1.0)
    report = assemble_report(kernel_for(spec), spectrum_for(spec), kappa_for(spec))
    assert report.all_passed
    assert report.verdicts["theorem3"] == "pass"
    assert "theorem2" not in report.verdicts  # needs exactly three colors
    assert report.thm2 is None
    assert math.isclose(
        report.envelope_pi_start, min(kernel_for(spec).pi.weights), rel_tol=1e-15
    )
    # the stored envelope callable matches the free function
    assert report.ds_envelope(7) == ds_tv_envelope(
        report.envelope_pi_start, report.exact_beta_star, 7
    )


def test_assemble_report_three_colors():
    spec = ModelSpec(3, 3, 1.0)
    report = assemble_report(kernel_for(spec), spectrum_for(spec), kappa_for(spec))
    assert report.verdicts["theorem2"] == "pass"
    assert report.thm2 == theorem2_bound(3, 1.0)
    assert report.verdicts["corollary_beta_star"] == "pass"


def test_assemble_report_gate_not_applicable():
    spec = ModelSpec(2, 3, 1.0)  # below n > N/sqrt(2)
    report = assemble_report(kernel_for(spec), spectrum_for(spec), kappa_for(spec))
    assert report.verdicts["corollary_beta_star"] == "not-applicable"
    assert report.all_passed


def test_assemble_report_rejects_mismatch():
    a = ModelSpec(2, 2, 1.0)
    b = ModelSpec(2, 2, 2.0)
    with pytest.raises(ValueError):
        assemble_report(kernel_for(a), spectrum_for(a), kappa_for(b))
    with pytest.raises(ValueError):
        assemble_report(kernel_for(a), spectrum_for(ModelSpec(3, 2, 1.0)), kappa_for(a))


def test_report_dict_and_json():
    spec = ModelSpec(2, 3, 0.5)
    report = assemble_report(kernel_for(spec), spectrum_for(spec), kappa_for(spec))
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
    assert payload["kappa"]["poincare_beta1"] == 1 - 1 / report.kappa_exact
    parsed = json.loads(report_to_json(report))
    # 17-digit floats survive the round trip bit for bit
    assert parsed["exact"]["beta1"] == report.exact_beta1
    assert parsed["bounds"]["theorem3"] == report.thm3
    assert parsed["all_passed"] is True
