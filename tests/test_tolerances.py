"""The package's two tolerances: the headroom of the rounding one, and a lint
that keeps them the only ones.

``ROUNDING_TOLERANCE`` decides every comparison that is not of an exact
eigenvalue.  Each headroom test takes one such comparison's worst margin,
relative to the quantity compared, at the chains where it came out largest
over N = 2..8 with N^n <= 4096 (n <= 16 at N = 2) and T in {0.06, 0.1, 0.3,
0.5, 1, 2, 5, 20, 100}, and on the acceptance grid, and requires it to stay
within a quarter of the tolerance.  A margin that only the verdict's own
code computes is checked by deciding that verdict at a quarter of the
tolerance.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from conftest import grid_specs, kappa_for, kernel_for
from oracles import pattern_table

import spectral_gibbs
from spectral_gibbs import (
    ModelSpec,
    build_kernel,
    certify_all_edges,
    check_detailed_balance,
    check_row_sums,
    check_stationarity,
    kappa_closed_form,
    kappa_exact,
    tv_curve,
    verify_slice_identities,
    worst_alpha_beta,
)
from spectral_gibbs import paths, spectral
from spectral_gibbs.model import ROUNDING_TOLERANCE
from spectral_gibbs.paths import _edge_factors

GRID = grid_specs(max_states=4096)
QUARTER = ROUNDING_TOLERANCE / 4


def _kernels(*worst):
    """The kernels of the worst chains, built afresh so that the session
    cache keeps none of 65536 states, then those of the grid."""
    yield from (build_kernel(spec) for spec in worst)
    yield from (kernel_for(spec) for spec in GRID)


def _tie_spread(values: np.ndarray, best: float) -> float:
    """Relative spread of the values within ``ROUNDING_TOLERANCE`` of ``best``."""
    tied = values[values >= (1.0 - ROUNDING_TOLERANCE) * best]
    return float(1.0 - tied.min() / best)


@pytest.mark.parametrize(
    "check, worst",
    [
        # Measured worst: 2.3e-13 (absolute, on measures below 1).
        (lambda k: verify_slice_identities(k).max_error, ModelSpec(16, 2, 0.5)),
        (check_detailed_balance, ModelSpec(10, 2, 0.06)),  # 4.3e-14
        (check_stationarity, ModelSpec(16, 2, 0.06)),  # 4.0e-14
        (check_row_sums, ModelSpec(13, 2, 2.0)),  # 5.6e-16
    ],
    ids=["slice-identities", "detailed-balance", "stationarity", "row-sums"],
)
def test_kernel_checks_within_a_quarter(check, worst):
    assert max(check(kernel) for kernel in _kernels(worst)) <= QUARTER


def test_kappa_witness_ties_within_a_quarter():
    # Measured worst over every site's table: 7.1e-14 at (13,2,100), where
    # the ties span sites.  The witness is chosen among the slab entries,
    # whose ties spread at most 8.9e-16, at (3,7,0.5).
    specs = [ModelSpec(13, 2, 100.0), ModelSpec(3, 7, 0.5)] + GRID
    results = [kappa_exact(s) for s in specs]
    spreads = [_tie_spread(pattern_table(r.spec), r.kappa) for r in results]
    assert max(spreads) <= QUARTER
    assert max(_tie_spread(r.slabs, r.kappa) for r in results) <= QUARTER


def test_worst_factor_ties_within_a_quarter():
    # Measured worst: 7.8e-16 at (1,7,0.5).
    for spec in [ModelSpec(1, 7, 0.5)] + GRID:
        worst = worst_alpha_beta(spec)
        alpha, cond = _edge_factors(spec)
        tied = (alpha / cond)[1:, 1:][tuple(np.array(worst.argmax).T)]
        assert _tie_spread(tied, worst.value) <= QUARTER, spec


def test_kappa_below_closed_form_within_a_quarter():
    # Kappa never exceeds its closed form; closest at (3,3,0.06), 2.1e-15 below.
    for spec in [ModelSpec(3, 3, 0.06)] + GRID:
        closed = kappa_closed_form(spec)
        assert (kappa_exact(spec).kappa - closed) / closed <= QUARTER, spec


def test_edge_certificates_within_a_quarter(monkeypatch):
    # No ratio exceeds its bound; closest at (2,8,0.06), 1.7e-15 below.
    monkeypatch.setattr(paths, "ROUNDING_TOLERANCE", QUARTER)
    assert certify_all_edges(kappa_exact(ModelSpec(2, 8, 0.06))).all_passed
    assert all(certify_all_edges(kappa_for(spec)).all_passed for spec in GRID)


def test_real_form_within_a_quarter(monkeypatch):
    # Measured worst imaginary part over mass: 1.0e-15 at (4,6,1).  A
    # complex sector needs N >= 3.
    monkeypatch.setattr(spectral, "ROUNDING_TOLERANCE", QUARTER)
    for spec in [ModelSpec(4, 6, 1.0)] + [s for s in GRID if s.num_colors > 2]:
        spectral.spectrum_at(spec, spectral.SectorPlan(spec))


def test_tv_above_envelope_within_a_quarter():
    # Measured worst, from rank 0 with k <= 300: 2.0e-14 at (2,2,1) and
    # 2.6e-14 at (2,7,1).  The grid starts where the CLI does.
    worst = [ModelSpec(2, 2, 1.0), ModelSpec(2, 7, 1.0)]
    starts = [0] * len(worst) + [int(np.argmin(kernel_for(s).pi)) for s in GRID]
    for kernel, start in zip(_kernels(*worst), starts):
        curve = tv_curve(kernel, start, 300)
        assert np.max(curve.exact_tv - curve.envelope) <= QUARTER, kernel.spec


SOURCES = {p.name: p for p in Path(spectral_gibbs.__file__).parent.glob("*.py")}


def tolerance_definitions(tree: ast.Module) -> dict[str, ast.expr]:
    """The value of each module-level assignment to a ``*_TOLERANCE`` name."""
    return {
        target.id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.endswith("_TOLERANCE")
    }


def small_float_literals(tree: ast.Module, allowed=()) -> list[tuple[int, float]]:
    """Line and value of every float literal below 1e-6 in ``tree`` but the
    ``allowed`` nodes.  A docstring is a string, never a float literal, so
    the numbers it quotes are not read."""
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and type(node.value) is float
        and 0.0 < node.value < 1e-6
        and all(node is not other for other in allowed)
    ]


def test_two_tolerances_both_in_model():
    trees = {name: ast.parse(path.read_text()) for name, path in SOURCES.items()}
    defined = {name: tolerance_definitions(tree) for name, tree in trees.items()}
    values = {
        name: {key: ast.unparse(value) for key, value in found.items()}
        for name, found in defined.items()
        if found
    }
    assert values == {
        "model.py": {"EIGENVALUE_TOLERANCE": "1e-13", "ROUNDING_TOLERANCE": "1e-12"}
    }
    for name, tree in trees.items():
        assert small_float_literals(tree, defined[name].values()) == [], name


def test_no_private_name_crosses_modules():
    imports = [
        (name, alias.name)
        for name, path in SOURCES.items()
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert imports == []
