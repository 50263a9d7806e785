"""Shared fixtures: the acceptance grid and a session-wide pipeline cache.

Kernels, spectra, and the marginal oracle's edge tables are expensive at the
top of the grid (4096 states), so every test that needs one goes through the
cached accessors below instead of rebuilding.
"""

import csv
import json
import math
from functools import lru_cache

import numpy as np
import pytest
from oracles import marginal_kappa_tables, two_color_eigenvalues

from spectral_gibbs import (
    ModelSpec,
    build_kernel,
    kappa_exact,
    spectrum,
)
from spectral_gibbs.spectral import SectorPlan

GRID_N = tuple(range(1, 7))
GRID_COLORS = (2, 3, 4)
GRID_TEMPS = (0.5, 1.0, 2.0, 5.0)


def grid_specs(max_states=4096, min_n=1):
    """The acceptance grid, ordered by (n, colors, temp)."""
    return [
        ModelSpec(n, colors, temp)
        for n in GRID_N
        for colors in GRID_COLORS
        for temp in GRID_TEMPS
        if colors**n <= max_states and n >= min_n
    ]


# The closed forms' grid: N = 2..8 with N^n <= 4096, N = 2 up to the
# kernel's 65536 states, each at these temperatures; 414 chains.
CLOSED_FORM_TEMPS = (0.06, 0.1, 0.3, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0)
CLOSED_FORM_CHAINS = [
    (n, colors)
    for colors in range(2, 9)
    for n in range(1, 17)
    if colors**n <= (65536 if colors == 2 else 4096)
]


def sweep_rows(out):
    """The rows of ``sweep`` output, CSV or JSON, as dicts; the closed-form
    columns are floats, or None where the cell is empty."""
    if out.startswith("{"):
        return json.loads(out)["rows"]
    rows = list(csv.DictReader(out.splitlines()))
    for row in rows:
        for column in ("theorem3", "ingrassia_beta1", "theta", "crossover_n"):
            row[column] = float(row[column]) if row[column] else None
    return rows


def check_closed_form_cells(rows):
    """Both gap bounds in [0, 1], theta empty or >= 0, and crossover_n
    finite, or empty where it, about ``2/(T log N)`` at low T, is past the
    float range."""
    for row in rows:
        assert 0 <= row["theorem3"] <= 1, row
        assert 0 <= row["ingrassia_beta1"] <= 1, row
        assert row["theta"] is None or row["theta"] >= 0, row
        log_colors = math.log(int(row["colors"]))
        past_range = 2.0 / log_colors / float(row["temp"]) > 1e308
        assert row["crossover_n"] is not None or past_range, row


@lru_cache(maxsize=None)
def kernel_for(spec):
    return build_kernel(spec)


@lru_cache(maxsize=None)
def spectrum_for(spec):
    return spectrum(kernel_for(spec))


def block_eigenvalues(spec):
    """Every eigenvalue of the kernel, descending, from the package's symmetry
    blocks, each block counted for its class."""
    parts = []
    for _, block, multiplicity in SectorPlan(spec).blocks(spec):
        parts.extend([np.linalg.eigvalsh(block)] * multiplicity)
    return np.sort(np.concatenate(parts))[::-1]


@lru_cache(maxsize=None)
def full_spectrum(spec):
    """Every eigenvalue, descending and read-only: the subset sums at N = 2,
    whose largest nonempty one ``spectrum`` keeps, else the blocks.
    ``spectrum`` keeps only ``beta1``, so every other eigenvalue is read
    from here."""
    eigs = two_color_eigenvalues(spec) if spec.num_colors == 2 else block_eigenvalues(spec)
    eigs.flags.writeable = False
    return eigs


@lru_cache(maxsize=None)
def kappa_for(spec):
    return kappa_exact(spec)


@lru_cache(maxsize=None)
def marginal_tables_for(spec):
    return marginal_kappa_tables(kernel_for(spec))


@pytest.fixture
def announce(capsys):
    """Print a criterion verdict line that survives pytest's capture."""

    def _announce(criterion, passed, detail=""):
        status = "PASS" if passed else "FAIL"
        with capsys.disabled():
            print(f"[criterion {criterion:2d}] {status} {detail}".rstrip())

    return _announce
