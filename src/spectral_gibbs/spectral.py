"""Exact spectrum of the kernel via similarity to a symmetric matrix.

Reversibility makes ``S = D^{1/2} P D^{-1/2}`` symmetric (``D = diag(pi)``),
so the full real spectrum of ``P`` is recovered with a dense symmetric
eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import DENSE_SOLVE_BUDGET, check_budget
from .kernel import SparseKernel, check_detailed_balance
from .serialize import canonical_json

# Kernels whose detailed-balance asymmetry exceeds this are rejected.
REVERSIBILITY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """Full eigenvalue data of one kernel.

    Attributes:
        eigenvalues: All eigenvalues in descending order; the first is 1.
        beta1: Second largest eigenvalue.
        beta_min: Smallest eigenvalue.
        beta_star: ``max(beta1, |beta_min|)``, the convergence rate driver.
    """

    eigenvalues: np.ndarray
    beta1: float
    beta_min: float
    beta_star: float


def symmetrize(kernel: SparseKernel) -> np.ndarray:
    """Similarity transform of ``P`` that shares its eigenvalues.

    Returns:
        Dense symmetric matrix ``D^{1/2} P D^{-1/2}``.

    Raises:
        ValueError: If the kernel violates detailed balance beyond
            ``REVERSIBILITY_TOLERANCE``.
        BudgetExceededError: If the dimension exceeds ``DENSE_SOLVE_BUDGET``.
    """
    check_budget(kernel.dimension, DENSE_SOLVE_BUDGET, "dense symmetrization")
    asymmetry = check_detailed_balance(kernel)
    if asymmetry > REVERSIBILITY_TOLERANCE:
        raise ValueError(
            f"kernel is not reversible: detailed-balance asymmetry {asymmetry:.3e}"
        )
    sqrt_pi = np.sqrt(kernel.pi.weights)
    dense = kernel.matrix.toarray()
    dense *= sqrt_pi[:, None]
    dense /= sqrt_pi[None, :]
    return dense


def spectrum(kernel: SparseKernel) -> Spectrum:
    """Compute the full spectrum of the kernel.

    Eigenvalues come from a dense symmetric solve of the similarity
    transform and are returned in descending order without merging ties.

    Raises:
        BudgetExceededError: If the dimension exceeds ``DENSE_SOLVE_BUDGET``.
        ValueError: If the kernel is not reversible.
    """
    sym = symmetrize(kernel)
    eigs = scipy.linalg.eigvalsh(sym, overwrite_a=True, check_finite=False)
    eigs = np.ascontiguousarray(eigs[::-1])
    if abs(eigs[0] - 1.0) > 1e-8:
        raise RuntimeError(
            f"leading eigenvalue {eigs[0]!r} is not 1; solver failure"
        )
    eigs.flags.writeable = False
    beta1 = float(eigs[1])
    beta_min = float(eigs[-1])
    return Spectrum(
        eigenvalues=eigs,
        beta1=beta1,
        beta_min=beta_min,
        beta_star=max(beta1, abs(beta_min)),
    )


def spectrum_to_json(spec: Spectrum) -> str:
    """Serialize the descending eigenvalue list plus the three scalars."""
    return canonical_json(
        {
            "eigenvalues": [float(v) for v in spec.eigenvalues],
            "beta1": spec.beta1,
            "beta_min": spec.beta_min,
            "beta_star": spec.beta_star,
        }
    )
