"""Exact spectral analysis of the random-scan single-site sampler on 1-D color chains.

The package builds the reversible transition kernel for a nearest-neighbor
agreement energy at temperature T, computes its spectrum exactly at small
sizes, bounds the spectral gap through canonical-path congestion, and
evaluates the closed-form eigenvalue bounds that the congestion argument
yields, together with independent comparison bounds and a certified
total-variation decay envelope.
"""

from .model import (
    DENSE_SOLVE_BUDGET,
    EXACT_STATES_BUDGET,
    BudgetExceededError,
    GibbsMeasure,
    ModelSpec,
    PrecisionLimitError,
    colors_to_string,
    decode_rank,
    encode_rank,
    stationary_measure,
    string_to_colors,
)
from .kernel import (
    SparseKernel,
    bond_score,
    build_kernel,
    check_detailed_balance,
    check_irreducible,
    check_row_sums,
    check_stationarity,
)
from .spectral import Spectrum, spectrum
from .paths import (
    CertificateSummary,
    EdgeCertificate,
    EdgeLoad,
    KappaResult,
    SliceIdentityReport,
    WorstFactors,
    boundary_edge_bound,
    certify_all_edges,
    kappa_closed_form,
    kappa_exact,
    kappa_report,
    verify_slice_identities,
    worst_alpha_beta,
)
from .bounds import (
    BoundReport,
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
from .chain import (
    TvCurve,
    make_rng,
    tv_curve,
    tv_distance,
)
from .serialize import canonical_csv, canonical_json, format_float

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "BoundReport",
    "CertificateSummary",
    "DENSE_SOLVE_BUDGET",
    "EXACT_STATES_BUDGET",
    "EdgeCertificate",
    "EdgeLoad",
    "GibbsMeasure",
    "KappaResult",
    "ModelSpec",
    "PrecisionLimitError",
    "SliceIdentityReport",
    "SparseKernel",
    "Spectrum",
    "TvCurve",
    "WorstFactors",
    "assemble_report",
    "bond_score",
    "boundary_edge_bound",
    "build_kernel",
    "canonical_csv",
    "canonical_json",
    "certify_all_edges",
    "check_detailed_balance",
    "check_irreducible",
    "check_row_sums",
    "check_stationarity",
    "colors_to_string",
    "corollary_gate",
    "crossover_n",
    "decode_rank",
    "ds_tv_envelope",
    "encode_rank",
    "format_float",
    "ingrassia_beta1_bound",
    "ingrassia_lambda_min_bound",
    "kappa_closed_form",
    "kappa_exact",
    "kappa_report",
    "make_rng",
    "report_to_dict",
    "report_to_json",
    "spectrum",
    "stationary_measure",
    "string_to_colors",
    "theorem2_bound",
    "theorem3_bound",
    "theta",
    "tv_curve",
    "tv_distance",
    "verify_slice_identities",
    "worst_alpha_beta",
]
