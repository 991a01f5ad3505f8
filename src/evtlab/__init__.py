"""evtlab: a numerical laboratory for extreme-value theory.

Exact quantile transforms and maxima sampling, the affine attraction
criterion with its index estimate and limit law, prescribed-limit nonlinear
normalizers, the geometric law's oscillating-maxima demonstrator, and the
KS machinery and seeded streams that verify all of it.
"""

from .dist import (
    Distribution,
    degenerate,
    exponential,
    geometric,
    normal,
    numeric_quantile,
    parse_distribution,
    pareto,
    quantile,
    sample_quantile_transform,
    spec_string,
    tail_quantile,
    uniform,
)
from .errors import (
    BracketingError,
    ContractViolationError,
    DegenerateNormalizationError,
    DegenerateTailError,
    DomainError,
    EvtLabError,
    InconsistentTailError,
    SearchHorizonError,
    UnsupportedBaseError,
)
from .geometric import (
    GeometricParams,
    OscillationReport,
    frac_log_search,
    geom_cdf,
    geom_quantile,
    geom_sf,
    oscillation_scan,
    subsequence_generator,
)
from .linear_evt import (
    NormingConstants,
    RhoEstimate,
    TypeClass,
    classify_type,
    dehaan_ratio,
    dehaan_test,
    estimate_rho,
    k_rho,
    limit_cdf,
    norming_constants,
)
from .maxima import (
    HnVariant,
    MaxLaw,
    h_n_eval,
    max_cdf,
    sample_max_direct,
    sample_max_exponential_rep,
    spot_check_monotone,
)
from .nonlinear_evt import (
    NormalizerSequence,
    build_g_n,
    build_g_n_general,
    convergence_diagnostic,
    default_x_grid,
    nondegeneracy_check,
)
from .reports import ConvergenceReport
from .stats import (
    EmpiricalCdf,
    KsResult,
    ecdf_eval,
    ks_one_sample,
    ks_two_sample,
    make_rng,
    standard_exponential,
    uniform_open,
)

__version__ = "0.1.0"
