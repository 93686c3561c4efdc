"""Logarithmic coefficients of univalent functions.

Numerical toolkit for the coefficient theory of normalized univalent
functions on the unit disk: truncated power-series arithmetic, the real
dilogarithm, a catalog of named function families, circle-sampling class
membership, verification of the sharp logarithmic-coefficient inequalities,
and a randomized search harness for the open coefficient bound
|a_n| <= 1 + lambda + ... + lambda^(n-1) over the bounded-deficiency class.
"""

from .atlas import (
    FunctionSpec,
    ParseError,
    SpecError,
    eval_at,
    exact_u,
    f0,
    f1,
    f_lambda,
    g_family,
    g_lambda,
    gamma_closed_form,
    half_plane,
    k_alpha,
    koebe,
    parse_spec,
    rational,
    render,
    schwarz_superset,
    taylor_of,
)
from .dilog import DilogResult, li2
from .membership import (
    ClassMembershipReport,
    g_class_sup,
    min_re_starlike,
    u_deficiency,
)
from .search import (
    ExactUParams,
    SchwarzParams,
    SearchRecord,
    build_exact_u_function,
    build_superset_function,
    check_prokhorov_szynal,
    coefficient_recursion_residuals,
    conjectured_bound,
    mu_nu,
    search_max_coeff,
    validate_exact_u,
    validate_schwarz,
)
from .series import (
    SeriesError,
    TruncatedSeries,
    ts_derivative,
    ts_eval,
    ts_exp,
    ts_integrate,
    ts_log,
    ts_mul,
    ts_reciprocal,
)
from .verify import (
    BoundCheck,
    ConvexOrderProfile,
    LogCoeffProfile,
    convex_order_profile,
    g_class_bounds,
    gamma_l2,
    log_coefficients,
    run_suite,
    sharpness_terms,
    starlike_order,
    ulambda_l2_bound,
)

__version__ = "0.1.0"
