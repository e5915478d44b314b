"""Exact verification of para-Kahler structures on low-dimensional Lie algebras."""

from .catalog import (
    Catalog,
    CatalogEntry,
    CatalogFormatError,
    ExpectedResults,
    builtin_catalog,
    dump_catalog,
    load_catalog,
)
from .contact import (
    CentralExtension,
    ParacontactStructure,
    build_paracontact,
    central_extend,
    check_compatible_metric,
    check_contact,
    verify_lifted_curvature,
    verify_lifted_ricci,
)
from .curvature import (
    Christoffel,
    Classification,
    CurvatureBundle,
    CurvatureTensor,
    RicciData,
    christoffel,
    classify,
    compare_ric_operator,
    curvature,
    curvature_bundle,
    label_holds,
    ricci,
)
from .expressions import (
    PARAMS,
    DenominatorVanishesError,
    ExpressionBlowupError,
    ExprMatrix,
    ExprSyntaxError,
    Polynomial,
    RationalExpr,
    SingularMatrixError,
    SymbolicZeroDivisionError,
    UnknownParameterError,
    expr,
    format_expr,
    parse_expr,
    set_term_limit,
    variable,
)
from .liealgebra import (
    LieAlgebra,
    ParamDomain,
    ThreeForm,
    TwoForm,
    ce_differential_1,
    ce_differential_2,
    is_symplectic,
    jacobi_check,
    pfaffian4,
)
from .structures import (
    Metric,
    MetricAsymmetryError,
    SingularMetricError,
    check_involution,
    check_metric_compat,
    check_omega_compat,
    metric_from,
    nijenhuis,
    omega_from,
    signature_at,
)
from .verify import (
    RunConfig,
    VerificationReport,
    render_report,
    verify_all,
    verify_entry,
    verify_extension,
)

__version__ = "0.1.0"
