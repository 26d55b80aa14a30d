"""Exact growth series of weighted periodic graphs and virtually abelian groups."""

from .ball import (
    DistanceMap,
    GrowthSequence,
    RelativeCountTable,
    distances_upto,
    graded_growth_slice,
    growth_sequence,
    relative_counts,
)
from .decomposition import (
    ActionReport,
    CoverReport,
    GradedModuleGens,
    GradedMonoid,
    build_MS,
    build_XS_generators,
    verify_cover,
    verify_module_action,
)
from .errors import (
    CoverageError,
    DisjointnessError,
    FormatError,
    GuardError,
    InputError,
    MathError,
    NoFitError,
    PerigrowthError,
    ResourceLimitError,
)
from .periodic_graph import (
    EdgeOrbit,
    PeriodicVertex,
    QuotientGraph,
    parse_periodic_graph,
    serialize_periodic_graph,
    translate,
    validate,
)
from .series import (
    MultivariateRationalSeries,
    QuasiPolynomial,
    RationalSeries,
    canonicalize,
    default_denominator,
    expand_series,
    fit_multivariate,
    fit_multivariate_auto,
    fit_univariate,
    fit_univariate_auto,
    qp_evaluate,
    quasi_polynomial,
    s_from_b,
    series_from_text,
    series_to_text,
    specialize_to_univariate,
)
from .vab import (
    EquationWord,
    GroupElement,
    MonoidModulePiece,
    MonoidModuleSet,
    VAGroup,
    WeightedGenerator,
    build_cayley,
    enumerate_monoid_module_set,
    evaluate_word,
    inverse,
    multiply,
    parse_eqn,
    parse_set,
    parse_vag,
    relative_growth_terms,
    solve_box,
    univariate_terms,
    validate_group,
)
from .walks import Cycle, enumerate_cycles

__version__ = "0.1.0"
