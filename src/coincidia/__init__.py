"""coincidia: fixed-point solvers for coincidence problems T(u) = S(u),
instantiated for three differential-equation families, with hypothesis
checkers and generalized Ulam-Hyers stability bounds."""

from .engine import (
    OperatorHandle,
    SolveReport,
    error_bound,
    residual,
    solve_averaged,
    solve_picard,
    solve_resolvent,
)
from .errors import (
    BracketingError,
    CertificateError,
    CoincidiaError,
    ConfigurationError,
    DomainError,
    NumericError,
)
from .numerics import (
    MIDPOINTS,
    NODES,
    Grid,
    GridFunction,
    bracket_root,
    cell_edge_cumulative,
    cumulative_integral,
    gamma,
    integrate,
    l2_norm,
    mittag_leffler,
    prolong,
    sup_norm,
)
from .reports import HypothesisReport
from .stability import PhiFunction, invert

__version__ = "0.1.0"

__all__ = [
    "BracketingError",
    "CertificateError",
    "CoincidiaError",
    "ConfigurationError",
    "DomainError",
    "Grid",
    "GridFunction",
    "HypothesisReport",
    "MIDPOINTS",
    "NODES",
    "NumericError",
    "OperatorHandle",
    "PhiFunction",
    "SolveReport",
    "bracket_root",
    "cell_edge_cumulative",
    "cumulative_integral",
    "error_bound",
    "gamma",
    "integrate",
    "invert",
    "l2_norm",
    "mittag_leffler",
    "prolong",
    "residual",
    "solve_averaged",
    "solve_picard",
    "solve_resolvent",
    "sup_norm",
    "__version__",
]
