"""Verification toolkit for almost contact metric structures.

Numerical linear algebra with a fixed metric, randomized dimension
campaigns for operators anticommuting with a complex structure, symbolic
coordinate charts with dual-mode differentiation, curvature identity
suites, and a small gallery of reference charts.
"""

from .charts import (Chart, DerivativeMode, SYMBOLIC, chart_from_text,
                     chart_to_text, christoffel, contact_volume_coefficient,
                     d_eta, load_chart, nabla_phi, nabla_xi, sample_points,
                     save_chart)
from .config import DEFAULT_TOLERANCES, Tolerances
from .curvature import (PointGeometry, curvature_reconstruction_suite, defect_collapse_suite,
                        defect_factorization_suite, dual_mode_suite,
                        horizontal_sectional_values, modified_connection_suite,
                        modified_riemann, riemann)
from .errors import (ChartFormatError, DegenerateInputError, GeometryError,
                     PreconditionError, SearchError, ShapeError)
from .exprs import EvalError, ParseError, differentiate, evaluate, parse, to_text
from .gallery import FANO_TRIPLES, GALLERY_NAMES, gallery_chart
from .linalg import adjoint, gram_schmidt, skew_matrix
from .quadruples import (ComplexStructuredSpace, decomposition_campaign,
                         find_generic_vector, find_orthogonal_witness,
                         generic_vector_campaign, quadruple_decomposition,
                         random_constrained_operator)
from .report import Check, VerificationReport
from .structure import check_eta_parallel, horizontal_basis, validate_acms

__version__ = "0.1.0"

__all__ = [
    "Chart", "DerivativeMode", "SYMBOLIC", "chart_from_text", "chart_to_text", "christoffel",
    "contact_volume_coefficient", "d_eta", "load_chart", "nabla_phi", "nabla_xi",
    "sample_points", "save_chart", "DEFAULT_TOLERANCES", "Tolerances", "PointGeometry",
    "curvature_reconstruction_suite", "defect_collapse_suite",
    "defect_factorization_suite", "dual_mode_suite", "horizontal_sectional_values",
    "modified_connection_suite", "modified_riemann", "riemann", "ChartFormatError",
    "DegenerateInputError", "GeometryError", "PreconditionError", "SearchError", "ShapeError",
    "EvalError", "ParseError", "differentiate", "evaluate", "parse", "to_text", "FANO_TRIPLES",
    "GALLERY_NAMES", "gallery_chart", "adjoint", "gram_schmidt", "skew_matrix",
    "ComplexStructuredSpace", "decomposition_campaign", "find_generic_vector",
    "find_orthogonal_witness", "generic_vector_campaign", "quadruple_decomposition",
    "random_constrained_operator", "Check", "VerificationReport", "check_eta_parallel",
    "horizontal_basis", "validate_acms",
]
