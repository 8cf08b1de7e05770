"""Constant-mean-curvature rotational surfaces in the neutral
pseudo-Euclidean 4-space: construction by quadrature of the phi-equation
and independent verification through a finite-difference curvature oracle.
"""

from .builders import (
    GeneratingCurve,
    RotationType,
    build_surface,
    elliptic_H_closed,
    elliptic_frame,
    elliptic_weingarten,
    h2_closed,
    hyperbolic_H_closed,
    hyperbolic_frame,
    hyperplane_degeneracy,
)
from .errors import CmcError
from .generator import (
    CmcParams,
    domain_validity,
    generate,
)
from .geometry import CausalClass, Vec4, causal_character, inner, orthonormalize_indefinite
from .profiles import Jet2, ProfileFunction, eval_jet, parse
from .quadrature import QuadratureConfig
from .surfaces import (
    Frame,
    MeanCurvature,
    SurfacePatch,
    fd_patch,
    first_fundamental_form,
    mean_curvature,
    normal_frame_numeric,
    second_fundamental_form,
    tangent_frame,
)
from .validation import (
    Tolerances,
    ValidationReport,
    check_arclength,
    check_cmc,
    compare_special_case,
    validate_surface,
)

__version__ = "0.1.0"
