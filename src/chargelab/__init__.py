"""Charge calculus on convex cones: gauges, window averages, sharp bounds."""

from .geometry import (
    ConvexBody,
    Cone,
    GeometryError,
    layer_cake_closed_form,
    layer_cake_integral,
    volume_body_cone,
)
from .grids import GridField, GridSpec
from .charges import (
    Charge,
    extremal_charge,
    extremal_density,
    grad_sup_polar,
    seminorm_K,
    seminorm_Kh,
)
from .steklov import (
    MixedParams,
    SteklovParams,
    deviation_sup,
    mixed_operator_apply,
    mixed_operator_field,
    mixed_operator_norm,
    steklov_apply,
    steklov_field,
    steklov_norm,
)
from .inequalities import (
    box_corner_integral,
    extremal_mixed_m0,
    extremal_mixed_m1,
    lk_additive_charge,
    lk_additive_mixed,
    lk_multiplicative_charge,
    lk_multiplicative_mixed,
    mixed_deviation_sup,
    nagy_inequality,
    sharpness_search,
    split_point,
)
from .stechkin import (
    ProblemSetting,
    omega,
    optimal_h_for_N,
    optimal_h_for_delta,
    recover_derivative,
    recovery_error,
    sandwich_check,
    stechkin_error,
)
from .report import InequalityReport, write_csv, write_json
from .windows import KERNEL

__version__ = "0.1.0"
