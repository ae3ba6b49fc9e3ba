"""Kahler metrics with special Kahler-Ricci potentials.

Construct model metrics from profile functions Q(phi) and verify their
chart-level identities numerically: eigenstructure of the Hessian and Ricci
tensors, boundary conditions, conformally-Einstein and soliton residuals,
geodesic invariants, and the type classification.
"""

from .errors import SkrpError
from .profiles import (
    BoundaryReport,
    Custom,
    Polynomial,
    Profile,
    Quadratic,
    TypeA,
    TypeB,
    TypeC,
    TypeTag,
    check_boundary,
    check_type_c,
    classify_type,
    find_admissible_interval,
    make_profile,
    rational_basis,
    slope_constraint_poly,
    soliton_profile,
    symmetric_family_report,
)
from .reparam import (
    ReparamTable,
    boundary_limits,
    build_reparam,
    critical_distance,
    dual_table,
)
from .tensor import (
    ChartMetric,
    FDConfig,
    connection_coefficients,
    curvature,
    geodesic_batch,
    kahler_residuals,
    killing_residual,
    potential_derivatives,
)
from .models import (
    AnnulusSpec,
    ProductSpec,
    ShellSpec,
    SphereSpec,
    ball_extension_coeffs,
    build_annulus,
    build_product,
    build_shell,
    build_sphere,
    sample_points,
    tautological_connection,
)
from .verify import (
    classify_model,
    conformal_einstein_report,
    identity_report,
    shell_normal_geodesics,
    skrp_report,
    soliton_report,
    sphere_normal_geodesics,
)

__version__ = "0.1.0"
