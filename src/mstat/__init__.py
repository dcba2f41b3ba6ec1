"""Polyhedral coderivative calculus and M-stationarity certificate checking.

The package verifies first-order stationarity certificates for two-stage
problems that train a predictive model against downstream decision loss,
with finite-support (sample average) distributions. The geometric core
computes limiting normal cones to graphs of polyhedral normal-cone maps and
Mordukhovich coderivative memberships; on top of it sit certificate
verifiers for the generic stationarity systems and two worked applications:
simplex-constrained portfolio selection with a linear return predictor and
a kernel-regression newsvendor.
"""

from .cones import (
    ActiveDecomposition,
    CombinatorialLimitError,
    ConeRepH,
    ConeRepV,
    InfeasiblePointError,
    Polyhedron,
    active_set,
    critical_cone,
    distance_to_normal_cone,
    face_difference,
    faces_of_cone,
    member_h,
    member_v,
    normal_cone_multiplier,
    orthant_polyhedron,
    polar_cone,
    simplex_polyhedron,
    tangent_cone,
)
from .graph_normals import (
    GraphPoint,
    Membership,
    NormalPair,
    NotGraphPointError,
    make_graph_context,
    orthant_membership,
    polyhedron_membership,
    simplex_membership,
)
from .stationarity import (
    Certificate,
    FeasibleSet,
    LowerModel,
    ParameterSet,
    Problem,
    ResidualReport,
    Scenario,
    ScenarioCertificate,
    UpperModel,
    lower_residual,
    nnamcq_check,
    upper_residual,
    value_function,
    value_subdifferential,
    verify_certificate,
    verify_certificate_penalized,
)

__version__ = "0.1.0"
