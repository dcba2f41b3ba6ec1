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
    CombinatorialLimitError,
    InfeasiblePointError,
    Polyhedron,
    active_set,
    distance_to_normal_cone,
    orthant_polyhedron,
    simplex_polyhedron,
)
from .graph_normals import (
    GraphPoint,
    Membership,
    NormalPair,
    NotGraphPointError,
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
