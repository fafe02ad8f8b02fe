"""Exact and asymptotic excess-cost probabilities for couplings of
product laws.

Layers, bottom up: finite measures and divergences (``measures``), optimal
transport and Strassen's excess-cost probability for one pair
(``transport``), the exact n-sample value through a nested transport
problem over type lattices (``lattice``), the exponential-scale rate
functions (``ldp``), the quadratic-scale rate kernels (``mdp``), the
root-n limit curve (``clt``), and a batch CLI (``cli``).
"""

from .errors import (
    AlphabetMismatchError,
    DimensionMismatchError,
    InfeasibleError,
    SizeGuardError,
    StrassenLabError,
    ValidationError,
)
from .measures import (
    Dist,
    JointDist,
    SignedVec,
    chi2_half,
    coupling_transfer,
    kl,
    maximal_coupling,
    tv,
)
from .transport import (
    CostMatrix,
    EcpResult,
    SupportSet,
    TransportPlan,
    dual_vertices,
    ecp,
    ecp_dual_bruteforce,
    kantorovich_certificate,
    optimal_support,
    ot_cost,
    ot_value,
)
from .curves import RateCurve
from .lattice import (
    NestedInstance,
    TypeClassSampler,
    TypeMeasure,
    TypeVector,
    direct_gn_oracle,
    enum_types,
    exact_gn,
    exponent_series,
    gn_tails,
    lift_coupling,
    nested_instance,
    optimal_outer_plan,
    splitting_coupling,
    type_log_prob,
)
from .ldp import (
    RateQuery,
    d_bern,
    rate_f,
    rate_f_binary,
    rate_g,
    rate_g_binary,
)
from .mdp import (
    SetaReport,
    SignedMatrix,
    mdp_rate_lower,
    mdp_rate_upper,
    seta_check,
    seta_gap_sequence,
    support_of,
    theta,
    theta_plan,
)
from .clt import (
    BinaryCltInstance,
    GaussParams,
    crossing_points,
    gauss_params,
    lambda_binary,
    lambda_dual_grid,
    normal_cdf,
)

__version__ = "0.1.0"

__all__ = [
    "AlphabetMismatchError",
    "BinaryCltInstance",
    "CostMatrix",
    "DimensionMismatchError",
    "Dist",
    "EcpResult",
    "GaussParams",
    "InfeasibleError",
    "JointDist",
    "NestedInstance",
    "RateCurve",
    "RateQuery",
    "SetaReport",
    "SignedMatrix",
    "SignedVec",
    "SizeGuardError",
    "StrassenLabError",
    "SupportSet",
    "TransportPlan",
    "TypeClassSampler",
    "TypeMeasure",
    "TypeVector",
    "ValidationError",
    "chi2_half",
    "coupling_transfer",
    "crossing_points",
    "d_bern",
    "direct_gn_oracle",
    "dual_vertices",
    "ecp",
    "ecp_dual_bruteforce",
    "enum_types",
    "exact_gn",
    "exponent_series",
    "gauss_params",
    "gn_tails",
    "kantorovich_certificate",
    "kl",
    "lambda_binary",
    "lambda_dual_grid",
    "lift_coupling",
    "maximal_coupling",
    "mdp_rate_lower",
    "mdp_rate_upper",
    "nested_instance",
    "normal_cdf",
    "optimal_outer_plan",
    "optimal_support",
    "ot_cost",
    "ot_value",
    "rate_f",
    "rate_f_binary",
    "rate_g",
    "rate_g_binary",
    "seta_check",
    "seta_gap_sequence",
    "splitting_coupling",
    "support_of",
    "theta",
    "theta_plan",
    "tv",
    "type_log_prob",
]
