"""Exact and asymptotic excess-cost probabilities for couplings of
product laws.

Layers, bottom up: finite measures and divergences (``measures``), optimal
transport and Strassen's excess-cost probability for one pair
(``transport``), the exact n-sample value through a nested transport
problem over type lattices (``lattice``), the exponential-scale rate
functions (``ldp``), the quadratic-scale rate kernels (``mdp``), the
root-n limit curve (``clt``), and a batch CLI (``cli``).

Importing the package loads no layer.  Each public name, and each layer
module by its name (``strassen_lab.lattice``), is imported from its home
module on first use; the lookup is not cached here, so the package always
hands out what the home module holds at that moment.
"""
import importlib

__version__ = "0.1.0"

#: Public names, by home module.
_EXPORTS = {
    "errors": ("AlphabetMismatchError", "DimensionMismatchError",
               "InfeasibleError", "SizeGuardError", "StrassenLabError",
               "ValidationError"),
    "measures": ("Dist", "JointDist", "SignedVec", "chi2_half",
                 "coupling_transfer", "kl", "maximal_coupling", "tv"),
    "transport": ("CostMatrix", "EcpResult", "SupportSet", "TransportPlan",
                  "dual_vertices", "ecp", "ecp_dual_bruteforce",
                  "kantorovich_certificate", "optimal_support", "ot_cost",
                  "ot_value"),
    "curves": ("RateCurve",),
    "lattice": ("NestedInstance", "TypeClassSampler", "TypeMeasure",
                "TypeVector", "direct_gn_oracle", "enum_types", "exact_gn",
                "exponent_series", "gn_tails", "lift_coupling",
                "nested_instance", "optimal_outer_plan",
                "splitting_coupling", "type_log_prob"),
    "ldp": ("RateQuery", "d_bern", "rate_f", "rate_f_binary", "rate_g",
            "rate_g_binary"),
    "mdp": ("SetaReport", "SignedMatrix", "mdp_rate_lower", "mdp_rate_upper",
            "seta_check", "seta_gap_sequence", "support_of", "theta",
            "theta_plan"),
    "clt": ("BinaryCltInstance", "GaussParams", "crossing_points",
            "gauss_params", "lambda_binary", "lambda_dual_grid",
            "normal_cdf"),
}

_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}
_MODULES = frozenset(_EXPORTS) | {"cli", "flow"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"),
                       name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__) | _MODULES)
