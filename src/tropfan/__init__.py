"""Exact max-plus polynomial algebra, weighted one-dimensional fans, and
the integer-lattice machinery connecting them.

Everything is exact: coefficients are ``fractions.Fraction``, exponents
and lattice data are Python ints, and all decision procedures
(function equality, smoothness, image membership) return certified
answers rather than floating-point approximations.
"""

import importlib

# Every public name under its home module.  ``import tropfan`` loads none
# of them: a home module loads on the first look-up of one of its names or
# of the module itself (PEP 562's module __getattr__), so that a request
# loads only the modules it uses.
_LAZY = {
    "errors": (
        "BadParameters", "CompositionMismatch", "DimensionMismatch", "EmptyPolynomial", "Inconclusive",
        "InvalidMorphism", "NoIntegerSolution", "NoMutualFactorization", "NonBooleanInput", "NotBalanced",
        "NotGeometric", "NotLeftInvertible", "NotRealizable", "ParseError", "SupportViolation", "TropfanError",
        "ZeroVector",
    ),
    "semiring": (
        "BOOL_ONE", "NEG_INF", "TEXT_BOTTOM", "TExt", "text", "text_add", "text_mul", "trop_add", "trop_mul",
        "trop_sum",
    ),
    "intlat": (
        "IntMatrix", "complete_unimodular", "det", "hnf", "invariant_factors", "lattice_solve", "snf",
        "unimodular_transport",
    ),
    "laurent": (
        "CanonicalFn", "LaurentPoly", "canonicalize", "fn_eq", "fn_witness", "germ_eq", "germ_localize",
        "germ_safe_radius", "parse_point", "parse_poly_text", "poly_from_json", "poly_to_json", "poly_to_text",
    ),
    "fan": ("Ray", "WeightedFan", "check_balancing", "primitive", "standard_model", "support_contains"),
    "evalmap": (
        "RayFunction", "SmoothReport", "degree", "eval_map", "generator_matrix", "image_membership",
        "is_realizable", "is_smooth", "ker_eq", "linear_relations", "reconstruct_fan",
    ),
    "morphism": (
        "FanMorphism", "HomSpec", "check_geometric", "compose", "induced_homspec", "pullback_evalmap",
        "pullback_poly", "realize_morphism", "validate_morphism",
    ),
}
_HOMES = {name: home for home, names in _LAZY.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_HOMES]


def __getattr__(name: str):
    """A public name or a submodule, imported from its home module and
    bound here on first use, so that later look-ups do not come back."""
    home = _HOMES.get(name, name)
    if home not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{home}", __name__)
    value = globals()[name] = module if home == name else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
