"""Error taxonomy shared by the whole package.

Every domain failure derives from TropfanError and carries a stable
machine-readable ``code`` so the CLI can emit structured errors and map
them to exit status 1 (usage problems are argparse's exit 2).
"""


class TropfanError(Exception):
    """Base class for all structured errors raised by this package."""

    code = "error"


class DimensionMismatch(TropfanError):
    code = "dimension_mismatch"


class ZeroVector(TropfanError):
    code = "zero_vector"


class BadParameters(TropfanError):
    code = "bad_parameters"


class EmptyPolynomial(TropfanError):
    code = "empty_polynomial"


class NonBooleanInput(TropfanError):
    code = "non_boolean_input"


class NotLeftInvertible(TropfanError):
    code = "not_left_invertible"


class NoMutualFactorization(TropfanError):
    code = "no_mutual_factorization"


class NotRealizable(TropfanError):
    code = "not_realizable"


class NotBalanced(TropfanError):
    code = "not_balanced"


class Inconclusive(TropfanError):
    """An undecided search: a public name that no library function raises."""

    code = "inconclusive"


class InvalidMorphism(TropfanError):
    code = "invalid_morphism"


class CompositionMismatch(TropfanError):
    code = "composition_mismatch"


class NotGeometric(TropfanError):
    code = "not_geometric"


class NoIntegerSolution(TropfanError):
    code = "no_integer_solution"


class SupportViolation(TropfanError):
    """A realized map leaving the support: a public name that no library
    function raises, since a geometric image is realized within it."""

    code = "support_violation"


class ParseError(TropfanError):
    code = "parse_error"


class malformed:
    """Read outside input: a KeyError, TypeError, ValueError or ZeroDivisionError
    in the block becomes ParseError(f"{what}: {exc}").  Domain calls stay out."""

    __slots__ = ("what",)

    def __init__(self, what: str):
        self.what = what

    def __enter__(self):
        pass

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, (KeyError, TypeError, ValueError, ZeroDivisionError)):
            raise ParseError(f"{self.what}: {exc}") from exc
