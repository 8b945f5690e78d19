"""Max-plus arithmetic: the tropical semifield, its Boolean subsemifield,
and the graded extension of an arbitrary carrier semiring.

Tropical values are exact rationals plus a distinguished bottom element
NEG_INF that is neutral for max and absorbing for +.  NEG_INF orders below
every rational and absorbs mixed additions, so ``max`` and ``+`` literally
are the two semifield operations.

The graded extension pairs a nonzero carrier element with a rational
grade: addition keeps the part of strictly larger grade and merges carrier
parts on grade ties; multiplication multiplies parts and adds grades.  A
carrier is any type whose values support ``+``, ``*``, ``==`` and whose
zero (if representable at all) is falsy; sums and products of nonzero
carrier elements must be nonzero.

Input coercion lives here alone: the integer rule :func:`as_index`, its
vector form :func:`as_ints` and :func:`as_int` for outside text; the
rational rule :func:`as_trop`, which refuses floats, and exponent notation
wherever text becomes a rational; and the bottom's text, :func:`is_bottom_text`.
Polynomial text is the one reader that takes less than :func:`as_trop`:
its coefficients are ``p`` or ``p/q``, and a decimal there is refused.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Union


class _NegInf:
    """The bottom element; a singleton comparing below every rational."""

    __slots__ = ()

    def __lt__(self, other):
        return not isinstance(other, _NegInf)

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return isinstance(other, _NegInf)

    def __eq__(self, other):
        return isinstance(other, _NegInf)

    def __hash__(self):
        return hash("tropfan.-inf")

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("bottom has no negation")

    def __repr__(self):
        return "-inf"


NEG_INF = _NegInf()

TropValue = Union[Fraction, int, _NegInf]

#: the Boolean subsemifield is {NEG_INF, BOOL_ONE}
BOOL_ONE = Fraction(0)


def as_trop(v) -> TropValue:
    """Coerce to an exact tropical value (Fraction or NEG_INF).  A Fraction
    is returned as it is, and every bottom element as NEG_INF, so the
    result is bottom iff it ``is NEG_INF``.  Text is ``p``, ``p/q`` or a
    decimal; exponent notation, which Fraction reads in time that grows
    with the exponent, raises ValueError."""
    if type(v) is Fraction:
        return v
    if isinstance(v, _NegInf):
        return NEG_INF
    if isinstance(v, float):
        # 0.1 would silently become 3602879701896397/36028797018963968
        raise TypeError("floats are not exact; pass Fraction, int, or a rational string")
    if isinstance(v, bool):
        raise TypeError(f"{v!r} is not a number")
    if isinstance(v, str) and ("e" in v or "E" in v):
        raise ValueError(f"{v!r}: exponent notation (e or E) is not accepted")
    return Fraction(v)


def is_bottom_text(v) -> bool:
    """True iff v is the text of the bottom element: ``-inf``, with
    surrounding whitespace ignored.  Every reader of outside text asks this."""
    return isinstance(v, str) and v.strip() == str(NEG_INF)


def as_index(v) -> int:
    """The library's integer rule: an int, or any object with
    ``__index__`` (a NumPy integer, say), but never a bool.  Anything else,
    floats, Fractions and strings included, raises TypeError rather than
    being truncated or parsed."""
    if type(v) is int:
        return v
    if isinstance(v, bool):
        raise TypeError(f"{v!r} is not an integer")
    return operator.index(v)


def as_int(v) -> int:
    """Coerce outside text to an integer: :func:`as_index`, or a string that
    ``int()`` reads (so ``" 12 "``, ``"+5"``, ``"1_000"``).  Floats, NaN and
    the infinities included, and booleans raise TypeError, other strings ValueError."""
    if isinstance(v, str):
        return int(v)
    return as_index(v)


def as_ints(v, coerce=as_index) -> tuple[int, ...]:
    """v as a tuple of ints: unchanged when every entry is a plain int,
    otherwise each entry coerced by ``coerce``.  A string or a dict raises
    TypeError rather than being read as its characters or its keys."""
    if isinstance(v, (str, dict)):
        raise TypeError(f"{v!r} is not a vector of integers")
    v = tuple(v)
    if set(map(type, v)) - {int}:
        v = tuple(map(coerce, v))
    return v


def from_checked(cls, *values):
    """The frozen dataclass cls from its field values in order, without its
    ``__post_init__``: only for values derived from checked values."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__match_args__, values))
    return obj


def as_scaled(v) -> tuple[list[int], int]:
    """The rational vector v as ``(ints, d)``: d is the least common
    denominator of its coordinates and ``ints`` is d times v.  A coordinate
    is what :func:`as_trop` accepts; floats, booleans and -inf raise
    TypeError, and so does a string or a dict, as in :func:`as_ints`."""
    if isinstance(v, (str, dict)):
        raise TypeError(f"{v!r} is not a vector of rationals")
    q = [x if type(x) is int or type(x) is Fraction else as_trop(x) for x in v]
    if any(x is NEG_INF for x in q):
        raise TypeError("-inf is not a point coordinate; points are rational")
    d = math.lcm(*[x.denominator for x in q])
    return [x.numerator * (d // x.denominator) for x in q], d


def trop_add(a: TropValue, b: TropValue) -> TropValue:
    return max(a, b)


def trop_mul(a: TropValue, b: TropValue) -> TropValue:
    return a + b  # NEG_INF absorbs via its __add__/__radd__


def trop_sum(values) -> TropValue:
    return max(values, default=NEG_INF)


@dataclass(frozen=True)
class TExt:
    """Element (part, grade) of the graded extension of a carrier semiring.

    The bottom element is the singleton TEXT_BOTTOM (part None); every
    other element carries a nonzero ``part`` and an exact rational grade.
    Build non-bottom values through :func:`text`, which enforces both.
    """

    part: Any
    grade: TropValue

    @property
    def is_bottom(self) -> bool:
        return self.part is None

    def __bool__(self) -> bool:
        return self.part is not None

    def __add__(self, other: "TExt") -> "TExt":
        return text_add(self, other)

    def __mul__(self, other: "TExt") -> "TExt":
        return text_mul(self, other)


TEXT_BOTTOM = TExt(None, NEG_INF)


def text(part, grade) -> TExt:
    if not part:
        raise ValueError("carrier part of a graded element must be nonzero")
    return TExt(part, as_trop(grade))


def text_add(x: TExt, y: TExt) -> TExt:
    if x.is_bottom:
        return y
    if y.is_bottom:
        return x
    if x.grade > y.grade:
        return x
    if y.grade > x.grade:
        return y
    return TExt(x.part + y.part, x.grade)


def text_mul(x: TExt, y: TExt) -> TExt:
    if x.is_bottom or y.is_bottom:
        return TEXT_BOTTOM
    return TExt(x.part * y.part, x.grade + y.grade)
