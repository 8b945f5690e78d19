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

Input coercion lives here alone: the sequence rule :func:`as_tuple`,
which refuses strings, dicts and sets; the integer rule :func:`as_index`,
its vector form :func:`as_ints` and :func:`as_int` for outside text; the
digit rule :func:`is_digits`, one set of decimal digits on every Python; the
rational rule :func:`as_trop`, which refuses floats and reads text by
:func:`rational_text`, the one grammar of rational text; and the bottom's text,
:func:`is_bottom_text`.  Polynomial text reads its coefficients by the same
grammar but takes less: ``p`` or ``p/q``, and a decimal there is refused.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction


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

TropValue = Fraction | int | _NegInf

#: the Boolean subsemifield is {NEG_INF, BOOL_ONE}
BOOL_ONE = Fraction(0)


# The decimal digits the library reads, on every Python: the first code
# point of each block of ten digits 0-9 in Unicode 13.0, which Python 3.10
# reads (unicodedata.decimal there).  Later Pythons' int(), isdecimal and
# \d read the digits of later Unicode versions too.
DIGIT_BLOCKS = (
    0x30, 0x660, 0x6F0, 0x7C0, 0x966, 0x9E6, 0xA66, 0xAE6, 0xB66, 0xBE6, 0xC66,
    0xCE6, 0xD66, 0xDE6, 0xE50, 0xED0, 0xF20, 0x1040, 0x1090, 0x17E0, 0x1810,
    0x1946, 0x19D0, 0x1A80, 0x1A90, 0x1B50, 0x1BB0, 0x1C40, 0x1C50, 0xA620, 0xA8D0,
    0xA900, 0xA9D0, 0xA9F0, 0xAA50, 0xABF0, 0xFF10, 0x104A0, 0x10D30, 0x11066,
    0x110F0, 0x11136, 0x111D0, 0x112F0, 0x11450, 0x114D0, 0x11650, 0x116C0, 0x11730,
    0x118E0, 0x11950, 0x11C50, 0x11D50, 0x11DA0, 0x16A60, 0x16B50, 0x1D7CE, 0x1D7D8,
    0x1D7E2, 0x1D7EC, 0x1D7F6, 0x1E140, 0x1E2F0, 0x1E950, 0x1FBF0,
)
_DIGIT = "[" + "".join(f"{chr(b)}-{chr(b + 9)}" for b in DIGIT_BLOCKS) + "]"


@functools.cache  # compiled on first use: a process that reads no text never pays for it
def rational_text() -> re.Pattern:
    """The one grammar of rational text: optional whitespace and sign, then
    p, p/q or a decimal, in the digits of DIGIT_BLOCKS.  It is Fraction's on
    3.10 less exponents, read in time that grows with them; later Fractions
    also read underscores, spaces around '/' and later digits.  Groups:
    sign, p, q, decimal part."""
    return re.compile(r"\s*([-+]?)(?=\d|\.\d)(\d*)(?:/(\d+)|(\.\d*))?\s*".replace(r"\d", _DIGIT))


def is_digits(s: str) -> bool:
    """True iff s is one or more digits of ``DIGIT_BLOCKS``, which every
    Python reads alike: ASCII text is decided without the table, other text
    is exactly the p of :func:`rational_text`."""
    if s.isascii():
        return s.isdigit()
    m = rational_text().fullmatch(s)
    return m is not None and m[2] == s


def as_trop(v) -> TropValue:
    """Coerce to an exact tropical value (Fraction or NEG_INF).  A Fraction
    is returned as it is, and every bottom element as NEG_INF, so the
    result is bottom iff it ``is NEG_INF``.  Text must match
    :func:`rational_text`: ``p``, ``p/q`` or a decimal, with no exponent and no
    underscore; other text raises ValueError on every Python version."""
    if type(v) is Fraction:
        return v
    if isinstance(v, _NegInf):
        return NEG_INF
    if isinstance(v, float):
        # 0.1 would silently become 3602879701896397/36028797018963968
        raise TypeError("floats are not exact; pass Fraction, int, or a rational string")
    if isinstance(v, bool):
        raise TypeError(f"{v!r} is not a number")
    if isinstance(v, str) and not rational_text().fullmatch(v):
        raise ValueError(f"{v!r} is not rational text: p, p/q or a decimal, without exponent notation")
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
    ``int()`` reads (so ``" 12 "``, ``"+5"``, ``"1_000"``) in the digits of
    :func:`is_digits`.  Floats, NaN and the infinities included, and
    booleans raise TypeError, other strings ValueError."""
    if isinstance(v, str):
        if not v.isascii() and not is_digits(v.strip().lstrip("+-").replace("_", "")):
            # int()'s refusal on Python 3.10, whose int() reads no later digit
            raise ValueError(f"invalid literal for int() with base 10: {v!r:.200}")
        return int(v)
    return as_index(v)


def as_tuple(v) -> tuple:
    """The sequence rule: v as a tuple.  A string, a dict or a set raises
    TypeError rather than being read as its characters, its keys or in
    hash order."""
    if isinstance(v, (str, dict, set, frozenset)):
        raise TypeError(f"{v!r} is not a sequence")
    return tuple(v)


def as_ints(v, coerce=as_index) -> tuple[int, ...]:
    """v as a tuple of ints by :func:`as_tuple`: unchanged when every entry
    is a plain int, otherwise each entry coerced by ``coerce``."""
    v = as_tuple(v)
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
    TypeError, and so does a string, a dict or a set (:func:`as_tuple`)."""
    q = [x if type(x) is int or type(x) is Fraction else as_trop(x) for x in as_tuple(v)]
    if any(x is NEG_INF for x in q):
        raise TypeError("-inf is not a point coordinate; points are rational")
    return scale_checked(q)


def scale_checked(q) -> tuple[list[int], int]:
    """:func:`as_scaled` of q, whose rationals are checked: ints and Fractions."""
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

    The bottom element is exactly TEXT_BOTTOM, ``(None, NEG_INF)``; every
    other element carries a nonzero ``part`` and an exact rational grade,
    which the constructor coerces by :func:`as_trop`.
    """

    part: object
    grade: TropValue

    def __post_init__(self):
        grade = as_trop(self.grade)
        if (self.part is None) != (grade is NEG_INF):
            raise ValueError("the bottom is (None, -inf); every other element has a rational grade")
        if self.part is not None and not self.part:
            raise ValueError("carrier part of a graded element must be nonzero")
        object.__setattr__(self, "grade", grade)

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
    return TExt(part, grade)


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
