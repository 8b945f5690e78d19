import sys
import unicodedata
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropfan import NEG_INF, TEXT_BOTTOM, TExt, text, text_add, text_mul, trop_add, trop_mul, trop_sum
from tropfan.errors import ParseError
from tropfan.laurent import LaurentPoly, canonicalize, parse_poly_text
from tropfan.semiring import DIGIT_BLOCKS, as_int, as_scaled, as_trop, is_digits

rationals = st.fractions(max_denominator=8, min_value=-20, max_value=20)
trop_values = st.one_of(st.just(NEG_INF), rationals)


def test_neg_inf_ordering():
    assert NEG_INF < Fraction(-1000)
    assert NEG_INF < 0
    assert not (NEG_INF < NEG_INF)
    assert NEG_INF <= NEG_INF
    assert NEG_INF == NEG_INF
    assert not (NEG_INF > -5)
    assert NEG_INF >= NEG_INF and not (NEG_INF >= -5)
    assert Fraction(3) > NEG_INF
    assert repr(NEG_INF) == "-inf"
    assert hash(NEG_INF) == hash(NEG_INF)


def test_neg_inf_absorbs_addition():
    assert NEG_INF + 3 is NEG_INF
    assert Fraction(7, 2) + NEG_INF is NEG_INF
    with pytest.raises(ArithmeticError):
        -NEG_INF  # noqa: B018


@given(trop_values, trop_values)
def test_trop_ops_commute(a, b):
    assert trop_add(a, b) == trop_add(b, a)
    assert trop_mul(a, b) == trop_mul(b, a)


@given(trop_values, trop_values, trop_values)
def test_trop_ops_associate_distribute(a, b, c):
    assert trop_add(trop_add(a, b), c) == trop_add(a, trop_add(b, c))
    assert trop_mul(trop_mul(a, b), c) == trop_mul(a, trop_mul(b, c))
    assert trop_mul(a, trop_add(b, c)) == trop_add(trop_mul(a, b), trop_mul(a, c))


def test_trop_identities():
    assert trop_add(NEG_INF, Fraction(5)) == 5
    assert trop_mul(Fraction(0), Fraction(5)) == 5
    assert trop_mul(NEG_INF, Fraction(5)) is NEG_INF
    assert trop_sum([]) is NEG_INF
    assert trop_sum([Fraction(1), NEG_INF, Fraction(4)]) == 4


def test_value_predicates():
    assert as_trop(3) == Fraction(3)
    assert as_trop(NEG_INF) is NEG_INF
    with pytest.raises(TypeError):
        as_trop(1.5)


@pytest.mark.parametrize("text", ["1e3", "1E3", " 2e0 "])
def test_as_trop_refuses_exponent_notation(text):
    # Fraction reads 1e1000000 too, in time that grows with the exponent
    with pytest.raises(ValueError, match="exponent notation"):
        as_trop(text)


@pytest.mark.parametrize("text, want", [("1/2", Fraction(1, 2)), ("-3", Fraction(-3)),
                                        ("0.5", Fraction(1, 2)), (" 7/4 ", Fraction(7, 4)),
                                        (".5", Fraction(1, 2)), ("5.", Fraction(5)), ("-.25", Fraction(-1, 4)),
                                        ("+3", Fraction(3)), ("\t+3/6\n", Fraction(1, 2)),
                                        ("٣/٤", Fraction(3, 4)), ("0012", Fraction(12))])
def test_as_trop_reads_rational_text(text, want):
    assert as_trop(text) == want


# Fraction reads the first five from Python 3.11 or 3.12 on; rational text
# is read alike on every version
@pytest.mark.parametrize("text", ["1_000", "1/2_0", "1.2_5", "1 /2", "1/ 2", "1e-3", "2.5E+1", "0x10", "inf",
                                  "nan", "½", "1/-2", "1/+2", "--1", "", " ", ".", "-", "1/", "/2", "1/2/3", "1 2"])
def test_as_trop_refuses_other_text(text):
    with pytest.raises(ValueError, match="is not rational text"):
        as_trop(text)


def test_digit_blocks_are_unicode_13_digits():
    # each block is ten code points valued 0-9 on every Python, and
    # Python 3.10, whose Unicode is 13.0, reads these 650 digits and no other
    assert len(DIGIT_BLOCKS) == 65 and list(DIGIT_BLOCKS) == sorted(DIGIT_BLOCKS)
    for start in DIGIT_BLOCKS:
        digits = "".join(map(chr, range(start, start + 10)))
        assert [unicodedata.decimal(c, None) for c in digits] == list(range(10)), hex(start)
        assert digits.isdecimal() and is_digits(digits)
    assert not is_digits(chr(DIGIT_BLOCKS[-1] + 10))
    if unicodedata.unidata_version == "13.0.0":
        assert sum(chr(c).isdecimal() for c in range(sys.maxunicode + 1)) == 650


@pytest.mark.parametrize("text, want", [("0", True), ("0012", True), ("٣٤", True), ("1٣", True), ("", False),
                                        ("1a", False), (" 1", False), ("-1", False), ("1_0", False),
                                        ("²", False), ("½", False), ("\U00016AC1", False), ("1\U00016AC1", False)])
def test_is_digits(text, want):
    assert is_digits(text) is want


# U+16AC1 TANGSA DIGIT ONE is a digit from Unicode 14.0 on, so int(),
# isdecimal and \d read it from Python 3.11 on; the library reads it nowhere
LATER_DIGIT = "\U00016AC1"


def test_digits_after_unicode_13_are_refused():
    for text in (LATER_DIGIT, f"1/{LATER_DIGIT}", f"{LATER_DIGIT}.5"):
        with pytest.raises(ValueError, match="is not rational text"):
            as_trop(text)
    for text in (LATER_DIGIT, f" -{LATER_DIGIT}_0 ", f"1{LATER_DIGIT}"):
        with pytest.raises(ValueError, match=r"^invalid literal for int\(\) with base 10: "):
            as_int(text)
    for poly, message in ((f"{LATER_DIGIT}*x", "unknown variable"), (f"x{LATER_DIGIT}", "unknown variable"),
                          (f"x^{LATER_DIGIT}", "bad exponent")):
        with pytest.raises(ParseError, match=message):
            parse_poly_text(poly)


def test_as_int_reads_unicode_13_digits():
    assert [as_int(text) for text in ("٣", " -٣_٤ ", "+１２", "12")] == [3, -34, 12, 12]


def test_as_scaled():
    assert as_scaled([1, Fraction(1, 2), Fraction(-2, 3)]) == ([6, 3, -4], 6)
    assert as_scaled([]) == ([], 1)
    for bad in (0.5, True, NEG_INF):
        with pytest.raises(TypeError):
            as_scaled([1, bad])


# -- graded extension ---------------------------------------------------


def _germ(terms, grade):
    part = canonicalize(LaurentPoly.make(2, [(u, 0) for u in terms]))
    return text(part, Fraction(grade))


def test_text_constructor_rejects_empty_part():
    with pytest.raises(ValueError):
        text(canonicalize(LaurentPoly.zero(2)), Fraction(0))


@pytest.mark.parametrize("make, error", [
    (lambda part: TExt(part, 0.5), TypeError),
    (lambda part: TExt(part, NEG_INF), ValueError),
    (lambda part: text(part, NEG_INF), ValueError),
    (lambda part: TExt(None, 5), ValueError),
], ids=["float grade", "bottom grade", "bottom grade through text", "bottom part"])
def test_text_constructor_checks_both_fields(make, error):
    # the bottom is exactly (None, -inf); every other element has a nonzero
    # part and a rational grade, however it is built
    with pytest.raises(error):
        make(_germ([(1, 0)], 0).part)


def test_text_add_compares_grades():
    lo = _germ([(1, 0)], 1)
    hi = _germ([(0, 1)], 2)
    assert text_add(lo, hi) == hi
    assert text_add(hi, lo) == hi
    # tie merges the parts
    tie = text_add(_germ([(1, 0)], 2), hi)
    assert tie.grade == 2
    assert tie.part.terms == canonicalize(
        LaurentPoly.make(2, [((1, 0), 0), ((0, 1), 0)])
    ).terms


def test_text_bottom_is_identity_and_absorbing():
    x = _germ([(1, 0)], 3)
    assert text_add(TEXT_BOTTOM, x) == x
    assert text_add(x, TEXT_BOTTOM) == x
    assert text_mul(TEXT_BOTTOM, x) == TEXT_BOTTOM
    assert text_mul(x, TEXT_BOTTOM) == TEXT_BOTTOM
    assert TEXT_BOTTOM.is_bottom and not x.is_bottom
    assert not TEXT_BOTTOM
    assert x


def test_text_mul_adds_grades_multiplies_parts():
    a = _germ([(1, 0)], 1)
    b = _germ([(0, 1), (1, 1)], 2)
    p = text_mul(a, b)
    assert p.grade == 3
    assert set(p.part.terms) == {((1, 1), 0), ((2, 1), 0)}


@st.composite
def text_elements(draw):
    if draw(st.booleans(), label="bottom"):
        n = draw(st.integers(1, 3))
        k = draw(st.integers(1, 3))
        terms = draw(
            st.lists(
                st.tuples(*[st.integers(-2, 2) for _ in range(n)]),
                min_size=1,
                max_size=k,
            )
        )
        part = canonicalize(LaurentPoly.make(n, [(u, 0) for u in terms]))
        return TExt(part, draw(rationals))
    return TEXT_BOTTOM


@given(text_elements(), text_elements())
def test_text_add_commutes(x, y):
    # only meaningful when both live over the same variable count
    if x.is_bottom or y.is_bottom or x.part.num_vars == y.part.num_vars:
        assert text_add(x, y) == text_add(y, x)


def test_operator_sugar():
    a = _germ([(1, 0)], 1)
    b = _germ([(0, 1)], 2)
    assert a + b == text_add(a, b)
    assert a * b == text_mul(a, b)
