"""The one-pass polynomial text parser against the regex parser it
replaced (``oracles.parse_poly_text``): on every text and variable count,
both return an equal polynomial, with the same term representation, or
raise the same exception type with the same message."""

import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from tropfan import parse_poly_text
from tropfan.laurent import MAX_TEXT_VARS

DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def outcome(parse, text, num_vars):
    try:
        P = parse(text, num_vars)
    except Exception as exc:  # the type and message are compared
        return ("raises", type(exc), str(exc))
    return ("returns", P, repr(P))


def check(text, num_vars=None):
    want = outcome(oracles.parse_poly_text, text, num_vars)
    got = outcome(parse_poly_text, text, num_vars)
    assert got == want, (text[:200], num_vars)
    return want[0]


VALID = [
    "0", "-inf", "-inf + -inf", " x ", "x + y + z + w", "x1 + x2^3 + x7^-2",
    "x*x*y^2 + 3*x^2*y^2", "1/2*x + 2/4*x", "3*x + 1*x + -inf", "-5*y^-3*w",
    "1*2*x", "1/2*1/3*x*-2/5", "x^0", "x*x^-1", "x01 + x001^2", "x^ 3",
    "x ^ -4", "x^1_0", "\tx\n+\ny\t", "x^٣ + ٣/٤*y + x٢", "-0 + -0/7*x",
    "12345678901234567890/98765432109876543210*x", "1" * DIGIT_LIMIT + "*x",
    "1/" + "7" * DIGIT_LIMIT, f"x{MAX_TEXT_VARS - 1}", f"x{MAX_TEXT_VARS}",
    "x^" + "9" * DIGIT_LIMIT,
]

MALFORMED = [
    "", "   ", "+", "x +", "+ x", "x ++ y", "x**y", "*x", "x*", "x^", "y^ ", "x*y^",
    "x^a", "x^1.5", "x^2^3", "x^1__0", "x^_1", "^2", "1/0", "0/0", "1/0 + x", "x + 1/0", "x^+2",
    "-1/0*x", "1_000*x", "1/2_0", "٣/0", "1.5", "1e5*x", "--1", "-", "1/", "/2", "1/2/3",
    "X", "v", "xy", "y2", "x0", "x00", "x-1", "-x", "- 1", "-inf*x", "-INF", "inf",
    "x²", "x^²", "²*x", f"x{MAX_TEXT_VARS + 1}", "x1000000", "x" + "1" * (DIGIT_LIMIT + 1),
    "1" * (DIGIT_LIMIT + 1), "1/" + "1" * (DIGIT_LIMIT + 1), "1" * (DIGIT_LIMIT + 1) + "/0",
    "x^" + "1" * (DIGIT_LIMIT + 1), "q^", "y^x", "x + x0", "x0 + 1/0", "1/0 + x0",
]


@pytest.mark.parametrize("text", VALID)
def test_valid(text):
    assert check(text) == "returns"


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed(text):
    assert check(text) == "raises"


@pytest.mark.parametrize("num_vars", [None, 0, 1, 3, 4, 5, -1, MAX_TEXT_VARS - 1, MAX_TEXT_VARS,
                                      MAX_TEXT_VARS + 1])
@pytest.mark.parametrize("text", ["-inf", "7", "x", "x2*y", "x4 + 1/3", f"x{MAX_TEXT_VARS}"])
def test_variable_counts(text, num_vars):
    check(text, num_vars)


# Pieces that random texts are assembled from: valid names, exponents and
# coefficients, and near misses of each.
NAMES = ["x", "y", "z", "w", "x1", "x2", "x3", "x5", "x12", "x01", "x٣"]
BAD_NAMES = ["x0", "X", "v", "xy", "y2", "", "-x", "x²"]
POWERS = ["", "", "", "^2", "^-1", "^0", "^ 3", "^-12", "^1_0", "^٢"]
BAD_POWERS = ["^", "^a", "^1.5", "^²", "^-"]
COEFFS = ["0", "1", "-1", "3", "-7", "1/2", "-3/4", "6/4", "0/5", "٣", "-inf"]
BAD_COEFFS = ["1/0", "1_0", "1.5", "1e2", "--2", "/3", "3/"]
SPACES = ["", "", "", " ", "  ", "\t"]


def random_factor(rng):
    bad = rng.random() < 0.03
    if rng.random() < 0.4:
        return rng.choice(BAD_COEFFS if bad else COEFFS)
    if bad:
        return rng.choice(BAD_NAMES) + rng.choice(POWERS) if rng.random() < 0.5 else "x" + rng.choice(BAD_POWERS)
    return rng.choice(NAMES) + rng.choice(POWERS)


def random_text(rng):
    terms = []
    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.08:
            terms.append(rng.choice(["-inf", "-inf", " -inf", ""]))
            continue
        factors = [random_factor(rng) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.02:
            factors.insert(rng.randrange(len(factors) + 1), "")
        terms.append("*".join(rng.choice(SPACES) + f + rng.choice(SPACES) for f in factors))
    return "+".join(terms)


def test_fixed_seed_sweep():
    rng = random.Random(17017)
    seen = {"returns": 0, "raises": 0}
    for _ in range(4000):
        text = random_text(rng)
        if rng.random() < 0.05:  # one character dropped or duplicated
            i = rng.randrange(len(text) + 1)
            text = text[:i] + text[i + 1:] if rng.random() < 0.5 else text[:i] + text[i:i + 1] + text[i:]
        num_vars = rng.choice([None, None, None, 0, 1, 2, 3, 4, 5, 12])
        seen[check(text, num_vars)] += 1
    # the sweep exercises both sides
    assert seen["returns"] > 800 and seen["raises"] > 800, seen


@given(st.text(alphabet="xyzw0123456789/*+-^ _.e٣²\t", max_size=40),
       st.sampled_from([None, 0, 1, 2, 4, 9]))
def test_any_text(text, num_vars):
    check(text, num_vars)


@given(st.lists(st.tuples(st.integers(-10**30, 10**30), st.integers(1, 10**6),
                          st.lists(st.tuples(st.sampled_from(NAMES), st.integers(-5, 5)),
                                   max_size=4)),
                min_size=1, max_size=6))
def test_well_formed_terms(terms):
    text = " + ".join(
        "*".join([f"{p}/{q}"] + [f"{name}^{e}" for name, e in factors]) for p, q, factors in terms
    )
    assert check(text) == "returns"
