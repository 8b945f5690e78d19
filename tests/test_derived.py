"""What the library derives from checked values is built without a second
check (``semiring.from_checked``).  These tests show that nothing is lost
by it: every derived value is one that its public constructor accepts and
leaves equal, its exponents, directions, weights, values and matrix
entries are plain ints and its coefficients Fractions; and that the
derivations which need no check run none."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction

from oracles import (
    rand_balanced_fan,
    rand_boolean_poly,
    rand_matrix,
    rand_morphism,
    rand_point,
    rand_poly,
    rand_unimodular,
)
from tropfan import (
    IntMatrix,
    LaurentPoly,
    Ray,
    RayFunction,
    WeightedFan,
    canonicalize,
    eval_map,
    germ_localize,
    hnf,
    image_membership,
    induced_homspec,
    parse_poly_text,
    poly_from_json,
    poly_to_json,
    poly_to_text,
    pullback_poly,
    snf,
    unimodular_transport,
)


def ints(v):
    return type(v) is tuple and all(type(x) is int for x in v)


def assert_sound(v):
    """v equals, with an equal hash, itself built again through its public
    constructor, and holds plain ints and Fraction coefficients."""
    again = dataclasses.replace(v)
    assert again == v and hash(again) == hash(v)
    if isinstance(v, LaurentPoly):
        assert type(v.num_vars) is int
        assert all(ints(u) and type(c) is Fraction for u, c in v.terms)
    elif isinstance(v, RayFunction):
        assert_sound(v.fan)
        assert v.values is None or ints(v.values)
    elif isinstance(v, WeightedFan):
        assert type(v.ambient_dim) is int and type(v.rays) is tuple
        for ray in v.rays:
            assert_sound(ray)
    elif isinstance(v, Ray):
        assert ints(v.direction) and type(v.weight) is int
    else:
        assert isinstance(v, IntMatrix) and type(v.data) is tuple and all(map(ints, v.data))


def derived(rng):
    """(site, value) for every kind of derived value, from one draw."""
    n = rng.randint(1, 4)
    P, Q, p = rand_poly(rng, n), rand_poly(rng, n), rand_point(rng, n)
    yield "make", P
    yield "+", P + Q
    yield "*", P * Q
    yield "**", P ** rng.randint(0, 3)
    yield "shift", P.shift(p)
    yield "initial_form", P.initial_form(p)
    yield "boolean_part", P.boolean_part()
    yield "CanonicalFn.poly", canonicalize(P).poly
    yield "germ_localize", germ_localize(P, p).part.poly
    yield "parse_poly_text", parse_poly_text(poly_to_text(P), n)
    yield "poly_from_json", poly_from_json(poly_to_json(P))
    X = rand_balanced_fan(rng, n)
    G = eval_map(X, rand_boolean_poly(rng, n))
    yield "WeightedFan.build", X
    yield "eval_map", G
    yield "eval_map", eval_map(X, LaurentPoly.zero(n))
    yield "image_membership", image_membership(X, G)
    mu = rand_morphism(rng)
    yield "pullback_poly", pullback_poly(mu, rand_poly(rng, mu.target.ambient_dim))
    for image in induced_homspec(mu).images:
        yield "induced_homspec", image
    A = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
    yield "transpose", A.transpose()
    yield "@", A @ rand_matrix(rng, A.cols, rng.randint(1, 5))
    for M in hnf(A):
        yield "hnf", M
    for M in snf(A):
        yield "snf", M
    yield "unimodular_transport", unimodular_transport(A, rand_unimodular(rng, A.rows) @ A)


def test_derived_values_are_sound():
    rng = random.Random(3737)
    seen = Counter()
    for _ in range(300):
        for site, value in derived(rng):
            assert value is not None, site
            assert_sound(value)
            seen[site] += 1
    assert len(seen) == 21 and min(seen.values()) >= 300


def test_membership_and_evaluation_run_no_constructor_check(monkeypatch):
    rng = random.Random(3838)
    cases = []
    for _ in range(100):
        n = rng.randint(1, 4)
        X, f = rand_balanced_fan(rng, n), rand_boolean_poly(rng, n)
        cases.append((X, f, eval_map(X, f)))
    checks = Counter()
    for cls in (LaurentPoly, RayFunction):
        def counted(self, check=cls.__post_init__, name=cls.__name__):
            checks[name] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    for X, f, G in cases:
        assert eval_map(X, f) == G
        assert eval_map(X, image_membership(X, G)) == G
    assert not checks
    # the counter sees the checks that do run
    LaurentPoly(1, ())
    RayFunction(X, G.values)
    assert checks == {"LaurentPoly": 1, "RayFunction": 1}
