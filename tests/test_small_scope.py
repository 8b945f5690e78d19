"""Bounded-exhaustive checks on every small instance (the small-scope
hypothesis: Jackson, *Software Abstractions*, 2006).  The fans are all
4,992 fans in R^2 with one to three distinct primitive directions in
[-2, 2]^2 and weights in {1, 2}.

* Membership: ``image_membership`` on every value vector in [-1, 1]^k,
  125,376 calls, against a box oracle.  A term x^z has the values
  l = M^T z, and G is a member iff every ray a has some z with l <= G and
  l_a = G_a.  The oracle tries every z in [-14, 14]^2, so a ray it covers
  is covered, and it must find a miss exactly where the library answers
  None.
* Realizability: ``is_realizable`` of a fan's generator matrix is its
  balancing, and on 20,000 random small matrices ``is_realizable`` agrees
  with the three conditions written out below.
* Canonical forms: ``canonicalize`` against ``oracles.hull_vertices`` on a
  fixed-seed sample of 96 of the polynomials in two variables with
  exponents in [-1, 1]^2 and coefficients in {absent, 0, 1, 2}.
* Morphism round trip: ``realize_morphism(induced_homspec(mu))`` agrees
  with mu on every source generator, for every weight-1 source fan above
  and every matrix T in [-1, 1]^{2x2} whose generator images have degree
  0 (so that ``induced_homspec`` is defined), 5,432 pairs.  The target is
  the weight-1 fan on the primitive images T d of the source rays, the
  smallest whose support T maps into, or the source itself when T sends
  every ray to the origin.
"""

import math
import random
from itertools import combinations, product

import pytest

from oracles import hull_vertices
from tropfan import (
    FanMorphism,
    IntMatrix,
    LaurentPoly,
    NotRealizable,
    RayFunction,
    WeightedFan,
    canonicalize,
    check_balancing,
    generator_matrix,
    image_membership,
    induced_homspec,
    is_realizable,
    primitive,
    realize_morphism,
    reconstruct_fan,
)

DIRECTIONS = [d for d in product(range(-2, 3), repeat=2) if any(d) and math.gcd(*d) == 1]
BOX = list(product(range(-14, 15), repeat=2))


def small_fans():
    for k in (1, 2, 3):
        for dirs in combinations(DIRECTIONS, k):
            for weights in product((1, 2), repeat=k):
                yield WeightedFan.build(2, zip(dirs, weights))


FANS = list(small_fans())


def test_fan_count():
    assert len(DIRECTIONS) == 16
    assert len(FANS) == 16 * 2 + 120 * 4 + 560 * 8 == 4992


def _clip(v):
    """A box value as the membership test for G in [-1, 1] reads it: every
    value below -1 is below each G_b and tight at none, and every value
    above 1 is above each G_b."""
    return -2 if v < -1 else (v if v <= 1 else 2)


def box_terms(X, values):
    """The distinct clipped l = M^T z of the z in the box that could lie
    below some G in [-1, 1]^k.  ``values`` keeps each generator's clipped
    values over the box, in BOX order."""
    cols = []
    for ray in X.rays:
        g = ray.generator
        if g not in values:
            values[g] = [_clip(g[0] * z0 + g[1] * z1) for z0, z1 in BOX]
        cols.append(values[g])
    return [l for l in set(zip(*cols)) if max(l) <= 1]


def box_member(terms, G):
    """True iff every ray has a box term below G and tight there."""
    covered = set()
    for l in terms:
        if all(map(int.__le__, l, G)):
            covered.update(b for b, (x, y) in enumerate(zip(l, G)) if x == y)
    return len(covered) == len(G)


def test_membership_against_box_oracle():
    calls = members = 0
    values = {}
    for X in FANS:
        terms = box_terms(X, values)
        for G in product((-1, 0, 1), repeat=len(X.rays)):
            w = image_membership(X, RayFunction(X, G))
            calls += 1
            # a box witness is a witness, so the oracle is exact where it
            # finds one, and at these sizes it finds one for every member;
            # image_membership checks each of its witnesses by eval_map
            assert (w is not None) == box_member(terms, G), (X, G)
            members += w is not None
    assert calls == 125_376
    assert 0 < members < calls


def test_realizable_iff_balanced():
    for X in FANS:
        M = generator_matrix(X)
        assert is_realizable(M) == check_balancing(X), X
        if check_balancing(X):
            assert reconstruct_fan(M) == WeightedFan.build(2, [(ray.generator, 1) for ray in X.rays])


def realizable_by_conditions(rows):
    """Every row sums to 0, no column is zero, and no two columns are
    positive multiples of each other."""
    if any(sum(row) for row in rows):
        return False
    seen = set()
    for col in zip(*rows):
        if not any(col):
            return False
        g = math.gcd(*col)
        d = tuple(x // g for x in col)
        if d in seen:
            return False
        seen.add(d)
    return True


def test_realizability_matches_conditions():
    rng = random.Random(2028)
    realizable = 0
    for _ in range(20_000):
        m, k, balanced = rng.randint(1, 3), rng.randint(1, 5), rng.random() < 0.5
        rows = []
        while len(rows) < m:  # half the draws have every row summing to 0
            row = [rng.randint(-2, 2) for _ in range(k)]
            if not balanced or not sum(row):
                rows.append(row)
        M = IntMatrix.from_rows(rows)
        want = realizable_by_conditions(rows)
        assert is_realizable(M) == want, rows
        if want:
            realizable += 1
            assert sorted(generator_matrix(reconstruct_fan(M)).transpose().data) == sorted(zip(*rows))
        else:
            with pytest.raises(NotRealizable):
                reconstruct_fan(M)
    assert realizable > 4_000, realizable


def kept_by_hull(terms):
    """The exponents of the terms that are the strict maximum somewhere:
    the lifted points (u, c) that are vertices of the hull of the lifted
    points together with a copy of each vertex v of the exponents' hull
    lowered below every coefficient.  Below a lifted point that is not
    such a vertex lies a point of the lowered copies' hull, and above it
    a point of the other lifted points' hull, since it is nowhere the
    strict maximum; a point that is the strict maximum at p is the unique
    maximizer of (p, 1)."""
    lifted = [(*u, c) for u, c in terms]
    cs = dict(terms)
    depth = max(cs.values()) - min(cs.values()) + 1
    lowered = [(*v, cs[v] - depth) for v in hull_vertices(list(cs))]
    verts = hull_vertices(lifted + lowered)
    return {p[:-1] for p in lifted if p in verts}


def small_poly(n, code):
    """Polynomial number ``code`` in n variables with exponents in
    [-1, 1]^n and coefficients in {absent, 0, 1, 2}, as a term list: base-4
    digit i of ``code`` is the coefficient of the i-th exponent, 3 meaning
    absent."""
    digits = [code // 4**i % 4 for i in range(3**n)]
    return [(u, c) for u, c in zip(product((-1, 0, 1), repeat=n), digits) if c != 3]


@pytest.mark.parametrize("n, sample", [(1, None), (2, 96)])
def test_canonicalize_against_hull_vertices(n, sample):
    codes = range(4 ** 3**n)
    if sample:
        codes = random.Random(2029).sample(codes, sample)
    sizes = set()
    for terms in map(small_poly, [n] * len(codes), codes):
        P = LaurentPoly.make(n, terms)
        C = canonicalize(P)
        assert set(C.terms) <= set(P.terms)
        assert {u for u, _ in C.terms} == (kept_by_hull(terms) if terms else set()), terms
        sizes.add(len(C.terms))
    assert len(sizes) >= 4


def test_morphism_round_trip():
    matrices = [IntMatrix.from_rows([t[:2], t[2:]]) for t in product((-1, 0, 1), repeat=4)]
    pairs = 0
    for X in FANS:
        if any(ray.weight != 1 for ray in X.rays):
            continue
        total = [sum(c) for c in zip(*(ray.generator for ray in X.rays))]
        for T in matrices:
            if any(T.apply(total)):  # an image of nonzero degree
                continue
            images = {primitive(v)[1] for v in map(T.apply, (ray.direction for ray in X.rays)) if any(v)}
            Y = WeightedFan.build(2, [(d, 1) for d in images]) if images else X
            back = realize_morphism(induced_homspec(FanMorphism(X, Y, T)))
            assert (back.source, back.target) == (X, Y)
            for ray in X.rays:
                assert back.apply(ray.generator) == T.apply(ray.generator), (X, T)
            pairs += 1
    assert pairs == 5432
