import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    CANON_KINDS,
    all_rivals_canonicalize,
    all_rivals_point,
    frac_eval,
    frac_initial_form,
    fraction_row_witness,
    grid_values,
    hull_vertices,
    joint_denominator,
    rand_canon_case,
    rand_flat_poly,
    rand_point,
    rand_poly,
    rand_scale_pair,
    rand_unimodular,
)
from tropfan import (
    NEG_INF,
    TEXT_BOTTOM,
    BadParameters,
    DimensionMismatch,
    EmptyPolynomial,
    LaurentPoly,
    ParseError,
    canonicalize,
    fn_eq,
    fn_witness,
    germ_eq,
    germ_localize,
    germ_safe_radius,
    parse_point,
    parse_poly_text,
    poly_from_json,
    poly_to_json,
    poly_to_text,
    text,
    text_add,
    text_mul,
)
from tropfan import _lp
from tropfan.laurent import _beating_points, _int_rows

P0 = parse_poly_text("1 + 3*x^1 + 2*y^1 + 3*x^1*y^1")


@st.composite
def polys(draw, num_vars=None, boolean=False):
    n = num_vars if num_vars is not None else draw(st.integers(1, 3))
    k = draw(st.integers(1, 5))
    coeff = st.just(Fraction(0)) if boolean else st.fractions(max_denominator=4, min_value=-6, max_value=6)
    items = draw(
        st.lists(
            st.tuples(st.tuples(*[st.integers(-3, 3) for _ in range(n)]), coeff),
            min_size=1,
            max_size=k,
        )
    )
    return LaurentPoly.make(n, items)


@st.composite
def tie_prone_polys(draw, max_vars=5, max_terms=8, num_vars=None):
    """Polynomials in 0..max_vars (or num_vars) variables whose
    coefficients come from a few values, so that term values often tie."""
    n = num_vars if num_vars is not None else draw(st.integers(0, max_vars))
    value = st.one_of(st.integers(-4, 4), st.fractions(max_denominator=3, min_value=-4, max_value=4))
    values = draw(st.lists(value, min_size=1, max_size=3))
    items = draw(
        st.lists(
            st.tuples(st.tuples(*[st.integers(-3, 3) for _ in range(n)]), st.sampled_from(values)),
            max_size=max_terms,
        )
    )
    return LaurentPoly.make(n, items)


def points(n):
    coord = st.one_of(st.integers(-2, 2), st.fractions(max_denominator=4, min_value=-2, max_value=2))
    return st.tuples(*[coord] * n)


points2 = st.tuples(
    st.fractions(max_denominator=4, min_value=-8, max_value=8),
    st.fractions(max_denominator=4, min_value=-8, max_value=8),
)


class TestConstruction:
    def test_make_normalizes(self):
        P = LaurentPoly.make(2, [((1, 0), 3), ((0, 1), 2), ((1, 0), 1), ((2, 2), NEG_INF)])
        assert P.terms == (((0, 1), Fraction(2)), ((1, 0), Fraction(3)))

    def test_direct_construction_is_strict(self):
        with pytest.raises(BadParameters):
            LaurentPoly(2, (((1, 0), Fraction(0)), ((0, 1), Fraction(0))))  # not sorted
        with pytest.raises(BadParameters):
            LaurentPoly(2, (((1, 0), NEG_INF),))
        with pytest.raises(DimensionMismatch):
            LaurentPoly(2, (((1,), Fraction(0)),))
        with pytest.raises(BadParameters):
            LaurentPoly(-1, ())

    def test_factories(self):
        assert not LaurentPoly.zero(2)
        assert LaurentPoly.one(2).terms == (((0, 0), Fraction(0)),)
        assert LaurentPoly.constant(1, Fraction(5)).eval((7,)) == 5
        m = LaurentPoly.monomial(2, (1, -2), Fraction(3, 2))
        assert m.is_monomial and m.coeff((1, -2)) == Fraction(3, 2)
        assert m.coeff((0, 0)) is NEG_INF

    def test_boolean_flags(self):
        assert parse_poly_text("0 + x").is_boolean
        assert not P0.is_boolean


class TestSemiringLaws:
    @given(polys(num_vars=2), polys(num_vars=2), points2)
    def test_add_is_pointwise_max(self, P, Q, p):
        assert (P + Q).eval(p) == max(P.eval(p), Q.eval(p))

    @given(polys(num_vars=2), polys(num_vars=2), points2)
    def test_mul_is_pointwise_sum(self, P, Q, p):
        lhs = (P * Q).eval(p)
        a, b = P.eval(p), Q.eval(p)
        assert lhs == (a + b)

    @given(polys(num_vars=2), st.integers(0, 4), points2)
    def test_pow(self, P, k, p):
        v = P.eval(p)
        expect = 0 if k == 0 else (NEG_INF if v is NEG_INF else k * v)
        assert (P ** k).eval(p) == expect

    def test_pow_rejects_negative(self):
        with pytest.raises(BadParameters):
            P0 ** -1

    @given(polys(num_vars=2), points2, points2)
    def test_shift(self, P, a, p):
        q = tuple(x + y for x, y in zip(a, p))
        assert P.shift(a).eval(p) == P.eval(q)

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            P0 + LaurentPoly.one(3)
        with pytest.raises(DimensionMismatch):
            P0.eval((1,))


class TestInitialForm:
    def test_known(self):
        assert poly_to_text(P0.initial_form((0, 0))) == "3*x + 3*x*y"
        assert poly_to_text(P0.initial_form((-10, -10))) == "1"

    def test_empty_rejected(self):
        with pytest.raises(EmptyPolynomial):
            LaurentPoly.zero(2).initial_form((0, 0))
        with pytest.raises(EmptyPolynomial):
            germ_safe_radius(LaurentPoly.zero(2), (0, 0))

    @given(polys(num_vars=2), polys(num_vars=2), points2)
    def test_product_law(self, P, Q, p):
        assert (P * Q).initial_form(p) == (P.initial_form(p) * Q.initial_form(p))

    @given(polys(num_vars=2), polys(num_vars=2), points2)
    def test_sum_law_three_cases(self, P, Q, p):
        a, b = P.eval(p), Q.eval(p)
        got = (P + Q).initial_form(p)
        if a > b:
            assert got == P.initial_form(p)
        elif b > a:
            assert got == Q.initial_form(p)
        else:
            assert got == P.initial_form(p) + Q.initial_form(p)

    @given(polys(num_vars=2), points2)
    def test_idempotent(self, P, p):
        f = P.initial_form(p)
        assert f.initial_form(p) == f


class TestCanonicalization:
    def test_redundant_interior_term_dropped(self):
        # 0 + 1*x + 2*x^2: the middle slope is the roof of the outer two at x=1
        P = parse_poly_text("0 + 1*x + 2*x^2")
        C = canonicalize(P)
        assert C.terms == (((0,), Fraction(0)), ((2,), Fraction(2)))
        assert (str(P), str(C)) == ("0 + 1*x + 2*x^2", "0 + 2*x^2")

    def test_strictly_contributing_term_kept(self):
        P = parse_poly_text("0 + 1*x + 0*x^2")
        assert len(canonicalize(P).terms) == 3

    def test_boolean_matches_hull_oracle(self):
        rng = random.Random(99)
        for _ in range(120):
            n = rng.randint(1, 3)
            k = rng.randint(1, 8)
            items = [(tuple(rng.randint(-3, 3) for _ in range(n)), 0) for _ in range(k)]
            P = LaurentPoly.make(n, items)
            got = set(canonicalize(P).poly.support())
            assert got == hull_vertices(P.support())
        # In n = 4-5 few random points are inside the hull of the others,
        # so each draw also gets midpoints of two of its (doubled) points.
        dropped = 0
        for _ in range(150):
            n = rng.randint(4, 5)
            vs = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 7))]
            mids = [tuple(map(sum, zip(*rng.sample(vs, 2)))) for _ in range(2 if len(vs) > 1 else 0)]
            P = LaurentPoly.make(n, [(tuple(2 * x for x in v), 0) for v in vs] + [(m, 0) for m in mids])
            got = set(canonicalize(P).poly.support())
            assert got == hull_vertices(P.support())
            dropped += len(got) < len(P.terms)
        assert dropped > 100

    @given(polys(num_vars=2))
    def test_canonical_form_preserves_function(self, P):
        assert fn_eq(P, canonicalize(P).poly)

    @given(polys(num_vars=2), polys(num_vars=2))
    def test_canonical_ops_match_poly_ops(self, P, Q):
        assert fn_eq((canonicalize(P) + canonicalize(Q)).poly, P + Q)
        assert fn_eq((canonicalize(P) * canonicalize(Q)).poly, P * Q)


class TestCanonicalizeDifferential:
    """The extreme-term search against the all-rivals oracle: the same
    kept terms in the same order."""

    @given(tie_prone_polys())
    def test_matches_all_rivals(self, P):
        assert canonicalize(P) == all_rivals_canonicalize(P)

    def test_fixed_seed_sweep(self):
        # every kind in every n = 0..5, 71 or 72 times each
        rng = random.Random(20261018)
        dropped = 0
        for k in range(3000):
            n, kind = k % 6, CANON_KINDS[k // 6 % len(CANON_KINDS)]
            P = rand_canon_case(rng, n, kind)
            got = canonicalize(P)
            assert got == all_rivals_canonicalize(P), (kind, P)
            dropped += len(got.terms) < len(P.terms)
        assert dropped > 400
        # exponents on a line or a plane in n = 2..5, Boolean or not
        dropped = 0
        for k in range(1200):
            P = rand_flat_poly(rng, 2 + k % 4, 1 + k // 4 % 2, k // 8 % 2 == 0)
            got = canonicalize(P)
            assert got == all_rivals_canonicalize(P), P
            dropped += len(got.terms) < len(P.terms)
        assert dropped > 400

    def test_pinned_rand_poly_digest(self):
        # The digest pins the canonical forms themselves: a change to the
        # order in which terms are kept or asked about cannot move them.
        rng = random.Random(99)
        digest = hashlib.sha256()
        for k in range(3000):
            digest.update(repr(canonicalize(rand_poly(rng, 1 + k % 5, max_terms=14)).terms).encode())
        assert digest.hexdigest() == "ed6bdcb9f55a3bc38b9465efecacbf2bf03c20cc99189f7223c01d5471b4b60b"

    def test_unimodular_image_keeps_the_images(self):
        # u -> A*u maps the Newton polytope's vertices onto the image's
        # and changes which of them are coordinate-extreme, so the terms
        # kept without an LP differ from one basis to the next.
        rng = random.Random(3636)
        for k in range(20):
            n = 1 + k % 5
            A = rand_unimodular(rng, n)
            for _ in range(15):
                P = rand_poly(rng, n, max_terms=10)
                image = LaurentPoly.make(n, [(A.apply(u), c) for u, c in P.terms])
                kept = {(A.apply(u), c) for u, c in canonicalize(P).terms}
                assert set(canonicalize(image).terms) == kept, (A, P)

    def test_resumed_lp_keeps_every_extreme_term(self):
        # Asking about y*z again adds the row of y^2*z to a tableau whose
        # artificial for z is still basic; leaving it basic dropped y*z.
        P = parse_poly_text("x^-1*y^-1*z + y*z + y^2*z + x*y", 3)
        assert canonicalize(P).terms == P.terms


class TestExactEvaluation:
    @given(tie_prone_polys(max_vars=4).flatmap(lambda P: st.tuples(st.just(P), points(P.num_vars))))
    def test_eval_and_initial_form_match_fraction_reference(self, case):
        P, p = case
        assert P.eval(p) == frac_eval(P, p)
        if P:
            assert P.initial_form(p) == frac_initial_form(P, p)


class TestFunctionEquality:
    def test_known_pairs(self):
        assert fn_eq(parse_poly_text("0 + 1*x + 2*x^2"), parse_poly_text("0 + 2*x^2"))
        assert not fn_eq(parse_poly_text("0 + 1*x + 0*x^2"), parse_poly_text("0 + 0*x^2"))
        assert fn_eq(LaurentPoly.zero(2), LaurentPoly.zero(2))
        assert not fn_eq(LaurentPoly.zero(2), LaurentPoly.one(2))

    @given(polys(num_vars=2), polys(num_vars=2))
    def test_witness_iff_not_equal(self, P, Q):
        if fn_eq(P, Q):
            assert fn_witness(P, Q) is None
        else:
            w = fn_witness(P, Q)
            assert w is not None and P.eval(w) != Q.eval(w)

    def test_grid_cross_check(self):
        rng = random.Random(7)
        for _ in range(60):
            P = rand_poly(rng, 2, max_terms=5)
            Q = rand_poly(rng, 2, max_terms=5)
            if rng.random() < 0.3:
                Q = P + LaurentPoly.make(2, [((0, 0), Fraction(-50))])  # same function
            D = joint_denominator(P, Q)
            gp, gq = grid_values(P, D), grid_values(Q, D)
            grids_equal = gp == gq
            if fn_eq(P, Q):
                assert grids_equal
            else:
                w = fn_witness(P, Q)
                assert P.eval(w) != Q.eval(w)


def shared_pair(rng, n):
    """P and a Q built from P's terms: some dropped, some lowered or
    raised, and decoys at integral midpoints of two of P's exponents that
    never exceed their average.  Q is often, not always, equal to P."""
    P = rand_poly(rng, n, max_terms=6)
    items = []
    for u, c in P.terms:
        roll = rng.random()
        if roll < 0.15:
            continue
        items.append((u, c + (rng.choice((-1, 1)) if roll < 0.3 else 0)))
    for _ in range(2 if len(P.terms) > 1 else 0):
        (u, a), (v, b) = rng.sample(P.terms, 2)
        m = [x + y for x, y in zip(u, v)]
        if all(x % 2 == 0 for x in m):
            items.append((tuple(x // 2 for x in m), (a + b) / 2 - rng.randint(0, 1)))
    return P, LaurentPoly.make(n, items)


def lifted(exps):
    """The terms of exponents on the strictly concave lift -|u|^2: every
    term is a vertex."""
    return [(u, Fraction(-sum(x * x for x in u))) for u in exps]


class TestEqualityByDomination:
    """fn_eq and fn_witness against the reference: canonical forms
    structurally equal."""

    def test_differential_sweep(self):
        # n = 1..4, a third of the pairs sharing terms
        rng = random.Random(16016)
        equal = 0
        for k in range(3000):
            n = 1 + k % 4
            if k % 3 == 2:
                P, Q = shared_pair(rng, n)
            else:
                P, Q = rand_poly(rng, n, max_terms=6), rand_poly(rng, n, max_terms=6)
            want = canonicalize(P) == canonicalize(Q)
            w = fn_witness(P, Q)
            assert fn_eq(P, Q) == want == (w is None), (P, Q)
            if w is not None:
                assert P.eval(w) != Q.eval(w), (P, Q, w)
            equal += want
        assert equal > 200

    @given(st.integers(0, 3).flatmap(lambda n: st.tuples(tie_prone_polys(num_vars=n),
                                                         tie_prone_polys(num_vars=n))))
    def test_matches_canonical_forms(self, pair):
        P, Q = pair
        w = fn_witness(P, Q)
        assert (w is None) == (canonicalize(P) == canonicalize(Q))
        if w is not None:
            assert P.eval(w) != Q.eval(w)

    def test_no_variables(self):
        bottom, one, two = LaurentPoly.zero(0), LaurentPoly.one(0), LaurentPoly.constant(0, 2)
        for P, Q, equal in [(bottom, bottom, True), (one, one, True), (one, two, False),
                            (bottom, one, False)]:
            for A, B in ((P, Q), (Q, P)):
                assert fn_eq(A, B) == equal
                assert fn_witness(A, B) == (None if equal else ())

    def test_bottom(self):
        bottom = LaurentPoly.zero(2)
        assert fn_witness(bottom, bottom) is None
        for P in (LaurentPoly.one(2), P0, parse_poly_text("-5*x^-3 + y", 2)):
            for A, B in ((P, bottom), (bottom, P)):
                assert not fn_eq(A, B)
                w = fn_witness(A, B)
                assert A.eval(w) != B.eval(w)

    def test_one_exponent_on_both_sides(self):
        # the same exponent with a larger, equal or smaller coefficient,
        # alone and beside a shared term, each pair in both orders
        for rest in ("", " + y"):
            Q = parse_poly_text("1*x" + rest, 2)
            for c, equal in (("2", False), ("1", True), ("0", False)):
                P = parse_poly_text(c + "*x" + rest, 2)
                for A, B in ((P, Q), (Q, P)):
                    assert fn_eq(A, B) == equal
                    w = fn_witness(A, B)
                    assert (w is None) == equal
                    if w is not None:
                        assert A.eval(w) != B.eval(w)


def scale_cases():
    """2,000 fixed-seed cases (P, Q, p): n = 1..4, coefficient denominators
    up to 6, bottom sides and equal coefficients included."""
    rng = random.Random(6029)
    for k in range(2000):
        n = 1 + k % 4
        P, Q = rand_scale_pair(rng, n)
        yield P, Q, rand_point(rng, n, max_den=6)


def beats(A, B, w):
    """True iff a term of A strictly beats every term of B at w, in
    Fractions."""
    return frac_eval(A, w) > frac_eval(B, w)


class TestIntegerRowScale:
    """fn_witness builds its rows on one integer scale for both sides, and
    germ_localize reads both parts of a germ off one evaluation: the same
    decisions as the rows in Fraction form, each on the same side, and the
    same germs as the initial form and the value taken apart."""

    def test_fixed_seed_sweep(self):
        separated = 0
        for P, Q, p in scale_cases():
            w, ref = fn_witness(P, Q), fraction_row_witness(P, Q)
            assert (w is None) == (ref is None), (P, Q)
            if w is not None:
                assert beats(P, Q, w) == beats(P, Q, ref), (P, Q, w, ref)
                separated += 1
            for A in (P, Q):
                want = text(canonicalize(A.initial_form(p).boolean_part()), A.eval(p)) if A else TEXT_BOTTOM
                assert germ_localize(A, p) == want, (A, p)
        assert 1000 < separated < 1800

    def test_witness_digest(self):
        # Each witness has a term of one side strictly beat every term of
        # the other, checked in Fractions; the digest pins the points that
        # one resumed tableau per side finds.  Bland's rule returns whatever
        # vertex it stops at, so the height of a witness (its largest
        # numerator or denominator) is bounded too, at the largest these
        # points reach, that a change cannot grow it unnoticed.
        digest, height = hashlib.sha256(), 0
        for P, Q, _ in scale_cases():
            w = fn_witness(P, Q)
            assert w is None or beats(P, Q, w) or beats(Q, P, w), (P, Q, w)
            digest.update(repr(w).encode())
            height = max([height, *[max(abs(x.numerator), x.denominator) for x in w or ()]])
        assert digest.hexdigest() == "d341d1f686bf5e2d3a69f7bb76228162be6d0ce2e1ed7ac68d7dc77ac383044b"
        assert height <= 15540, height


def test_resumed_side_matches_all_rivals():
    # Each term that the other side's term of the same exponent does not
    # dominate is asked on its side's one resumed tableau, every term of the
    # side in turn, and gets the answer of a fresh tableau of its least
    # integer rows against every rival (oracles.all_rivals_point); each
    # point has its term strictly beat every rival, checked in Fractions.
    rng = random.Random(4747)
    answers = [0, 0]
    for k in range(2000):
        n = 1 + k % 4
        P, Q = shared_pair(rng, n) if k % 2 else rand_scale_pair(rng, n)
        rows, L = _int_rows(P.terms + Q.terms)
        split = len(P.terms)
        asked = []  # (term, its rivals, its polynomial, the rivals')
        for A, B, FA, FB in ((rows[:split], rows[split:], P, Q), (rows[split:], rows[:split], Q, P)):
            coeffs = dict(B)
            asked += [((u, a), B, FA, FB) for u, a in A if not (u in coeffs and coeffs[u] >= a)]
        for ((u, a), B, FA, FB), found in zip(asked, _beating_points(rows, split, n), strict=True):
            assert (found is None) == (all_rivals_point((u, a), B, L, n) is None), (FA, FB, u)
            if found is not None:
                xs, D = found
                w = tuple(Fraction(x, D * L) for x in xs)
                mine = FA.coeff(u) + sum(e * x for e, x in zip(u, w))
                assert all(mine > c + sum(e * x for e, x in zip(v, w)) for v, c in FB.terms), (FA, FB, u, w)
            answers[found is not None] += 1
    assert min(answers) > 300, answers


@pytest.fixture
def calls(monkeypatch):
    """The number of _lp.find_point calls so far, in a one-item list."""
    count = [0]
    real = _lp.find_point

    def counting(*args):
        count[0] += 1
        return real(*args)

    monkeypatch.setattr(_lp, "find_point", counting)
    return count


class TestCanonicalizeLPCount:
    """The term that wins at 0 and, for each coordinate j and sign s, the
    term lex-largest in (s*u_j, u) are kept without an LP; every other term
    asks one LP at least."""

    def test_monomial_asks_none(self, calls):
        P = LaurentPoly.monomial(3, (1, -2, 3), Fraction(5, 2))
        assert canonicalize(P).terms == P.terms
        assert calls[0] == 0

    def test_two_vertices_ask_none(self, calls):
        for P in (parse_poly_text("1 + 2*x*y", 2), parse_poly_text("3 + x^-1*y^2", 2)):
            calls[0] = 0
            assert canonicalize(P).terms == P.terms
            assert calls[0] == 0

    def test_interior_term_asks_one(self, calls):
        # 3 + x beats 4 and 2x on 1 < x < 3, found by one feasible LP; 1 + x
        # would need x > 3 and x < 1, refuted by one infeasible LP
        for text, kept in (("4 + 3*x + 0*x^2", (0, 1, 2)), ("4 + 1*x + 0*x^2", (0, 2))):
            P = parse_poly_text(text)
            calls[0] = 0
            assert canonicalize(P).terms == tuple(P.terms[i] for i in kept)
            assert calls[0] == 1


@pytest.fixture
def lp_work(monkeypatch):
    """The tableaux built, the rows added to them and the pivots taken so
    far, counted by a subclass of _lp.Tableau put in its place."""
    work = {"tableaux": 0, "rows": 0, "pivots": 0}

    class Counted(_lp.Tableau):
        __slots__ = ()

        def __init__(self, rows, nvars, *term):
            work["tableaux"] += 1
            super().__init__(rows, nvars, *term)

        def add_row(self, a, b):
            work["rows"] += 1
            super().add_row(a, b)

        def _pivot(self, r, c):
            work["pivots"] += 1
            super()._pivot(r, c)

    monkeypatch.setattr(_lp, "Tableau", Counted)
    return work


def test_canonicalize_resumes_one_tableau(lp_work):
    # Every undecided term is asked on one tableau per call, retargeted
    # from the basis of the last question.  With a fresh tableau per term
    # this corpus took 2,971 pivots; it must now take a quarter fewer.
    rng = random.Random(4545)
    for k in range(400):
        P = rand_poly(rng, 1 + k % 5, max_terms=12)
        before = lp_work["tableaux"]
        canonicalize(P)
        assert lp_work["tableaux"] - before <= 1, P
    assert lp_work["pivots"] <= 0.75 * 2971, lp_work


def test_fn_witness_lp_work_pinned(lp_work):
    # fn_witness asks the undominated terms of a side on one tableau,
    # retargeted from term to term and resumed.  With a fresh tableau of
    # every rival row per term this corpus took 315 tableaux and 673
    # pivots; the counts pin the work now.
    rng = random.Random(4646)
    separated = 0
    for k in range(400):
        before = lp_work["tableaux"]
        separated += fn_witness(*rand_scale_pair(rng, 1 + k % 5)) is not None
        assert lp_work["tableaux"] - before <= 2
    assert (lp_work["tableaux"], lp_work["pivots"], separated) == (308, 302, 303)


class TestEqualityLPCount:
    """The LP work an equality question asks, counted by wrapping
    _lp.find_point and _lp.Tableau: a term the other side has with no
    smaller coefficient asks none.  The other terms of a side, until a point
    is found, share one tableau, and each runs it once and once more for
    every rival row it adds, each rival at most once."""

    def test_self_asks_none(self, calls):
        P = LaurentPoly.make(3, lifted([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (2, 2, 2)]))
        assert fn_eq(P, P)
        assert calls[0] == 0

    def test_one_lp_per_decoy(self, calls, lp_work):
        exps = [(0, 0), (2, 0), (0, 2), (2, 2), (4, 0), (-2, 2)]
        terms = lifted(exps)
        # a decoy at the midpoint of two exponents with their average
        # coefficient is at most the larger of the two everywhere
        decoys = {}
        for i, (u, a) in enumerate(terms):
            for v, b in terms[i + 1 :]:
                m = tuple((x + y) // 2 for x, y in zip(u, v))
                if all((x + y) % 2 == 0 for x, y in zip(u, v)) and m not in exps:
                    decoys.setdefault(m, (a + b) / 2 - 1)
        P = LaurentPoly.make(2, terms)
        PD = LaurentPoly.make(2, terms + list(decoys.items()))
        assert len(decoys) >= 4
        for A, B in ((P, PD), (PD, P)):
            calls[0] = lp_work["tableaux"] = lp_work["rows"] = 0
            assert fn_eq(A, B)
            assert lp_work["tableaux"] == 1
            assert calls[0] == len(decoys) + lp_work["rows"] and lp_work["rows"] <= len(terms)

    def test_new_vertex_asks_one(self, calls, lp_work):
        exps = [(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 1)]
        P = LaurentPoly.make(3, lifted(exps))
        PW = LaurentPoly.make(3, lifted(exps + [(3, -1, 2)]))
        w = fn_witness(P, PW)
        assert lp_work["tableaux"] == 1
        assert calls[0] == 1 + lp_work["rows"] and lp_work["rows"] <= len(exps)
        assert P.eval(w) < PW.eval(w)


def _transforms(rng, n):
    """A common shift a, as (P -> P.shift(a), w -> w - a), and a monomial
    c*x^m, as (P -> c*x^m * P, w -> w)."""
    a = rand_point(rng, n)
    M = LaurentPoly.monomial(n, [rng.randint(-3, 3) for _ in range(n)], Fraction(rng.randint(-9, 9), 2))
    return [
        (lambda P: P.shift(a), lambda w: tuple(x - y for x, y in zip(w, a))),
        (lambda P: M * P, lambda w: w),
    ]


class TestEqualityMetamorphic:
    """fn_eq is unchanged by a transform applied to both sides, and a
    witness moved by the same transform still separates."""

    def check(self, rng, P, Q):
        w = fn_witness(P, Q)
        equal = w is None
        ws = fn_witness(Q, P)
        assert (ws is None) == equal
        if not equal:
            assert P.eval(w) != Q.eval(w) and P.eval(ws) != Q.eval(ws)
        for f, g in _transforms(rng, P.num_vars):
            fP, fQ = f(P), f(Q)
            assert fn_eq(fP, fQ) == equal
            if not equal:
                assert fP.eval(g(w)) != fQ.eval(g(w))
        return equal

    def test_fixed_seed_sweep(self):
        rng = random.Random(2071)
        equal = 0
        for k in range(600):
            n = 1 + k % 3
            P, Q = shared_pair(rng, n) if k % 2 else (rand_poly(rng, n), rand_poly(rng, n))
            equal += self.check(rng, P, Q)
        assert 50 < equal < 550

    @given(polys(num_vars=2), polys(num_vars=2), st.randoms(use_true_random=False))
    def test_random(self, P, Q, rng):
        self.check(rng, P, Q)


class TestGerm:
    def test_known_localization(self):
        g = germ_localize(P0, (0, 0))
        assert g.grade == 3
        assert poly_to_text(g.part.poly) == "x + x*y"
        assert germ_localize(LaurentPoly.zero(2), (0, 0)) == TEXT_BOTTOM

    @given(polys(num_vars=2), polys(num_vars=2), points2)
    def test_homomorphism(self, P, Q, p):
        assert germ_localize(P + Q, p) == text_add(germ_localize(P, p), germ_localize(Q, p))
        assert germ_localize(P * Q, p) == text_mul(germ_localize(P, p), germ_localize(Q, p))

    @given(polys(num_vars=2), points2)
    def test_grade_is_value(self, P, p):
        assert germ_localize(P, p).grade == P.eval(p)

    def test_germ_eq_vs_fn_eq(self):
        P = parse_poly_text("0 + 1*x")
        Q = parse_poly_text("1*x", 1)
        # at p = 2 the x-term dominates both: same germ, different functions
        assert germ_eq(P, Q, (2,))
        assert not fn_eq(P, Q)
        # at p = -2 the constant term of P wins
        assert not germ_eq(P, Q, (-2,))

    def test_germ_eq_matches_localization_sweep(self):
        # in half the pairs Q is P's initial form at p plus terms whose value
        # there is P(p), which can change the germ, or below it, which cannot
        rng = random.Random(4242)
        equal = 0
        for k in range(1500):
            n = 1 + k % 3
            p = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))
            P = rand_poly(rng, n) if k % 7 else LaurentPoly.zero(n)
            if k % 2 and P:
                top = P.eval(p)
                items = list(P.initial_form(p).terms)
                for _ in range(rng.randint(0, 3)):
                    u = tuple(rng.randint(-3, 3) for _ in range(n))
                    items.append((u, top - sum(x * y for x, y in zip(u, p)) - rng.randint(0, 1)))
                Q = LaurentPoly.make(n, items)
            else:
                Q = rand_poly(rng, n) if k % 5 else LaurentPoly.zero(n)
            got = germ_eq(P, Q, p)
            assert got == (germ_localize(P, p) == germ_localize(Q, p)), (P, Q, p)
            assert germ_eq(Q, P, p) == got
            equal += got
        assert equal > 300

    @given(tie_prone_polys(max_vars=3).flatmap(lambda P: st.tuples(
        st.just(P),
        points(P.num_vars),
        st.lists(st.sampled_from((None, -1, 0, 0, 1)), min_size=len(P.terms), max_size=len(P.terms)),
    )))
    def test_germ_eq_matches_localization(self, case):
        # Q is P with each term dropped (None) or its coefficient moved, so
        # the pair is often bottom on a side and often ties at p
        P, p, moves = case
        Q = LaurentPoly.make(P.num_vars, [(u, c + d) for (u, c), d in zip(P.terms, moves) if d is not None])
        for A in (P, LaurentPoly.zero(P.num_vars)):
            assert germ_eq(A, Q, p) == (germ_localize(A, p) == germ_localize(Q, p))

    def test_germ_eq_bottom_and_lengths(self):
        bottom, one = LaurentPoly.zero(2), LaurentPoly.one(2)
        assert germ_eq(bottom, bottom, (0, 0))
        assert not germ_eq(bottom, one, (0, 0)) and not germ_eq(one, bottom, (0, 0))
        for A, B in ((bottom, bottom), (bottom, one), (one, one)):
            with pytest.raises(DimensionMismatch):
                germ_eq(A, B, (0,))
        with pytest.raises(DimensionMismatch):
            germ_eq(one, LaurentPoly.one(3), (0, 0))

    def test_germ_eq_pinned(self):
        # 1,500 pairs: a bottom side; P plus a monomial whose value at p is
        # P(p) - 1, P(p) or P(p) + 1; or two random polynomials.  The digest
        # pins the answers.
        rng = random.Random(3537)
        answers = []
        for k in range(1500):
            n = 1 + k % 3
            p = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))
            P, kind = rand_poly(rng, n), k % 5
            if kind == 0:
                bottom = LaurentPoly.zero(n)
                P, Q = rng.choice(((bottom, P), (P, bottom), (bottom, bottom)))
            elif kind == 4:
                Q = rand_poly(rng, n)
            else:
                u = tuple(rng.randint(-3, 3) for _ in range(n))
                c = P.eval(p) - sum(x * y for x, y in zip(u, p)) + kind - 2
                Q = P + LaurentPoly.make(n, [(u, c)])
            answers.append(germ_eq(P, Q, p))
        assert 350 < sum(answers) < 500
        assert hashlib.sha256(bytes(answers)).hexdigest() == "84d4e5831bd14d4b87ab4e52d14d1f8b87a3447c98d66def5636371d83a74fb0"

    def test_safe_radius_soundness(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(80):
            P = rand_poly(rng, 2, max_terms=6)
            p = rand_point(rng, 2)
            r = germ_safe_radius(P, p)
            assert r > 0
            ini = P.initial_form(p)
            for _ in range(20):
                # random rational q with |q - p|_1 < r
                q = tuple(
                    c + Fraction(rng.randint(-99, 99), 100) * r / 2 for c in p
                )
                assert sum(abs(a - b) for a, b in zip(q, p)) < r
                assert P.eval(q) == ini.eval(q)
                checked += 1
        assert checked

    def test_safe_radius_monomial_is_unbounded_choice(self):
        # single-term polynomials agree with their initial form globally;
        # any positive radius is sound
        assert germ_safe_radius(LaurentPoly.monomial(2, (1, 1), 0), (0, 0)) > 0


class TestTextFormat:
    def test_round_trip_examples(self):
        for s, back in [
            ("1 + 3*x^1 + 2*y^1 + 3*x^1*y^1", "1 + 2*y + 3*x + 3*x*y"),
            ("-inf", "-inf"),
            ("0", "0"),
            ("x^-2*y^3", "x^-2*y^3"),
            ("1/2*x", "1/2*x"),
            ("3*x1^2*x2 + x3", "z + 3*x^2*y"),
            ("2*2*x*x", "4*x^2"),
        ]:
            assert poly_to_text(parse_poly_text(s)) == back

    def test_round_trip_random(self):
        rng = random.Random(13)
        for _ in range(150):
            P = rand_poly(rng, rng.randint(1, 4))
            assert parse_poly_text(poly_to_text(P), P.num_vars) == P

    def test_aliases_and_indexed_names(self):
        assert parse_poly_text("x5^2", 5).support() == ((0, 0, 0, 0, 2),)
        P = parse_poly_text("w", 4)
        assert P.support() == ((0, 0, 0, 1),)

    def test_duplicate_exponents_combine_by_max(self):
        assert parse_poly_text("1*x + 3*x", 1) == parse_poly_text("3*x", 1)

    def test_parse_errors(self):
        for bad in ["", "  ", "x +", "foo", "x^a", "x0", "x^1.5", "1 ++ 2", "x6"]:
            with pytest.raises(ParseError):
                parse_poly_text(bad, 5 if bad == "x6" else None)

    def test_five_vars_print_indexed(self):
        P = LaurentPoly.monomial(5, (1, 0, 0, 0, 2), 0)
        assert poly_to_text(P) == "x1*x5^2"

    def test_parse_point(self):
        assert parse_point("1/2, -3") == (Fraction(1, 2), Fraction(-3))
        with pytest.raises(ParseError):
            parse_point("1, x")
        with pytest.raises(ParseError):
            parse_point("1, 2", 3)


class TestJson:
    def test_round_trip(self):
        rng = random.Random(17)
        for _ in range(80):
            P = rand_poly(rng, rng.randint(1, 3))
            assert poly_from_json(poly_to_json(P)) == P

    def test_empty(self):
        obj = poly_to_json(LaurentPoly.zero(2))
        assert obj["terms"] == []
        assert poly_from_json(obj) == LaurentPoly.zero(2)

    def test_bad_objects(self):
        with pytest.raises(ParseError):
            poly_from_json({"vars": 1})
        with pytest.raises(ParseError):
            poly_from_json({"vars": 1, "terms": [{"coeff": "x", "exp": [1]}]})
        with pytest.raises(ParseError):
            poly_from_json({"vars": 2, "terms": [{"coeff": "0", "exp": [1]}]})
