import hashlib
import json
import math
import operator
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    minor_divisor_factors,
    per_ray_membership,
    rand_balanced_fan,
    rand_boolean_poly,
    rand_matrix,
    rand_morphism,
    rand_unbalanced_fan,
    rand_unimodular,
    tableau,
    weighted_values,
)
from tropfan import _lp, evalmap
from tropfan import (
    NEG_INF,
    BadParameters,
    DimensionMismatch,
    IntMatrix,
    LaurentPoly,
    NonBooleanInput,
    NotBalanced,
    NotRealizable,
    ParseError,
    RayFunction,
    WeightedFan,
    complete_unimodular,
    eval_map,
    degree,
    fn_eq,
    generator_matrix,
    image_membership,
    is_realizable,
    is_smooth,
    ker_eq,
    lattice_solve,
    linear_relations,
    parse_poly_text,
    pullback_evalmap,
    pullback_poly,
    reconstruct_fan,
    standard_model,
)

L23 = standard_model(2, 3)
Y = WeightedFan.build(2, [((1, 2), 1), ((3, 1), 1), ((-4, -3), 1)])
Z = WeightedFan.build(2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)])


class TestRayFunction:
    def test_basic(self):
        F = RayFunction(L23, (0, 1, 1))
        assert F.degree() == 2
        assert F[0] == 0
        bot = RayFunction(L23, None)
        assert bot.is_bottom and bot.degree() is NEG_INF and bot[0] is NEG_INF
        assert degree(bot) is NEG_INF

    @pytest.mark.parametrize("index, error", [(99, IndexError), ("a", TypeError), (1.5, TypeError)])
    def test_bottom_takes_the_indices_of_any_function(self, index, error):
        # the bottom answered -inf to any index
        for F in (RayFunction(L23, (0, 1, 1)), RayFunction(L23, None)):
            with pytest.raises(error):
                F[index]  # noqa: B018
        assert RayFunction(L23, None)[-3] is NEG_INF

    def test_length_checked(self):
        with pytest.raises(DimensionMismatch):
            RayFunction(L23, (1, 2))

    def test_json(self):
        F = RayFunction(L23, (0, 1, 1))
        obj = F.to_json()
        assert obj == {"rays": ["(-1,-1)", "(0,1)", "(1,0)"], "values": [0, 1, 1]}
        assert RayFunction.from_json(L23, obj) == F
        bot = RayFunction(L23, None)
        assert RayFunction.from_json(L23, bot.to_json()) == bot
        with pytest.raises(ParseError):
            RayFunction.from_json(L23, {"values": [1, "-inf", 0]})
        with pytest.raises(ParseError):
            RayFunction.from_json(L23, {"rays": ["(0,1)"], "values": [1]})


class TestEvalMap:
    def test_known(self):
        f = parse_poly_text("0 + x + y", 2)
        assert eval_map(L23, f).values == (0, 1, 1)
        assert eval_map(L23, LaurentPoly.zero(2)).is_bottom
        assert eval_map(L23, LaurentPoly.one(2)).values == (0, 0, 0)

    def test_weights_scale(self):
        X = WeightedFan.build(1, [((1,), 3), ((-1,), 3)])
        f = parse_poly_text("x", 1)
        assert eval_map(X, f).values == (-3, 3)

    def test_rejects_non_boolean(self):
        with pytest.raises(NonBooleanInput):
            eval_map(L23, parse_poly_text("1 + x", 2))

    def test_rejects_wrong_dim(self):
        with pytest.raises(DimensionMismatch):
            eval_map(L23, parse_poly_text("x", 1))

    def test_monoid_homomorphism(self):
        rng = random.Random(41)
        for _ in range(60):
            X = rand_balanced_fan(rng, 2)
            f = rand_boolean_poly(rng, 2)
            g = rand_boolean_poly(rng, 2)
            lhs = eval_map(X, f * g)
            rhs = tuple(a + b for a, b in zip(eval_map(X, f).values, eval_map(X, g).values))
            assert lhs.values == rhs


# ------------------------------------ eval_map against the per-ray formulas


def eval_by_laurent(X, f):
    """The weighted evaluation through the general rational evaluator,
    LaurentPoly.eval, at each direction."""
    if not f:
        return None
    return tuple(ray.weight * int(f.eval(ray.direction)) for ray in X.rays)


def rand_non_spanning_fan(rng: random.Random, n):
    """A fan in m < n dimensions placed on m random coordinates of R^n."""
    m = rng.randint(1, n - 1)
    inner = rand_balanced_fan(rng, m) if rng.random() < 0.5 else rand_unbalanced_fan(rng, m)
    return place_on_axes(inner, n, sorted(rng.sample(range(n), m)))


def place_on_axes(inner, n, axes):
    """The fan ``inner`` with its coordinates put on ``axes`` of R^n."""
    items = []
    for ray in inner.rays:
        d = [0] * n
        for a, x in zip(axes, ray.direction):
            d[a] = x
        items.append((d, ray.weight))
    return WeightedFan.build(n, items)


def rand_eval_poly(rng: random.Random, n):
    """A Boolean polynomial of 1-6 terms, each exponent small or up to 10^6
    in absolute value; sometimes the constant one or the bottom polynomial."""
    r = rng.random()
    if r < 0.05:
        return LaurentPoly.one(n)
    if r < 0.1:
        return LaurentPoly.zero(n)
    span = rng.choice([3, 10**6])
    return LaurentPoly.make(n, [(tuple(rng.randint(-span, span) for _ in range(n)), 0)
                                for _ in range(rng.randint(1, 6))])


def test_eval_map_matches_the_per_ray_formulas():
    rng = random.Random(4848)
    seen = set()
    for _ in range(2400):
        n = rng.randint(1, 5)
        kind = rng.choice(["balanced", "unbalanced", "non-spanning"] if n > 1 else ["balanced", "unbalanced"])
        if kind == "balanced":
            X = rand_balanced_fan(rng, n)
        elif kind == "unbalanced":
            X = rand_unbalanced_fan(rng, n)
        else:
            X = rand_non_spanning_fan(rng, n)
        f = rand_eval_poly(rng, n)
        got = eval_map(X, f).values
        assert got == eval_by_laurent(X, f), (X, f)
        if f:
            assert got == weighted_values(X, f.support()), (X, f)
            assert all(type(v) is int for v in got)
        seen.add(("n", n))
        seen.add(("kind", kind))
        seen.update(("weight", ray.weight) for ray in X.rays)
        seen.add(("terms", len(f.terms)))
        seen.add(("big", bool(f) and max(map(abs, got)) > 10**6))
        seen.add(("one", f == LaurentPoly.one(n)))
    assert {("n", n) for n in range(1, 6)} <= seen
    assert {("kind", k) for k in ("balanced", "unbalanced", "non-spanning")} <= seen
    assert {("weight", w) for w in (1, 2, 3)} <= seen
    assert {("terms", k) for k in range(7)} <= seen
    assert {("big", True), ("one", True)} <= seen


def test_pullback_evalmap_matches_eval_map_of_the_pullback():
    rng = random.Random(4849)
    for _ in range(300):
        mu = rand_morphism(rng)
        m = mu.target.ambient_dim
        f = rand_boolean_poly(rng, m, exp=rng.choice([3, 10**6])) if rng.random() < 0.9 else LaurentPoly.zero(m)
        got = pullback_evalmap(mu, f)
        assert got == eval_map(mu.source, pullback_poly(mu, f))
        # rho |-> w_rho * f(T d_rho), evaluated on the target side
        expected = None if not f else tuple(
            ray.weight * int(f.eval(mu.matrix.apply(ray.direction))) for ray in mu.source.rays
        )
        assert got.values == expected


class TestDegreePositivity:
    def test_monomials_have_degree_zero_on_balanced(self):
        rng = random.Random(42)
        for _ in range(40):
            X = rand_balanced_fan(rng, rng.randint(1, 3))
            exp = [rng.randint(-4, 4) for _ in range(X.ambient_dim)]
            f = LaurentPoly.monomial(X.ambient_dim, exp, 0)
            assert eval_map(X, f).degree() == 0

    def test_degree_positive_otherwise(self):
        rng = random.Random(43)
        for _ in range(150):
            X = rand_balanced_fan(rng, rng.randint(1, 3))
            f = rand_boolean_poly(rng, X.ambient_dim)
            d = eval_map(X, f).degree()
            assert d >= 0
            is_mono = any(
                fn_eq(f, LaurentPoly.monomial(X.ambient_dim, u, 0)) for u in f.support()
            )
            assert (d == 0) == is_mono


class TestGeneratorMatrix:
    def test_columns_are_weighted_directions(self):
        M = generator_matrix(Y)
        assert M.data == ((-4, 1, 3), (-3, 2, 1))

    def test_realizability_conditions(self):
        assert is_realizable(generator_matrix(L23))
        # nonzero row sum
        assert not is_realizable(IntMatrix.from_rows([[1, 0], [0, 1]]))
        # zero column
        assert not is_realizable(IntMatrix.from_rows([[1, -1, 0], [1, -1, 0]]))
        # proportional columns (same primitive direction)
        assert not is_realizable(IntMatrix.from_rows([[1, 2, -3], [1, 2, -3]]))

    def test_reconstruct_round_trip(self):
        rng = random.Random(44)
        for _ in range(120):
            X = rand_balanced_fan(rng, rng.randint(1, 4))
            assert reconstruct_fan(generator_matrix(X)) == X

    def test_reconstruct_rejects(self):
        with pytest.raises(NotRealizable):
            reconstruct_fan(IntMatrix.from_rows([[1, 0], [0, 1]]))


class TestKernel:
    def test_ker_eq_matches_function_equality_on_support(self):
        rng = random.Random(45)
        eq = ne = 0
        for _ in range(150):
            X = rand_balanced_fan(rng, 2)
            f = rand_boolean_poly(rng, 2)
            if rng.random() < 0.4:
                g = f * LaurentPoly.one(2) if rng.random() < 0.5 else f
            else:
                g = rand_boolean_poly(rng, 2)
            same = ker_eq(X, f, g)
            # oracle: agreement at t*d for t in {1, 2, 7} on every ray
            agree = all(
                f.eval([t * c for c in r.direction]) == g.eval([t * c for c in r.direction])
                for r in X.rays
                for t in (1, 2, 7)
            )
            assert same == agree
            eq += same
            ne += not same
        assert eq and ne

    def test_ker_eq_nontrivial_pair(self):
        # x*y is dominated on every ray of L23 but not on all of the plane
        f = parse_poly_text("0 + x + y", 2)
        g = parse_poly_text("0 + x + y + x*y", 2)
        assert ker_eq(L23, f, g)
        assert not fn_eq(f, g)

    def test_ker_eq_is_eval_map_equality(self):
        rng = random.Random(46)
        for _ in range(100):
            X = rand_balanced_fan(rng, 2)
            f = rand_boolean_poly(rng, 2)
            g = rand_boolean_poly(rng, 2)
            assert ker_eq(X, f, g) == (eval_map(X, f) == eval_map(X, g))

    def test_linear_relations(self):
        rels = linear_relations(generator_matrix(L23))
        M = generator_matrix(L23)
        for rel in rels:
            for i in range(M.rows):
                assert sum(Fraction(M.data[i][j]) * rel[j] for j in range(M.cols)) == 0
        assert len(rels) == 1  # 3 rays in rank-2 ambient

    def test_linear_relations_are_an_integer_lattice_basis(self):
        # 2a + 3b = 0: the relation lattice is Z(3, -2), not Q(-3/2, 1)
        rels = linear_relations(IntMatrix.from_rows([[2, 3]]))
        assert rels in ([(3, -2)], [(-3, 2)])
        assert all(type(x) is int for x in rels[0])
        assert linear_relations(IntMatrix.identity(3)) == []
        rng = random.Random(47)
        for _ in range(60):
            m, n = rng.randint(1, 4), rng.randint(1, 5)
            M = rand_matrix(rng, m, n, -3, 3)
            rels = linear_relations(M)
            assert all(M.apply(rel) == (0,) * m for rel in rels)
            # saturated: the relations extend to a unimodular matrix
            if rels:
                complete_unimodular(IntMatrix.from_rows(list(zip(*rels))))
            assert len(rels) == n - len(minor_divisor_factors([list(r) for r in M.data]))

    def test_linear_relations_pinned(self):
        # a basis of the relations is not unique, so only a digest shows that
        # the one returned did not move: 1,500 matrices up to 7 x 9
        rng = random.Random(3535)
        out = [linear_relations(rand_matrix(rng, rng.randint(1, 7), rng.randint(1, 9), -4, 4))
               for _ in range(1500)]
        assert sum(map(len, out)) > 2000
        digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
        assert digest == "092b33e0cedcc2a11cfe8f827c11d291bda54f6fc566e9b68eeec7a7108b7692"


class TestSmoothness:
    def test_standard_models_smooth(self):
        for n in range(1, 5):
            for r in range(2, n + 2):
                rep = is_smooth(standard_model(n, r))
                assert rep.smooth and rep.reason is None

    def test_lattice_index_obstruction(self):
        rep = is_smooth(Y)
        assert not rep.smooth
        assert rep.reason == "lattice index 5"

    def test_rank_obstruction(self):
        rep = is_smooth(Z)
        assert not rep.smooth
        assert rep.reason == "rank 2 < 3"

    def test_weight_obstruction(self):
        X = WeightedFan.build(1, [((1,), 2), ((-1,), 2)])
        rep = is_smooth(X)
        assert not rep.smooth
        assert rep.reason == "weight 2 on ray (1)" or rep.reason == "weight 2 on ray (-1)"

    def test_unbalanced_rejected(self):
        with pytest.raises(NotBalanced):
            is_smooth(WeightedFan.build(2, [((1, 0), 1), ((0, 1), 1)]))

    def test_unimodular_image_of_L23_is_smooth(self):
        # push L23 through an invertible integer map with |det| = 1
        T = IntMatrix.from_rows([[2, 1], [1, 1]])
        gens = [T.apply(r.direction) for r in standard_model(2, 3).rays]
        X = WeightedFan.build(2, [(g, 1) for g in gens])
        assert is_smooth(X).smooth


# ------------------------------ smoothness against the determinantal divisors


def reference_smoothness(X):
    """(smooth, reason) from the invariant factors of the n x (k-1)
    generator matrix with the lex-last ray dropped, read off its minors:
    the first weight other than 1, then the rank as the number of factors,
    then the index as their product."""
    for ray in X.rays:
        if ray.weight != 1:
            return False, f"weight {ray.weight} on ray {ray.label()}"
    k = len(X.rays)
    factors = minor_divisor_factors([list(row[:-1]) for row in generator_matrix(X).data])
    if len(factors) < k - 1:
        return False, f"rank {len(factors)} < {k - 1}"
    index = math.prod(factors)
    return (True, None) if index == 1 else (False, f"lattice index {index}")


def rand_smoothness_fan(rng: random.Random, n):
    """A balanced fan in R^n: random with its drawn generators scaled by 1
    or 2, a standard model, such a random fan on fewer coordinates, or a
    unimodular image of a random one."""
    kind = rng.choice(["random", "model", "non-spanning", "image"])
    if kind == "non-spanning" and n > 1:
        m = rng.randint(1, n - 1)
        return place_on_axes(rand_balanced_fan(rng, m, max_weight=2), n, sorted(rng.sample(range(n), m)))
    if kind == "model":
        return standard_model(n, rng.randint(2, n + 1))
    X = rand_balanced_fan(rng, n, max_weight=rng.randint(1, 2))
    if kind == "image":
        T = rand_unimodular(rng, n)
        # T keeps each generator's gcd, so the weights do not change
        X = WeightedFan.build(n, [(T.apply(ray.generator), 1) for ray in X.rays])
    return X


def exhaustive_balanced_fans(n, box, max_rays, weighted_rays):
    """Every balanced fan in R^n on distinct primitive directions in
    [-box, box]^n with 2..max_rays rays, weights 1 or 2 on fans of at most
    ``weighted_rays`` rays and 1 on the rest."""
    dirs = [d for d in product(range(-box, box + 1), repeat=n) if any(d) and math.gcd(*d) == 1]
    fans = []
    for k in range(2, max_rays + 1):
        for rays in combinations(dirs, k):
            for weights in product((1, 2), repeat=k) if k <= weighted_rays else [(1,) * k]:
                if not any(map(sum, zip(*[[w * x for x in d] for w, d in zip(weights, rays)]))):
                    fans.append(WeightedFan.build(n, zip(rays, weights)))
    return fans


class TestSmoothnessAgainstMinors:
    @staticmethod
    def check(fans):
        """Compare every answer with the reference, and return the first
        words of the reasons given (None for a smooth fan)."""
        reasons = set()
        for X in fans:
            rep = is_smooth(X)
            assert (rep.smooth, rep.reason) == reference_smoothness(X), X
            reasons.add(rep.reason.split()[0] if rep.reason else None)
        return reasons

    def test_random_fans(self):
        rng = random.Random(2626)
        fans = [rand_smoothness_fan(rng, rng.randint(1, 5)) for _ in range(3000)]
        assert self.check(fans) == {None, "weight", "rank", "lattice"}

    @pytest.mark.parametrize("n, box, max_rays, weighted_rays, count, kinds", [
        (2, 2, 5, 4, 520, {None, "weight", "rank", "lattice"}),
        (3, 1, 5, 0, 987, {None, "rank", "lattice"}),
    ])
    def test_every_small_fan(self, n, box, max_rays, weighted_rays, count, kinds):
        fans = exhaustive_balanced_fans(n, box, max_rays, weighted_rays)
        assert len(fans) == count
        assert self.check(fans) == kinds


def f3_non_member(X, reason):
    """F3's non-member of the balanced fan X that is not smooth for
    ``reason``: e_a - e_b for a ray a of weight other than 1, whose value 1
    is off its weight; otherwise the first e_a - e_last, of degree 0,
    outside the lattice L of the monomials' values, which by rank or index
    is smaller than the degree-0 lattice these generate."""
    k = len(X.rays)
    if reason.startswith("weight"):
        a = next(i for i, ray in enumerate(X.rays) if ray.weight != 1)
        return tuple(int(i == a) - int(i == (a + 1) % k) for i in range(k))
    values = generator_matrix(X).transpose()  # values . z: the ray values of x^z
    for a in range(k - 1):
        G = tuple(int(i == a) - int(i == k - 1) for i in range(k))
        if lattice_solve(values, G) is None:
            return G
    raise AssertionError(f"{reason}, yet L is the degree-0 lattice")


def test_smoothness_matches_membership():
    # By F2 and F3 a balanced fan is smooth iff every integer ray function
    # of degree >= 0 is a member; F3's non-members of a fan that is not
    # smooth have degree 0 and entries in [-2, 2].  So is_smooth and
    # image_membership, two engines, must agree on every fan about the
    # functions of degree 0 or 1 in [-2, 2]^k, and F3's non-member for the
    # reason is_smooth gives is refused.
    rng = random.Random(2525)
    reasons = {}
    for k in range(1200):
        X = rand_balanced_fan(rng, 1 + k % 4, max_weight=1)
        rep = is_smooth(X)
        box = (G for G in product(range(-2, 3), repeat=len(X.rays)) if sum(G) in (0, 1))
        members = all(image_membership(X, RayFunction(X, G)) is not None for G in box)
        assert members == rep.smooth, (X, rep)
        if not rep.smooth:
            G = f3_non_member(X, rep.reason)
            assert image_membership(X, RayFunction(X, G)) is None, (X, rep, G)
        kind = rep.reason.split()[0] if rep.reason else None
        reasons[kind] = reasons.get(kind, 0) + 1
    assert reasons.keys() == {None, "weight", "rank", "lattice"} and min(reasons.values()) > 50, reasons


class TestMembership:
    def test_members_get_verified_witnesses(self):
        rng = random.Random(47)
        for _ in range(40):
            f = rand_boolean_poly(rng, 2, max_terms=4, exp=3)
            G = eval_map(L23, f)
            w = image_membership(L23, G)
            assert w is not None
            assert eval_map(L23, w) == G

    def test_bottom_is_member(self):
        w = image_membership(L23, RayFunction(L23, None))
        assert w is not None and not w

    def test_proven_non_member(self):
        G = RayFunction(Y, (1, 0, -1))  # needs z = (-2/5, 1/5): no integer point
        assert image_membership(Y, G) is None

    def test_bound_does_not_decide(self):
        # the exponent -100 lies far outside a box of 0, 10 or 64
        X = WeightedFan.build(1, [((1,), 1), ((-1,), 1)])
        G = RayFunction(X, (100, -100))
        for bound in (0, 10, 64):
            assert parse_poly_text("x^-100", 1) == image_membership(X, G, bound=bound)

    def test_wrong_fan(self):
        with pytest.raises(DimensionMismatch):
            image_membership(L23, RayFunction(Y, (1, 0, -1)))

    @pytest.mark.parametrize("n, rays, values, bound", [
        (5, [((0, 0, 0, 0, 1), 2), ((0, 0, 0, 0, -1), 2)], (1, 1), 16),
        (4, [((0, 0, 0, 1), 2), ((0, 0, 0, -1), 2)], (1, 1), 64),
        (4, [((-5, 3, 2, -3), 1), ((0, -1, 2, 1), 1), ((0, 0, -1, -1), 3), ((1, -2, 1, 1), 3),
             ((1, 2, -2, 1), 2)], (17, 5, 7, 12, 2), 64),
    ])
    def test_off_weight_values_are_proven_at_once(self, n, rays, values, bound, monkeypatch):
        # these ran for seconds and ended Inconclusive before the weight test;
        # now the answer comes before any search
        def no_search(plan, rhs):
            raise AssertionError("searched for an exponent")
        monkeypatch.setattr(_lp, "integer_point_search", no_search)
        X = WeightedFan.build(n, rays)
        assert image_membership(X, RayFunction(X, values), bound=bound) is None

    @pytest.mark.parametrize("n, rays, values", [
        (2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)], (-1, 0, 0)),
        (2, [((1, 2), 1), ((3, 1), 1), ((-4, -3), 1)], (0, -1, 0)),
        (2, [((1, 0), 2), ((-1, 0), 2), ((0, 1), 1), ((0, -1), 1)], (-2, 0, 3, -4)),
        (2, [((0, 1), 2), ((0, -1), 2)], (-2, 0)),
        (3, [((0, 1, 2), 1), ((0, 3, 1), 1), ((0, -4, -3), 1)], (-1, 0, 0)),
    ])
    def test_negative_degree_on_a_balanced_fan_is_proven_at_once(self, n, rays, values, monkeypatch):
        # the values of any term sum to 0 on a balanced fan, so no search
        # can succeed; the last two fans do not span
        def no_search(plan, rhs):
            raise AssertionError("searched for an exponent")
        monkeypatch.setattr(_lp, "integer_point_search", no_search)
        X = WeightedFan.build(n, rays)
        assert image_membership(X, RayFunction(X, values)) is None

    def test_negative_degree_off_balance_is_searched(self):
        X = WeightedFan.build(2, [((1, 0), 1), ((0, 1), 1)])
        G = RayFunction(X, (-1, -1))
        w = image_membership(X, G)
        assert w is not None and eval_map(X, w) == G

    def test_witness_skips_rays_already_tight(self):
        # x^0 is tight on every ray of L23 at the values 0, 0, 0
        w = image_membership(L23, RayFunction(L23, (0, 0, 0)))
        assert [u for u, _ in w.terms] == [(0, 0)]

    @pytest.mark.parametrize("bad, error", [
        pytest.param((0, 0), AssertionError, id="term-dropped"),  # 0 < 1 at the ray (0,1)
        pytest.param((2, -1), AssertionError, id="overshoots"),  # 2 > 1 at the ray (1,0)
        pytest.param((1, -1), AssertionError, id="repeated"),  # -1 < 1 at the ray (0,1)
    ])
    def test_a_faulty_search_never_yields_a_witness(self, bad, error, monkeypatch):
        # L23 at (0, 1, 1): the first ray, (-1,-1), gets (1,-1), tight at
        # (1,0) too; the second exponent, at (0,1), is replaced by a faulty one
        search = evalmap._tight_exponent
        calls = []

        def faulty(gens, values, a):
            z = search(gens, values, a)
            calls.append(z)
            return bad if len(calls) == 2 else z

        monkeypatch.setattr(evalmap, "_tight_exponent", faulty)
        with pytest.raises(error, match="witness must reproduce the input"):
            image_membership(L23, RayFunction(L23, (0, 1, 1)))
        assert calls == [(1, -1), (1, 1)]

    @pytest.mark.parametrize("step", [-1, 3, -7])
    def test_a_faulty_integer_point_never_yields_a_witness(self, step, monkeypatch):
        # the search at (0,1), the second, has one variable w, whose tight
        # exponents (-1 - w, 1) meet every ray for w in -2..0 only; it
        # returns -2, and a w moved past either end is above a value at
        # some ray
        search = _lp.integer_point_search
        calls = []

        def faulty(plan, rhs):
            w, truncated = search(plan, rhs)
            calls.append(w)
            return (w if len(calls) == 1 else (w[0] + step,)), truncated

        monkeypatch.setattr(_lp, "integer_point_search", faulty)
        with pytest.raises(AssertionError, match="reproduce"):
            image_membership(L23, RayFunction(L23, (0, 1, 1)))
        assert calls == [(-1,), (-2,)]

    def test_smooth_fan_member_gets_a_witness(self):
        # a member of a smooth fan whose smallest witness exponent has a
        # coordinate of 65, one past the default search box
        X = WeightedFan.build(4, [((-1, 0, -2, 0), 1), ((-1, 0, 2, -1), 1), ((-1, 2, 1, -1), 1),
                                  ((1, -1, -2, 1), 1), ((2, -1, 1, 1), 1)])
        assert is_smooth(X).smooth
        G = RayFunction(X, (-5, 4, 2, 4, -5))
        w = image_membership(X, G)
        assert w is not None and eval_map(X, w) == G

    @pytest.mark.parametrize("values", [(1, 0, -1), (-3, 1, 3)])
    def test_embedded_y_fan_non_members_are_proven(self, values):
        # the Y fan behind three zero coordinates: its rays do not span, and
        # the free coordinates used to be enumerated box-wide before an
        # Inconclusive (about 0.15 s at bound 16, 13.8 s at bound 64)
        X = WeightedFan.build(5, [((0, 0, 0) + r.direction, 1) for r in Y.rays])
        assert [r.direction[3:] for r in X.rays] == [r.direction for r in Y.rays]
        assert image_membership(X, RayFunction(X, values), bound=16) is None

    def test_a_single_ray_frees_every_row(self):
        # one ray: the other rows are none, and the free coordinate is set
        X = WeightedFan.build(2, [((1, 2), 3)])
        _, kept, plan, dropped, _ = evalmap._tight_search((X.rays[0].generator,), 0)
        assert (kept, plan.levels, dropped) == ((), (), ())
        w = image_membership(X, RayFunction(X, (6,)))
        assert w is not None and eval_map(X, w).values == (6,)

    def test_rays_in_one_half_space_drop_rows(self):
        # every ray has a positive first coordinate; along the line of each
        # outermost ray, (1,-2) and (1,3), one direction lowers the value of
        # every other ray, and the inner rays (1,0) and (2,1) see rays on
        # both sides and keep every row
        X = WeightedFan.build(2, [((1, 0), 1), ((1, 3), 1), ((1, -2), 2), ((2, 1), 1)])
        gens = tuple(r.generator for r in X.rays)
        assert [r.direction for r in X.rays] == [(1, -2), (1, 0), (1, 3), (2, 1)]
        records = [evalmap._tight_search(gens, a) for a in range(4)]
        counts = [(len(kept), len(plan.levels), len(dropped)) for _, kept, plan, dropped, _ in records]
        assert counts == [(0, 0, 3), (3, 1, 0), (0, 0, 3), (3, 1, 0)]
        for terms in [[(0, 0)], [(5, -7), (4, 100)], [(-9, -9), (-8, 9), (3, 0)]]:
            G = RayFunction(X, weighted_values(X, terms))
            w = image_membership(X, G)
            assert w is not None and eval_map(X, w) == G

    def test_a_balanced_fan_asks_no_lp(self, monkeypatch):
        # the rows of a balanced fan sum to 0, so none is ever dropped
        def no_lp(*args):
            raise AssertionError("asked an LP")
        monkeypatch.setattr(_lp, "find_point", no_lp)
        X = WeightedFan.build(3, [((1, 2, 0), 1), ((3, 1, 0), 1), ((-4, -3, 0), 1)])
        assert image_membership(X, RayFunction(X, (1, 0, -1))) is None
        assert image_membership(X, RayFunction(X, (1, 2, 3))) is not None

    @staticmethod
    def count_lps(monkeypatch):
        """Clear the search cache and record (g_a, strict row) per LP asked,
        from the rows of each tableau built."""
        real, asked = _lp.Tableau, []

        def counted(rows, n):
            asked.append((rows[0][0], rows[-1][0]))
            return real(rows, n)

        monkeypatch.setattr(_lp, "Tableau", counted)
        evalmap._tight_search.cache_clear()
        return asked

    def test_drop_rounds_ask_few_lps(self, monkeypatch):
        # one LP per undecided row asked 12,350 on these 5,636 (fan, ray)
        # pairs; a round over all the undecided rows asks fewer, and never
        # one whose strict row lies along g_a, which no y with g_a . y = 0
        # meets.  The kept rays are pinned: the implicit equalities of the
        # cone, whichever rule finds them
        asked = self.count_lps(monkeypatch)
        rng, kept = random.Random(5), {}
        for _ in range(2000):
            X = rand_unbalanced_fan(rng, rng.randint(2, 4))
            gens = tuple(ray.generator for ray in X.rays)
            for a in range(len(gens)):
                if (gens, a) not in kept:
                    kept[gens, a] = [b for b, _ in evalmap._tight_search(gens, a)[1]]
        assert len(kept) == 5636 and len(asked) <= 9000
        assert not any(all(g[i] * s[j] == g[j] * s[i] for i in range(len(g)) for j in range(i)) for g, s in asked)
        digest = hashlib.sha256(json.dumps(list(kept.values())).encode()).hexdigest()
        assert digest == "6606e95b4043165661e7a0762c146f5c32a4277e58a709b1f4c7c341960b0663"

    def test_drop_lp_records_pinned(self):
        # no benchmark workload reaches the drop LPs, since every fan it
        # asks about is balanced; so the whole search record of every ray of
        # 600 unbalanced fans is pinned, the y each drop LP finds included
        rng, records, dropping = random.Random(3434), 0, 0
        digest = hashlib.sha256()
        for _ in range(600):
            X = rand_unbalanced_fan(rng, rng.randint(2, 4))
            gens = tuple(ray.generator for ray in X.rays)
            for a in range(len(gens)):
                record = evalmap._tight_search(gens, a)
                records += 1
                dropping += bool(record[3])
                digest.update(repr(record).encode())
        assert (records, dropping) == (1713, 1180)
        assert digest.hexdigest() == "3c33f15d6c7004f815d93f6d9e9f296f843c3dd1a84e31a01f30724f39b5ffd2"

    def test_pinned_record_digest(self):
        # the search record of every ray of 300 balanced, unbalanced and
        # non-spanning fans: lift, kept and the plan are read off the column
        # HNF, so a change to how that transform is read shows here.  The
        # plan's guards come from a set and are hashed sorted
        rng, records = random.Random(4343), 0
        digest = hashlib.sha256()
        for _ in range(300):
            draw = rng.choice([rand_balanced_fan, rand_unbalanced_fan, rand_non_spanning_fan])
            X = draw(rng, rng.randint(2, 4))
            gens = tuple(ray.generator for ray in X.rays)
            for a in range(len(gens)):
                lift, kept, plan, dropped, free = evalmap._tight_search(gens, a)
                digest.update(repr((lift, kept, sorted(plan.guards), plan.levels, dropped, free)).encode())
                records += 1
        assert records == 938
        assert digest.hexdigest() == "dfc5cff76389955d3a12d3ed52f7310dcf7fa1872606d6b187c8e35122e40f86"

    def test_one_lp_decides_each_ray_of_a_three_ray_fan(self, monkeypatch):
        # at (-2,0) and (1,0) the LP drops (0,1), and the sum left lies along
        # g_a; at (0,1) one infeasible LP keeps both other rows at once
        asked = self.count_lps(monkeypatch)
        X = WeightedFan.build(2, [((1, 0), 1), ((-1, 0), 2), ((0, 1), 1)])
        gens = tuple(ray.generator for ray in X.rays)
        assert gens == ((-2, 0), (0, 1), (1, 0))
        records = [(((2, -1),), ((1, 1),), (0, -1)), (((0, 0), (2, 0)), (), (0, 0)),
                   (((0, -2),), ((1, 1),), (0, -1))]
        for a, record in enumerate(records):
            before = len(asked)
            _, kept, _, dropped, free = evalmap._tight_search(gens, a)
            assert ((kept, dropped, free), len(asked) - before) == (record, 1)

    def test_one_hnf_per_fan_and_ray(self, monkeypatch):
        # the search record at ray a is read off one column HNF of g_a over
        # the kept rays, and holds the one plan of its rows, both built once
        # and then cached
        hnf, plan, calls, plans, seen = evalmap.hnf, _lp._plan, [], [], set()

        def counted(A):
            calls.append(A)
            return hnf(A)

        def counted_plan(rows):
            plans.append(rows)
            return plan(rows)

        monkeypatch.setattr(evalmap, "hnf", counted)
        monkeypatch.setattr(_lp, "_plan", counted_plan)
        evalmap._tight_search.cache_clear()
        rng = random.Random(7373)
        for _ in range(60):
            n = rng.randint(2, 4)
            X = rng.choice([rand_balanced_fan, rand_unbalanced_fan, rand_non_spanning_fan])(rng, n)
            gens = tuple(ray.generator for ray in X.rays)
            for a in range(len(gens)):
                for _ in range(2):
                    before, plans_before = len(calls), len(plans)
                    evalmap._tight_search(gens, a)
                    miss = (gens, a) not in seen
                    assert (len(calls) - before, len(plans) - plans_before) == (miss, miss), (gens, a)
                    seen.add((gens, a))

    def test_search_cache_size_cap(self):
        # the records, each holding its plan, are the one search cache, and
        # it holds at most 1,024 of them
        info = evalmap._tight_search.cache_info()
        assert info.maxsize == 1024
        for r in range(info.maxsize + 100):
            evalmap._tight_search(((1,), (-r - 1,)), 0)
        assert evalmap._tight_search.cache_info().currsize == info.maxsize


# ------------------------------------- membership against the per-ray search


def tight_rays(X, terms):
    """For each term, the rays at which it reaches the value of the sum."""
    values = weighted_values(X, terms)
    return [{b for b, ray in enumerate(X.rays) if weighted_values(X, [u])[b] == values[b]} for u in terms]


def one_ray_each(sets):
    """True when the sets have distinct representatives (a matching)."""
    owner: dict = {}

    def place(i, seen):
        for b in sets[i] - seen:
            seen.add(b)
            if b not in owner or place(owner[b], seen):
                owner[b] = i
                return True
        return False

    return all(place(i, set()) for i in range(len(sets)))


def check_membership(X, values, bound):
    """image_membership decides every case, never Inconclusive, whatever the
    bound: as the per-ray reference does where that decides, and else
    with a verified witness, or None where the reference at a box four
    times larger finds no member either.  A witness reproduces the values,
    each term tight at some ray and at most one term per ray.
    Returns (reference outcome, outcome)."""
    G = RayFunction(X, tuple(values))
    ref, _ = per_ray_membership(X, G.values, bound)
    got = image_membership(X, G, bound=bound)
    if got is not None:
        assert ref != "non-member", (X, values, bound, got)
        assert isinstance(got, LaurentPoly) and got.is_boolean, (X, values, bound, got)
        terms = [u for u, _ in got.terms]
        # lex-sorted, distinct, every coefficient Fraction(0): the witness
        # text cannot drift from what LaurentPoly.make would give
        assert got == LaurentPoly.make(X.ambient_dim, [(u, 0) for u in terms])
        assert all(type(c) is Fraction and c == 0 for _, c in got.terms)
        assert weighted_values(X, terms) == G.values
        tight = tight_rays(X, terms)
        assert all(tight) and one_ray_each(tight), (X, values, bound, terms)
    elif ref == "member":
        raise AssertionError(("missed a member", X, values, bound))
    elif ref == "inconclusive":
        assert per_ray_membership(X, G.values, 4 * bound + 4)[0] != "member", (X, values, bound)
    return ref, "member" if got is not None else "non-member"


def rand_membership_values(rng: random.Random, X, kind):
    """Values of ``kind`` on X: a member's, a member's with one value moved
    off its ray's weight, a member's moved by a multiple of the weight to
    negative degree, or random."""
    n = X.ambient_dim
    values = list(weighted_values(X, [tuple(rng.randint(-3, 3) for _ in range(n))
                                      for _ in range(rng.randint(1, 4))]))
    heavy = [j for j, ray in enumerate(X.rays) if ray.weight > 1]
    if kind == "off_weight" and heavy:
        j = rng.choice(heavy)
        values[j] += rng.randint(1, X.rays[j].weight - 1)
    elif kind == "negative":
        j = rng.randrange(len(values))
        w = X.rays[j].weight
        values[j] -= w * (max(sum(values), 0) // w + rng.randint(1, 2))
    elif kind == "random":
        values = [rng.randint(-6, 6) for _ in values]
    return values


def test_membership_sweep():
    # bounds 0-6 leave about a tenth of the reference's answers Inconclusive;
    # image_membership raises it on none
    rng = random.Random(7070)
    seen = set()
    for _ in range(1200):
        n = rng.randint(1, 3)
        X = rand_balanced_fan(rng, n, max_rays=5) if rng.random() < 0.6 else rand_unbalanced_fan(rng, n)
        kind = rng.choice(["member", "off_weight", "negative", "random"])
        seen.add(check_membership(X, rand_membership_values(rng, X, kind), rng.choice([0, 3, 6])))
    assert {("member", "member"), ("non-member", "non-member"), ("inconclusive", "member"),
            ("inconclusive", "non-member")} <= seen


def test_balanced_witnesses_are_pinned():
    # the witnesses on balanced fans, one search per ray, digested; a change
    # of parametrisation that moves the searched w by an integer vector
    # keeps every one of them
    rng = random.Random(7474)
    out = []
    for _ in range(800):
        X = rand_balanced_fan(rng, rng.randint(1, 4), max_rays=5)
        values = rand_membership_values(rng, X, rng.choice(["member", "random"]))
        w = image_membership(X, RayFunction(X, tuple(values)))
        out.append(None if w is None else [u for u, _ in w.terms])
    assert sum(w is not None for w in out) > 300
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == "87e71673d2e6981391a089deee29173e55dcc119293216e77fd758ad80e9b0e6"


def test_member_shaped_witnesses_are_pinned():
    # the witnesses on the shapes of the benchmark's member workload: the
    # standard models L_{n,r} for n <= 4 and balanced fans of up to six
    # rays in R^3 and R^4, each at a member's values and at those values
    # translated by a monomial x^t, which moves ray b's value by
    # w_b * (t . d_b); every one is a member, and the digest pins the
    # exponents the search picks
    rng = random.Random(7676)
    fans = [standard_model(n, r) for n in range(1, 5) for r in range(2, n + 2)]
    fans += [rand_balanced_fan(rng, rng.choice([3, 4]), max_rays=6) for _ in range(150)]
    out = []
    for X in fans:
        n = X.ambient_dim
        for _ in range(4):
            values = weighted_values(X, [tuple(rng.randint(-2, 2) for _ in range(n))
                                         for _ in range(rng.randint(1, 5))])
            t = [rng.randint(-3, 3) for _ in range(n)]
            moved = tuple([v + ray.weight * sum(map(operator.mul, t, ray.direction))
                           for v, ray in zip(values, X.rays)])
            for G in (values, moved):
                w = image_membership(X, RayFunction(X, G))
                assert w is not None and weighted_values(X, w.support()) == G, (X, G)
                out.append([u for u, _ in w.terms])
    assert len(out) == 8 * len(fans)
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == "9f37c72e25bb3a5e5d4fa312ada7a85b5577781349b80ce6769a53e5573c9729"


def test_bound_changes_no_answer():
    rng = random.Random(7171)
    for _ in range(400):
        n = rng.randint(1, 3)
        X = rand_balanced_fan(rng, n, max_rays=5) if rng.random() < 0.6 else rand_unbalanced_fan(rng, n)
        G = RayFunction(X, tuple(rand_membership_values(rng, X, rng.choice(["member", "random"]))))
        answers = {image_membership(X, G, bound=bound) for bound in (0, 1, 64)}
        assert len(answers) == 1, (X, G, answers)


def check_tight_search(gens, a):
    """The search record at ray a: the lift is tight at a, the kept rays'
    values are the search rows, whose plan the record holds, ``free``
    lowers every dropped ray's value by its l_b and keeps every kept one,
    and the search rows have full column rank and bound the search
    region."""
    lift, kept, plan, dropped, free = evalmap._tight_search(gens, a)
    dot = lambda u, v: sum(x * y for x, y in zip(u, v))  # noqa: E731
    width = len(lift[0]) - 1
    assert [dot(gens[a], col) for col in zip(*lift)] == [math.gcd(*gens[a])] + [0] * width
    values = [[dot(gens[b], col) for col in zip(*lift)] for b, _ in kept]
    assert [v[0] for v in values] == [c for _, c in kept], (gens, a)
    rows = tuple([tuple(v[1:]) for v in values])
    assert plan == _lp._plan(rows)
    assert all(dot(gens[b], free) == 0 for b, _ in kept)
    assert all(dot(gens[b], free) == -l < 0 for b, l in dropped)
    assert sorted([b for b, _ in kept + dropped]) == [b for b in range(len(gens)) if b != a]
    assert len(rows) == len(kept) and all(len(row) == width for row in rows)
    if width:
        assert len(minor_divisor_factors([list(row) for row in rows])) == width
        for j in range(width):
            for sign in (1, -1):
                ray = tuple(sign * int(i == j) for i in range(width))
                assert _lp.find_point(tableau([(row, 0, False) for row in rows] + [(ray, 0, True)], width),
                                      width) is None
    return kept, dropped


def test_tight_search_invariants():
    rng = random.Random(7272)
    seen = set()
    for _ in range(500):
        n = rng.randint(1, 4)
        kind = rng.choice(["balanced", "unbalanced", "non-spanning"] if n > 1 else ["balanced", "unbalanced"])
        X = {"balanced": rand_balanced_fan, "unbalanced": rand_unbalanced_fan,
             "non-spanning": rand_non_spanning_fan}[kind](rng, n)
        gens = tuple(ray.generator for ray in X.rays)
        for a in range(len(gens)):
            kept, dropped = check_tight_search(gens, a)
            seen.add((kind, bool(kept), bool(dropped)))
            if kind == "balanced":
                assert not dropped
    assert {("balanced", True, False), ("unbalanced", True, False), ("unbalanced", True, True),
            ("unbalanced", False, True), ("non-spanning", True, False), ("non-spanning", False, True)} <= seen


@st.composite
def membership_cases(draw):
    n = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-3, 3)] * n).filter(any)
    items = draw(st.lists(st.tuples(vec, st.integers(1, 3)), min_size=1, max_size=4))
    if draw(st.booleans()):
        last = tuple(-sum(w * v[i] for v, w in items) for i in range(n))
        if any(last):
            items.append((last, 1))
    try:
        X = WeightedFan.build(n, items)
    except BadParameters:
        X = WeightedFan.build(n, items[:1])
    exponents = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=3))
    moves = draw(st.lists(st.integers(-3, 3), min_size=len(X.rays), max_size=len(X.rays)))
    values = [v + m for v, m in zip(weighted_values(X, exponents), moves)]
    return X, values, draw(st.sampled_from([0, 2, 5]))


@given(membership_cases())
def test_membership_matches_the_per_ray_search(case):
    check_membership(*case)
