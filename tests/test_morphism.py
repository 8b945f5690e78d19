import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import (
    positive_multiple,
    rand_boolean_poly,
    rand_morphism,
    rand_point,
    rand_unbalanced_fan,
    rand_unimodular,
)
from tropfan import (
    BadParameters,
    CompositionMismatch,
    DimensionMismatch,
    FanMorphism,
    HomSpec,
    IntMatrix,
    InvalidMorphism,
    LaurentPoly,
    NoIntegerSolution,
    NonBooleanInput,
    NotGeometric,
    RayFunction,
    WeightedFan,
    check_geometric,
    compose,
    eval_map,
    fn_eq,
    induced_homspec,
    parse_poly_text,
    pullback_evalmap,
    pullback_poly,
    realize_morphism,
    standard_model,
    support_contains,
    validate_morphism,
)
from tropfan import morphism
from tropfan.morphism import extract_ray_map

L23 = standard_model(2, 3)
Y = WeightedFan.build(2, [((1, 2), 1), ((3, 1), 1), ((-4, -3), 1)])
Z = WeightedFan.build(2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)])
T_LY = IntMatrix.from_rows([[1, 3], [2, 1]])


class TestValidate:
    def test_identity(self):
        assert validate_morphism(IntMatrix.identity(2), L23, L23)

    def test_L23_onto_Y(self):
        assert validate_morphism(T_LY, L23, Y)
        assert T_LY.apply((-1, -1)) == (-4, -3)

    def test_L23_into_Z_fails(self):
        assert not validate_morphism(IntMatrix.identity(2), L23, Z)

    def test_dims(self):
        with pytest.raises(DimensionMismatch):
            validate_morphism(IntMatrix.from_rows([[1, 0, 0]]), L23, Y)

    def test_constructor_enforces_support(self):
        # the message names the first ray, in sorted order, that leaves
        with pytest.raises(InvalidMorphism, match=r"^image of ray \(-1,-1\) leaves the target support$"):
            FanMorphism(L23, Z, IntMatrix.identity(2))
        with pytest.raises(DimensionMismatch):
            FanMorphism(L23, Z, IntMatrix.from_rows([[1, 0, 0]]))

    def test_collapse_to_origin_allowed(self):
        X = WeightedFan.build(1, [((1,), 1), ((-1,), 1)])
        mu = FanMorphism(X, X, IntMatrix.from_rows([[0]]))
        assert extract_ray_map(mu) == {"(1)": None, "(-1)": None}


class TestPullback:
    def test_row_substitution(self):
        mu = FanMorphism(L23, Y, T_LY)
        y1 = LaurentPoly.monomial(2, (1, 0))
        assert pullback_poly(mu, y1).support() == ((1, 3),)
        y2 = LaurentPoly.monomial(2, (0, 1))
        assert pullback_poly(mu, y2).support() == ((2, 1),)

    def test_identity_morphism(self):
        mu = FanMorphism(L23, L23, IntMatrix.identity(2))
        f = parse_poly_text("0 + x + y^2", 2)
        assert pullback_poly(mu, f) == f
        assert pullback_evalmap(mu, f) == eval_map(L23, f)

    def test_eval_identity_random(self):
        rng = random.Random(61)
        for _ in range(80):
            mu = rand_morphism(rng)
            Q = rand_boolean_poly(rng, mu.target.ambient_dim)
            p = rand_point(rng, mu.source.ambient_dim)
            Tp = tuple(
                sum(mu.matrix.data[i][j] * p[j] for j in range(mu.matrix.cols))
                for i in range(mu.matrix.rows)
            )
            assert pullback_poly(mu, Q).eval(p) == Q.eval(Tp)

    def test_commutes_with_eval_map(self):
        rng = random.Random(62)
        for _ in range(80):
            mu = rand_morphism(rng)
            f = rand_boolean_poly(rng, mu.target.ambient_dim)
            assert pullback_evalmap(mu, f) == eval_map(mu.source, pullback_poly(mu, f))

    def test_collapsed_ray_value_is_zero(self):
        X = WeightedFan.build(1, [((1,), 1), ((-1,), 1)])
        mu = FanMorphism(X, X, IntMatrix.from_rows([[0]]))
        f = parse_poly_text("x + x^-1", 1)
        assert pullback_evalmap(mu, f).values == (0, 0)

    def test_bottom_pulls_back_to_bottom(self):
        mu = FanMorphism(L23, Y, T_LY)
        assert pullback_evalmap(mu, LaurentPoly.zero(2)).is_bottom

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pullback_poly(FanMorphism(L23, Y, T_LY), LaurentPoly.zero(3))

    def test_evalmap_error_codes(self):
        # pullback_poly's check comes first, so a polynomial in the wrong
        # number of variables is dimension_mismatch even when not Boolean
        mu = FanMorphism(L23, Y, T_LY)
        for f in (LaurentPoly.zero(3), parse_poly_text("1 + x", 3)):
            with pytest.raises(DimensionMismatch, match="polynomial in 3 variables pulled back along 2 rows") as err:
                pullback_evalmap(mu, f)
            assert err.value.code == "dimension_mismatch"
        with pytest.raises(NonBooleanInput) as err:
            pullback_evalmap(mu, parse_poly_text("1 + x", 2))
        assert err.value.code == "non_boolean_input"

    def test_non_boolean_input_with_a_boolean_pullback(self):
        # T sends both target coordinates to one, so x + -1*y pulls back to
        # the Boolean max(x, x - 1) = x; f itself has no weighted evaluation
        X = WeightedFan.build(1, [((1,), 1), ((-1,), 1)])
        mu = FanMorphism(X, WeightedFan.build(2, [((1, 1), 1), ((-1, -1), 1)]), IntMatrix.from_rows([[1], [1]]))
        f = parse_poly_text("x + -1*y", 2)
        assert pullback_poly(mu, f).is_boolean
        with pytest.raises(NonBooleanInput):
            pullback_evalmap(mu, f)


class TestCompose:
    def test_mismatch(self):
        mu = FanMorphism(L23, Y, T_LY)
        with pytest.raises(CompositionMismatch):
            compose(mu, mu)

    def test_identity_neutral(self):
        mu = FanMorphism(L23, Y, T_LY)
        ident = FanMorphism(L23, L23, IntMatrix.identity(2))
        assert compose(mu, ident).matrix == T_LY

    def test_contravariance(self):
        rng = random.Random(63)
        done = 0
        while done < 25:
            mu1 = rand_morphism(rng)
            # build a second leg out of mu1's target
            T2 = IntMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(mu1.target.ambient_dim)] for _ in range(2)]
            )
            images = [T2.apply(r.direction) for r in mu1.target.rays]
            nz = [tuple(v) for v in images if any(v)]
            if not nz:
                continue
            from tropfan import primitive

            try:
                Y2 = WeightedFan.build(2, [(list(primitive(d)[1]), 1) for d in set(nz)])
                mu2 = FanMorphism(mu1.target, Y2, T2)
            except Exception:
                continue
            Q = rand_boolean_poly(rng, 2)
            lhs = pullback_poly(compose(mu2, mu1), Q)
            rhs = pullback_poly(mu1, pullback_poly(mu2, Q))
            assert fn_eq(lhs, rhs)
            done += 1

    def test_associative(self):
        a = IntMatrix.from_rows([[1, 0], [1, 1]])
        b = IntMatrix.from_rows([[2, 1], [1, 1]])
        assert ((a @ b) @ T_LY) == (a @ (b @ T_LY))


class TestHomSpec:
    def test_requires_degree_zero(self):
        with pytest.raises(BadParameters):
            HomSpec(Y, L23, (RayFunction(L23, (1, 0, 0)), RayFunction(L23, (0, 0, 0))))

    def test_requires_matching_count(self):
        with pytest.raises(DimensionMismatch):
            HomSpec(Y, L23, (RayFunction(L23, (0, 0, 0)),))

    def test_images_must_live_on_target(self):
        with pytest.raises(DimensionMismatch):
            HomSpec(Y, L23, (RayFunction(Y, (0, 0, 0)), RayFunction(L23, (0, 0, 0))))


class TestInduced:
    def test_matches_pullback_route(self):
        # the image of y_j is the weighted evaluation of its pullback, the
        # monomial x^(row j of T), as pullback_evalmap computes it
        rng = random.Random(7)
        for _ in range(1000):
            mu = rand_morphism(rng)
            m = mu.target.ambient_dim
            want = tuple(
                pullback_evalmap(mu, LaurentPoly.monomial(m, [int(i == j) for i in range(m)]))
                for j in range(m)
            )
            assert induced_homspec(mu) == HomSpec(mu.target, mu.source, want)


class TestGeometric:
    def test_induced_always_geometric(self):
        rng = random.Random(64)
        for _ in range(60):
            mu = rand_morphism(rng)
            assert check_geometric(induced_homspec(mu))

    def test_non_proportional_column_fails(self):
        # image column (1,1) at the first ray of L23: no Y generator direction
        h = HomSpec(
            Y,
            L23,
            (RayFunction(L23, (1, 0, -1)), RayFunction(L23, (1, -1, 0))),
        )
        assert not check_geometric(h)

    def test_generator_change_invariance(self):
        # replacing the source fan's generators with a unimodular re-mix of
        # the coordinates leaves geometricity unchanged
        rng = random.Random(65)
        for _ in range(40):
            mu = rand_morphism(rng)
            h = induced_homspec(mu)
            U = rand_unimodular(rng, h.source.ambient_dim)
            mixed = tuple(
                RayFunction(
                    h.target,
                    tuple(
                        sum(U.data[i][j] * h.images[j].values[r] for j in range(U.cols))
                        for r in range(len(h.target.rays))
                    ),
                )
                for i in range(U.rows)
            )
            # mixing generator images = composing with a lattice isomorphism:
            # still induced by a morphism, hence still geometric
            gens = [list(ray.generator) for ray in h.source.rays]
            mixed_fan_gens = [U.apply(g) for g in gens]
            try:
                from tropfan import primitive

                src2 = WeightedFan.build(
                    h.source.ambient_dim,
                    [(list(g), 1) for g in mixed_fan_gens],
                )
            except Exception:
                continue
            h2 = HomSpec(src2, h.target, mixed)
            assert check_geometric(h2)


class TestRealize:
    def test_identity_round_trip(self):
        ident = FanMorphism(L23, L23, IntMatrix.identity(2))
        mu = realize_morphism(induced_homspec(ident))
        for ray in L23.rays:
            assert mu.apply(ray.direction) == ray.direction

    def test_round_trip_random(self):
        rng = random.Random(66)
        for _ in range(60):
            mu = rand_morphism(rng)
            back = realize_morphism(induced_homspec(mu))
            assert back.source == mu.source and back.target == mu.target
            for ray in mu.source.rays:
                assert back.apply(ray.direction) == mu.apply(ray.direction)

    def test_ray_bijection_with_unimodular_image(self):
        # L23 mapped by a determinant -5 matrix is NOT realizable back...
        # but a unimodular image is, with the ray map matching the bijection
        U = IntMatrix.from_rows([[1, 1], [0, 1]])
        gens = [U.apply(r.direction) for r in L23.rays]
        X = WeightedFan.build(2, [(g, 1) for g in gens])
        mu = FanMorphism(L23, X, U)
        back = realize_morphism(induced_homspec(mu))
        ray_map = extract_ray_map(back)
        for ray in L23.rays:
            img = U.apply(ray.direction)
            from tropfan import primitive

            assert ray_map[ray.label()] == "(" + ",".join(map(str, primitive(img)[1])) + ")"

    def test_not_geometric(self):
        h = HomSpec(
            Y,
            L23,
            (RayFunction(L23, (1, 0, -1)), RayFunction(L23, (1, -1, 0))),
        )
        with pytest.raises(NotGeometric):
            realize_morphism(h)

    def test_wrong_solve_caught_under_optimize(self):
        # the check on the solve's answer must survive python -O, which
        # strips assert statements
        code = textwrap.dedent("""
            from tropfan import FanMorphism, IntMatrix, induced_homspec, standard_model
            from tropfan import morphism

            morphism.lattice_solve = lambda A, b: (0,) * A.cols
            L23 = standard_model(2, 3)
            try:
                morphism.realize_morphism(induced_homspec(FanMorphism(L23, L23, IntMatrix.identity(2))))
            except AssertionError as exc:
                print(exc)
        """)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "lattice solve must reproduce the image on every ray\n"

    def test_a_faulty_solve_never_yields_a_morphism(self, monkeypatch):
        # the identity on L23: a solve answer moved by e1 misses each image
        # by A.e1 = (-1, 1, 0), and realize_morphism's own check sees it
        solve = morphism.lattice_solve

        def faulty(A, b):
            t = solve(A, b)
            return (t[0] + 1, *t[1:])

        monkeypatch.setattr(morphism, "lattice_solve", faulty)
        with pytest.raises(AssertionError, match="lattice solve must reproduce the image on every ray"):
            realize_morphism(induced_homspec(FanMorphism(L23, L23, IntMatrix.identity(2))))

    def test_outcomes_with_moved_images(self):
        # induced images, 60 % of them with c moved between two rays of one
        # image (still degree 0): each draw ends in a morphism, NotGeometric
        # or NoIntegerSolution, never a support violation, since a solved
        # row reproduces the image on every ray.  The outcome of every draw
        # is pinned
        rng = random.Random(7)
        outcomes = []
        for _ in range(4000):
            h = induced_homspec(rand_morphism(rng))
            k = len(h.target.rays)
            if rng.random() < 0.6:
                i, a, c = rng.randrange(len(h.images)), rng.randrange(k), rng.randint(1, 3)
                values = list(h.images[i].values)
                values[a] += c
                values[(a + rng.randrange(1, k)) % k] -= c
                images = list(h.images)
                images[i] = RayFunction(h.target, tuple(values))
                h = HomSpec(h.source, h.target, tuple(images))
            try:
                realize_morphism(h)
                outcomes.append("realized")
            except (NotGeometric, NoIntegerSolution) as exc:
                outcomes.append(type(exc).__name__)
        assert Counter(outcomes) == {"realized": 1802, "NotGeometric": 1513, "NoIntegerSolution": 685}
        digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
        assert digest == "d8e48c72bfa288bcd82281064c874f406cebec1f5e0dee618698de96e199cfde"

    def test_no_integer_solution(self):
        # on Y the degree-0 function (1, 0, -1) needs the fractional
        # exponent (-2/5, 1/5); realizing it as a coordinate image must fail.
        # It IS geometric: each entry is a multiple of a generator of the
        # 1-dimensional source.
        W = WeightedFan.build(1, [((1,), 1), ((-1,), 1)])
        h = HomSpec(W, Y, (RayFunction(Y, (1, 0, -1)),))
        assert check_geometric(h)
        with pytest.raises(NoIntegerSolution):
            realize_morphism(h)


def test_induced_homspec_shape():
    mu = FanMorphism(L23, Y, T_LY)
    h = induced_homspec(mu)
    assert h.source == Y and h.target == L23
    assert len(h.images) == 2
    assert h.images[0].values == (-4, 3, 1)
    assert h.images[1].values == (-3, 1, 2)


def rand_lookup_vector(rng, X):
    """An int or Fraction vector in X's dimension: a positive, negative or
    zero multiple of one of its rays, a sum of two rays, or a random one."""
    d = rng.choice(X.rays).direction
    kind = rng.randrange(6)
    if kind == 4:
        e = rng.choice(X.rays).direction
        return tuple(a + b for a, b in zip(d, e))
    if kind == 5:
        if rng.random() < 0.5:
            return rand_point(rng, X.ambient_dim, span=3)
        return tuple(rng.randint(-3, 3) for _ in d)
    t = [rng.randint(1, 9), Fraction(rng.randint(1, 9), rng.randint(1, 4)), 0][kind % 3]
    if kind == 3:
        t = -t
    return tuple(t * x for x in d)


def test_ray_lookup_against_ratio_oracle():
    """support_contains, check_geometric and extract_ray_map decide by one
    lookup (WeightedFan.ray_of); the reference is the per-coordinate ratio
    test oracles.positive_multiple, over the directions or generators."""
    rng = random.Random(2024)
    seen = Counter()
    for _ in range(2000):
        mu = rand_morphism(rng)
        fans = (mu.source, mu.target, rand_unbalanced_fan(rng, rng.randint(1, 3)))
        for X in fans:
            v = rand_lookup_vector(rng, X)
            want = not any(v) or any(positive_multiple(v, ray.direction) for ray in X.rays)
            assert support_contains(X, v) == want, (X, v)
            seen["contains", want] += 1

        want_map = {}
        for ray in mu.source.rays:
            image = mu.apply(ray.direction)
            hits = [t.label() for t in mu.target.rays if positive_multiple(image, t.direction)]
            want_map[ray.label()] = hits[0] if hits else None
        assert extract_ray_map(mu) == want_map

        h = induced_homspec(mu)
        k = len(h.target.rays)
        if rng.random() < 0.5:
            # move c from ray b to ray a in one image: still degree 0
            i, a, b, c = rng.randrange(len(h.images)), rng.randrange(k), rng.randrange(k), rng.randint(1, 3)
            values = list(h.images[i].values)
            values[a] += c
            values[b] -= c
            images = list(h.images)
            images[i] = RayFunction(h.target, tuple(values))
            h = HomSpec(h.source, h.target, tuple(images))
        gens = [ray.generator for ray in h.source.rays]
        want = all(
            not any(vec) or any(positive_multiple(vec, g) for g in gens)
            for vec in zip(*(H.values for H in h.images))
        )
        assert check_geometric(h) == want
        seen["geometric", want] += 1
    assert min(seen.values()) >= 300, seen
