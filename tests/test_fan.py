from fractions import Fraction

import pytest

from oracles import rand_balanced_fan
from tropfan import (
    BadParameters,
    DimensionMismatch,
    ParseError,
    Ray,
    WeightedFan,
    ZeroVector,
    check_balancing,
    primitive,
    standard_model,
    support_contains,
)

import random


def test_primitive():
    assert primitive((2, 4)) == (2, (1, 2))
    assert primitive((-3, 0)) == (3, (-1, 0))
    assert primitive((0, 0, 7)) == (7, (0, 0, 1))
    assert primitive((5,)) == (5, (1,))
    with pytest.raises(ZeroVector):
        primitive((0, 0))


def test_ray_generator_is_built_once():
    r = Ray((1, 2), 3)
    assert r.generator is r.generator
    # and it is no field: equality, hash and JSON read direction and weight
    assert r == Ray((1, 2), 3) and hash(r) == hash(Ray((1, 2), 3))
    assert WeightedFan(2, (r,)).to_json() == WeightedFan(2, (Ray((1, 2), 3),)).to_json()


def test_ray_validation():
    r = Ray((1, 2), 3)
    assert r.generator == (3, 6)
    assert r.label() == "(1,2)"
    with pytest.raises(ZeroVector):
        Ray((0, 0), 1)
    with pytest.raises(BadParameters):
        Ray((2, 4), 1)  # not primitive
    with pytest.raises(BadParameters):
        Ray((1, 2), 0)
    with pytest.raises(BadParameters):
        Ray((1, 2), -2)


class TestWeightedFan:
    def test_build_primitivizes_and_sorts(self):
        X = WeightedFan.build(2, [((2, 4), 3), ((-1, 0), 1)])
        assert [r.direction for r in X.rays] == [(-1, 0), (1, 2)]
        assert [r.weight for r in X.rays] == [1, 6]  # 3 * gcd(2,4)

    def test_duplicate_directions_rejected(self):
        with pytest.raises(BadParameters, match=r"^duplicate ray direction \(1, 2\)$"):
            WeightedFan.build(2, [((1, 2), 1), ((2, 4), 1)])
        # direct construction names the duplicate the same way
        with pytest.raises(BadParameters, match=r"^duplicate ray direction \(1, 2\)$"):
            WeightedFan(2, (Ray((0, 1), 1), Ray((1, 2), 1), Ray((1, 2), 3)))

    def test_per_ray_faults_win_over_a_duplicate(self):
        # the constructor alone refuses duplicates, after build has read
        # every ray, so a zero vector listed after a duplicate wins
        with pytest.raises(ZeroVector):
            WeightedFan.build(2, [((1, 2), 1), ((2, 4), 1), ((0, 0), 1)])
        with pytest.raises(BadParameters, match="weight must be positive"):
            WeightedFan.build(2, [((1, 2), 1), ((2, 4), 1), ((1, 0), 0)])

    def test_empty_and_bad_dims(self):
        with pytest.raises(BadParameters):
            WeightedFan.build(2, [])
        with pytest.raises(BadParameters):
            WeightedFan.build(0, [((1,), 1)])
        with pytest.raises(DimensionMismatch):
            WeightedFan.build(2, [((1, 0, 0), 1)])

    def test_direct_construction_requires_sorted(self):
        a, b = Ray((1, 0), 1), Ray((0, 1), 1)
        with pytest.raises(BadParameters, match="^rays must be lex-sorted$"):
            WeightedFan(2, (a, b))  # (1,0) after (0,1) in lex order is wrong
        with pytest.raises(BadParameters, match="^rays must be lex-sorted$"):
            WeightedFan(2, (a, b, b))
        X = WeightedFan(2, (b, a))
        assert X.ray_labels() == ["(0,1)", "(1,0)"]

    def test_ray_of_checks_the_length(self):
        X = standard_model(2, 3)
        for v in ((1,), (1, 0, 0)):
            with pytest.raises(DimensionMismatch, match=rf"^vector of length {len(v)} in dimension 2$"):
                X.ray_of(v)

    def test_json_round_trip(self):
        X = WeightedFan.build(3, [((1, 2, 3), 2), ((-1, -2, -3), 2)])
        assert WeightedFan.from_json(X.to_json()) == X
        with pytest.raises(ParseError):
            WeightedFan.from_json({"rays": []})
        with pytest.raises(ParseError):
            WeightedFan.from_json({"ambient_dim": 2, "rays": [{"direction": [1, 0]}]})


def test_check_balancing():
    assert check_balancing(standard_model(2, 3))
    assert not check_balancing(WeightedFan.build(2, [((1, 0), 1), ((0, 1), 1)]))
    # weights participate: 2*(1,0) + (-2,0) balances only with weight 2 on the right
    assert check_balancing(WeightedFan.build(1, [((1,), 2), ((-1,), 2)]))
    assert not check_balancing(WeightedFan.build(1, [((1,), 2), ((-1,), 1)]))


def test_standard_model_family():
    for n in range(1, 5):
        for r in range(2, n + 2):
            L = standard_model(n, r)
            assert L.ambient_dim == n
            assert len(L.rays) == r
            assert check_balancing(L)
            assert all(ray.weight == 1 for ray in L.rays)
    assert standard_model(2, 3).ray_labels() == ["(-1,-1)", "(0,1)", "(1,0)"]
    with pytest.raises(BadParameters):
        standard_model(2, 1)
    with pytest.raises(BadParameters):
        standard_model(2, 4)  # r must be <= n+1


def test_support_contains():
    Y = WeightedFan.build(2, [((1, 2), 1), ((3, 1), 1), ((-4, -3), 1)])
    assert support_contains(Y, (0, 0))
    assert support_contains(Y, (2, 4))
    assert support_contains(Y, (Fraction(3, 2), Fraction(1, 2)))
    assert support_contains(Y, (-8, -6))
    assert not support_contains(Y, (-1, -2))  # negative multiple of a ray
    assert not support_contains(Y, (1, 1))
    with pytest.raises(DimensionMismatch):
        support_contains(Y, (1, 0, 0))


def test_support_scaling_closure():
    rng = random.Random(5)
    for _ in range(40):
        X = rand_balanced_fan(rng, rng.randint(1, 3))
        ray = rng.choice(X.rays)
        t = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        v = tuple(t * d for d in ray.direction)
        assert support_contains(X, v)
