"""Differential tests of ``_lp``.  ``find_point`` has the same feasibility
as Fourier-Motzkin elimination over Fraction (``oracles.fm_point``) on
random strict and non-strict systems, and every point it returns is checked
against every constraint in exact arithmetic.  The integer-only
``integer_point_search`` returns the same point and ``truncated`` flag as
the search over the Fraction chain (``oracles.fm_integer_point_search``)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import fm_integer_point_search, fm_point
from tropfan._lp import _integral, _levels, _primitive_rows, find_point, integer_point_search


def satisfies(cons, x):
    for c, r, strict in cons:
        v = sum(Fraction(a) * b for a, b in zip(c, x))
        if not (v < r if strict else v <= r):
            return False
    return True


def check(cons, nvars):
    """find_point agrees with the oracle; a point it returns is verified."""
    got = find_point(cons, nvars)
    assert (got is None) == (fm_point(cons, nvars) is None), (cons, nvars, got)
    if got is not None:
        assert len(got) == nvars and all(isinstance(x, Fraction) for x in got)
        assert satisfies(cons, got), (cons, nvars, got)
    return got


def rand_system(rng: random.Random, nvars: int):
    """Mixed strict and non-strict rows with int and Fraction entries, some
    repeated as parallel or opposite copies with a nearby rhs."""
    cons = []
    for _ in range(rng.randint(0, 7 if nvars < 4 else 5)):
        c = tuple(
            rng.randint(-3, 3) if rng.random() < 0.7 else Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for _ in range(nvars)
        )
        r = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        cons.append((c, r, rng.random() < 0.6))
        if rng.random() < 0.25:
            k = rng.choice([1, 2, -1, -3])
            cons.append((tuple(k * x for x in c), k * r + rng.randint(-1, 1), rng.random() < 0.5))
    rng.shuffle(cons)
    return cons


@st.composite
def systems(draw):
    n = draw(st.integers(0, 5))
    entry = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=3))
    row = st.tuples(st.tuples(*[entry] * n), st.fractions(min_value=-4, max_value=4, max_denominator=3),
                    st.booleans())
    cons = draw(st.lists(row, max_size=6 if n < 4 else 4))
    copies = draw(st.lists(st.tuples(st.integers(0, 5), st.sampled_from([1, 2, -1, -2]),
                                     st.integers(-1, 1), st.booleans()), max_size=2))
    for i, k, dr, strict in copies:
        if cons:
            c, r, _ = cons[i % len(cons)]
            cons.append((tuple(k * x for x in c), k * r + dr, strict))
    return cons, n


@given(systems())
def test_matches_oracle(system):
    check(*system)


def test_fixed_seed_sweep():
    rng = random.Random(4040)
    found = 0
    for _ in range(1500):
        n = rng.randint(0, 5)
        found += check(rand_system(rng, n), n) is not None
    assert 300 < found < 1200  # both answers are well represented


class TestEdgeCases:
    def test_no_variables(self):
        assert find_point([], 0) == ()
        assert find_point([((), 1, True), ((), 0, False)], 0) == ()
        assert find_point([((), Fraction(-1, 2), False)], 0) is None

    def test_empty_system(self):
        x = find_point([], 3)
        assert len(x) == 3

    def test_constant_contradiction(self):
        assert check([((0, 0), 0, True)], 2) is None
        assert check([((0, 0), 0, True), ((1, 0), 5, False)], 2) is None
        assert check([((0, 0), 0, False)], 2) is not None

    def test_no_strict_rows(self):
        assert check([((1,), 0, False), ((-1,), 0, False)], 1) == (0,)
        assert check([((1, 1), -1, False), ((-1, 0), 0, False), ((0, -1), 0, False)], 2) is None
        assert check([((1, 2), 3, False), ((-2, -4), -6, False)], 2) is not None

    def test_strict_rows_with_no_interior(self):
        assert check([((1,), 0, True), ((-1,), 0, True)], 1) is None
        assert check([((1,), 0, False), ((-1,), 0, True)], 1) is None
        assert check([((1, 0), 0, False), ((-1, 0), 0, False), ((0, 1), 0, True)], 2) is not None

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_rows_spanning_fewer_dimensions(self, n):
        e1 = (1,) + (0,) * (n - 1)
        e12 = (1, 1) + (0,) * (n - 2)
        cons = [(e1, 1, True), (tuple(-x for x in e1), 0, True), (e12, 2, True),
                (tuple(3 * x for x in e12), 6, True)]
        x = check(cons, n)
        assert 0 < x[0] < 1
        assert check(cons + [(tuple(-x for x in e12), -2, False)], n) is None

    def test_unbounded_regions(self):
        assert check([((1, 1), 0, True)], 2) is not None
        assert check([((-1, 0, 0), -5, True), ((0, -1, 0), -7, True)], 3) is not None
        x = check([((1, -1), Fraction(-1, 3), True), ((-1, 1), 1, True)], 2)
        assert Fraction(1, 3) < x[1] - x[0] < 1

    def test_thin_slab_far_from_the_origin(self):
        cons = [((1, 0, 0, 0, 0), Fraction(1000001, 1000), True),
                ((-1, 0, 0, 0, 0), -1000, True),
                ((1, 1, 1, 1, 1), -10**6, False)]
        x = check(cons, 5)
        assert 1000 < x[0] < Fraction(1000001, 1000)


# ------------------------------------------------------- integer search


def check_search(cons, nvars, bound):
    """integer_point_search gives the oracle's (point, truncated); a point
    it returns is an integer point in the box satisfying every row."""
    got = integer_point_search(cons, nvars, bound)
    assert got == fm_integer_point_search(cons, nvars, bound), (cons, nvars, bound, got)
    point, _ = got
    if point is not None:
        assert len(point) == nvars and all(type(z) is int and abs(z) <= bound for z in point)
        assert satisfies(cons, point), (cons, nvars, bound, point)
    return got


def rand_search_system(rng: random.Random, nvars: int):
    """Mixed strict and non-strict rows with int and Fraction entries, some
    repeated as positive multiples with a nearby rhs."""
    cons = []
    for _ in range(rng.randint(0, 7)):
        c = tuple(
            rng.randint(-3, 3) if rng.random() < 0.7 else Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for _ in range(nvars)
        )
        r = rng.randint(-6, 6) if rng.random() < 0.5 else Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        cons.append((c, r, rng.random() < 0.4))
        if rng.random() < 0.3:
            k = rng.choice([1, 2, 3, Fraction(1, 2)])
            cons.append((tuple(k * x for x in c), k * r + rng.choice([0, 0, 1, -1]), rng.random() < 0.5))
    rng.shuffle(cons)
    return cons


@st.composite
def search_systems(draw):
    n = draw(st.integers(0, 4))
    entry = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=3))
    rhs = st.one_of(st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=3))
    row = st.tuples(st.tuples(*[entry] * n), rhs, st.booleans())
    cons = draw(st.lists(row, max_size=6))
    copies = draw(st.lists(st.tuples(st.integers(0, 5), st.sampled_from([1, 2, 3, Fraction(1, 2)]),
                                     st.integers(-1, 1), st.booleans()), max_size=2))
    for i, k, dr, strict in copies:
        if cons:
            c, r, _ = cons[i % len(cons)]
            cons.append((tuple(k * x for x in c), k * r + dr, strict))
    return cons, n, draw(st.sampled_from([0, 1, 3, 8]))


@given(search_systems())
def test_search_matches_oracle(system):
    check_search(*system)


def test_search_fixed_seed_sweep():
    rng = random.Random(5050)
    seen = set()
    for _ in range(5000):
        n = rng.randint(0, 4)
        point, truncated = check_search(rand_search_system(rng, n), n, rng.choice([0, 1, 3, 8]))
        seen.add((point is not None, truncated))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


class TestSearchEdgeCases:
    def test_free_variable(self):
        assert check_search([], 1, 3) == ((-3,), True)
        assert check_search([((1, 0), 2, False), ((-1, 0), -2, False)], 2, 5) == ((2, -5), True)

    def test_lower_bound_above_the_box(self):
        assert check_search([((-1,), -5, False)], 1, 3) == (None, True)
        assert check_search([((-1,), -5, False), ((1,), 6, False)], 1, 3) == (None, True)

    def test_strict_integer_edge(self):
        # 2x < 4 leaves x <= 1 among the integers
        assert check_search([((2,), 4, True), ((-2,), -2, False)], 1, 8) == ((1,), False)
        assert check_search([((2,), 4, True), ((-2,), -3, False)], 1, 8) == (None, False)
        assert check_search([((-2,), -4, True), ((1,), 3, False)], 1, 8) == ((3,), False)
        assert check_search([((Fraction(2, 3),), Fraction(4, 3), True), ((-1,), -1, False)], 1, 8) == ((1,), False)

    def test_no_variables(self):
        assert check_search([], 0, 5) == ((), False)
        assert check_search([((), 1, False), ((), 0, False)], 0, 0) == ((), False)
        assert check_search([((), Fraction(-1, 2), False)], 0, 5) == (None, False)

    def test_empty_system(self):
        assert check_search([], 2, 0) == ((0, 0), True)
        assert check_search([], 3, 1) == ((-1, -1, -1), True)

    def test_zero_less_than_zero(self):
        assert check_search([((0, 0), 0, True)], 2, 3) == (None, False)
        assert check_search([((0, 0), 0, True), ((1, 0), 5, False)], 2, 3) == (None, False)
        assert check_search([((0, 0), 0, False), ((1, 0), 0, False), ((-1, 0), 0, False),
                             ((0, 1), 1, False), ((0, -1), 0, False)], 2, 3) == ((0, 0), False)

    def test_rational_infeasibility_is_not_truncated(self):
        # x + y <= 0 and x + y >= 1 leave no bound on x alone
        assert check_search([((1, 1), 0, False), ((-1, -1), -1, False)], 2, 8) == (None, False)


# ------------------------------------------- equality pairs in the search


def _integer_rows(cons):
    rows = []
    for c, r, s in cons:
        c, r = _integral(c, r)
        rows.append((tuple(c), r, s))
    return rows


def equality_rows(cons, nvars):
    """The primitive rows of the system when they hold a non-strict row
    e . x <= v with e_{nvars-1} != 0 and its exact negation, found apart
    from the search; else None."""
    rows = _primitive_rows(_integer_rows(cons))
    if rows is None or nvars == 0:
        return None
    nonstrict = {(c, r) for c, r, s in rows if not s}
    if any(c[-1] and (tuple(-x for x in c), -r) in nonstrict for c, r in nonstrict):
        return rows
    return None


def check_equality_search(cons, nvars, bound):
    """check_search, and when the top level eliminates its variable by an
    equality the next level has at most the other rows, with no pairwise
    rows added."""
    got = check_search(cons, nvars, bound)
    rows = equality_rows(cons, nvars)
    levels = _levels(cons, nvars)
    if nvars >= 2 and rows is not None and levels is not None:
        below = sum(map(len, levels[nvars - 1]))
        assert below <= len(rows) - 2, (cons, nvars, below, len(rows))
    return got


def rand_equality(rng: random.Random, nvars: int, last: bool):
    """A row c . x = r as ``<=`` and ``>=`` rows, each scaled by its own
    positive factor; with ``last`` its last coefficient is nonzero, else 0.
    In no variables it is the constant pair 0 <= r and 0 >= r."""
    while True:
        c = [rng.randint(-3, 3) if rng.random() < 0.8 else Fraction(rng.randint(-5, 5), rng.randint(1, 3))
             for _ in range(nvars)]
        if nvars:
            c[-1] = rng.choice([-2, -1, 1, 2, 3, Fraction(1, 2)]) if last else 0
        if any(c) or not nvars:
            break
    r = rng.randint(-6, 6) if rng.random() < 0.7 else Fraction(rng.randint(-9, 9), rng.randint(1, 3))
    k, m = rng.choice([1, 1, 2, 3, Fraction(1, 2)]), rng.choice([1, 1, 2, Fraction(1, 3)])
    return [(tuple(k * x for x in c), k * r, False), (tuple(-m * x for x in c), -m * r, False)]


def rand_equality_system(rng: random.Random, nvars: int):
    """A mixed system with 1-2 exact equality pairs: on the last variable or
    not, sometimes with a strict row of the same direction, sometimes with
    a gcd that does not divide the right-hand side."""
    cons = [row for row in rand_search_system(rng, nvars) if rng.random() < 0.7]
    for _ in range(rng.randint(1, 2)):
        pair = rand_equality(rng, nvars, nvars == 1 or rng.random() < 0.75)
        if rng.random() < 0.2:
            (c, r, _), _ = pair
            pair = [(tuple(2 * x for x in c), 2 * r + 1, False), (tuple(-2 * x for x in c), -2 * r - 1, False)]
        if rng.random() < 0.25:
            (c, r, _), _ = pair
            pair.append((tuple(rng.choice([1, 2, -1]) * x for x in c), r + rng.randint(-1, 2), True))
        cons += pair
    rng.shuffle(cons)
    return cons


def test_equality_sweep():
    rng = random.Random(6060)
    seen, chained = set(), 0
    for _ in range(3200):
        n = rng.randint(0, 4)
        cons = rand_equality_system(rng, n)
        point, truncated = check_equality_search(cons, n, rng.choice([0, 1, 3, 8]))
        seen.add((point is not None, truncated))
        chained += equality_rows(cons, n) is not None
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    assert chained > 1000  # the substitution is exercised, not only the pairwise rows


class TestEqualitySubstitution:
    def test_equality_with_zero_last_coefficient_passes_down(self):
        cons = [((1, 0), 2, False), ((-1, 0), -2, False), ((1, 1), 5, False), ((-1, 2), 3, True)]
        assert check_equality_search(cons, 2, 8) == ((2, -8), True)
        cons += [((0, -1), 0, False)]
        assert check_equality_search(cons, 2, 8) == ((2, 0), False)

    def test_two_equalities_on_the_same_variable(self):
        cons = [((1, 1, 1), 3, False), ((-1, -1, -1), -3, False),
                ((1, -1, 2), 1, False), ((-2, 2, -4), -2, False),
                ((1, 0, 0), 4, False), ((-1, 0, 0), 4, False)]
        assert check_equality_search(cons, 3, 8) == ((-4, 3, 4), False)
        assert check_equality_search(cons[:4] + [((0, 1, 0), 0, True)], 3, 8) == ((8, -1, -4), True)

    def test_equality_sharing_a_direction_with_a_strict_row(self):
        eq = [((1, 2), 3, False), ((-1, -2), -3, False)]
        assert check_equality_search(eq + [((2, 4), 6, True)], 2, 5) == (None, False)
        assert check_equality_search(eq + [((-1, -2), -3, True)], 2, 5) == (None, False)
        assert check_equality_search(eq + [((2, 4), 7, True)], 2, 5) == ((-5, 4), True)

    def test_equality_whose_gcd_does_not_divide_its_rhs(self):
        eq = [((2, 4), 1, False), ((-2, -4), -1, False)]
        assert check_equality_search(eq, 2, 6) == (None, True)
        assert check_equality_search(eq + [((1, 0), 1, False), ((-1, 0), 1, False)], 2, 6) == (None, False)
        assert check_equality_search([((3,), 1, False), ((-6,), -2, False)], 1, 6) == (None, False)

    def test_chain_is_smaller(self):
        # x2 = x0 + x1 and eight rows on x2 in distinct directions: the
        # substitution leaves eight rows, two of them the same, where
        # pairing would add sixteen more
        cons = [((-1, -1, 1), 0, False), ((1, 1, -1), 0, False)]
        cons += [((a, b, 1), 9, False) for a, b in [(1, 0), (0, 1), (2, 1), (1, 3)]]
        cons += [((a, b, -1), 9, True) for a, b in [(1, 2), (3, 0), (0, 3), (2, 2)]]
        levels = _levels(cons, 3)
        assert sum(map(len, levels[2])) == 7
        check_equality_search(cons, 3, 4)

    def test_empty_system(self):
        assert check_equality_search([], 0, 3) == ((), False)
        assert check_equality_search([], 2, 1) == ((-1, -1), True)
        assert check_equality_search([((), 0, False), ((), 0, False)], 0, 3) == ((), False)
