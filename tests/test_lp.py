"""Differential tests of ``_lp``.  ``find_point`` has the same feasibility
as Fourier-Motzkin elimination over Fraction (``oracles.fm_point``) on
random strict and non-strict systems, and every point it returns is checked
against every constraint in exact arithmetic.  The integer-only
``integer_point_search`` returns the same point and ``truncated`` flag as
the search over the Fraction chain (``oracles.fm_integer_point_search``)
on systems shaped like membership queries: integer rows and right-hand
sides, every row an inequality but one equality."""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import fm_integer_point_search, fm_point
from tropfan import _lp
from tropfan._lp import _plan, find_point, integer_point_search


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


def dot(c, x):
    return sum(a * b for a, b in zip(c, x))


def oracle_search(rows, rhs, eq, bound):
    """The oracle's answer: every row a non-strict inequality, and the
    equality's negation one more."""
    cons = [(c, r, False) for c, r in zip(rows, rhs)] + [(tuple(-x for x in rows[eq]), -rhs[eq], False)]
    return fm_integer_point_search(cons, len(rows[eq]), bound)


def check_search(rows, rhs, eq, bound):
    """integer_point_search gives the oracle's (point, truncated); a point
    it returns is an integer point in the box meeting every row, the
    equality with equality."""
    rows, rhs = tuple(rows), tuple(rhs)
    got = integer_point_search(rows, rhs, eq, bound)
    assert got == oracle_search(rows, rhs, eq, bound), (rows, rhs, eq, bound, got)
    point, _ = got
    if point is not None:
        assert len(point) == len(rows[eq]) and all(type(z) is int and abs(z) <= bound for z in point)
        assert all(dot(c, point) <= r for c, r in zip(rows, rhs)), (rows, rhs, eq, bound, point)
        assert dot(rows[eq], point) == rhs[eq], (rows, rhs, eq, bound, point)
    return got


def rand_generator(rng: random.Random, nvars: int, zeros=()):
    """A weight times a nonzero direction, 0 in the columns ``zeros``."""
    while True:
        d = [0 if j in zeros else rng.randint(-3, 3) for j in range(nvars)]
        if any(d):
            return tuple(rng.choice([1, 1, 1, 2, 3]) * x for x in d)


def rand_membership_system(rng: random.Random, nvars: int):
    """The rows, right-hand sides and equality of one exponent search:
    1-6 generators, sometimes with zero columns as on a fan that does not
    span, and 0-2 opposite rows ``-k * c_i``, which are a hidden second
    equality when their right-hand side is exactly ``-k * r_i``."""
    zeros = {j for j in range(1, nvars) if rng.random() < 0.2}
    rows = [rand_generator(rng, nvars, zeros) for _ in range(rng.randint(1, 6))]
    rhs = [rng.randint(-6, 6) for _ in rows]
    for _ in range(rng.randint(0, 2)):
        i, k = rng.randrange(len(rows)), rng.choice([1, 1, 2, 3])
        rows.append(tuple(-k * x for x in rows[i]))
        rhs.append(-k * rhs[i] + rng.choice([0, 0, 0, 1, 2, -1]))
    order = list(range(len(rows)))
    rng.shuffle(order)
    return tuple(rows[x] for x in order), tuple(rhs[x] for x in order), rng.randrange(len(rows))


def hidden_equality(rows, rhs):
    """True when two rows are opposite with opposite right-hand sides."""
    halves = set()
    for c, r in zip(rows, rhs):
        g = math.gcd(*c)
        if g and r % g == 0:
            halves.add((tuple(x // g for x in c), r // g))
    return any((tuple(-x for x in c), -r) in halves for c, r in halves)


@st.composite
def search_systems(draw):
    n = draw(st.integers(1, 4))
    gen = st.tuples(*[st.integers(-3, 3)] * n).filter(any)
    weighted = st.tuples(gen, st.sampled_from([1, 2, 3])).map(lambda g: tuple(g[1] * x for x in g[0]))
    rows = draw(st.lists(st.tuples(weighted, st.integers(-6, 6)), min_size=1, max_size=6))
    opposites = draw(st.lists(st.tuples(st.integers(0, 5), st.sampled_from([1, 2]), st.sampled_from([0, 0, 1])),
                              max_size=2))
    for i, k, dr in opposites:
        c, r = rows[i % len(rows)]
        rows.append((tuple(-k * x for x in c), -k * r + dr))
    eq = draw(st.integers(0, len(rows) - 1))
    return tuple(c for c, _ in rows), tuple(r for _, r in rows), eq, draw(st.integers(0, 8))


@given(search_systems())
def test_search_matches_oracle(system):
    check_search(*system)


def test_search_fixed_seed_sweep():
    # systems shaped like membership queries, n = 1-4, bounds 0-8
    rng = random.Random(5050)
    seen, hidden, spanless = set(), 0, 0
    for _ in range(5000):
        n = rng.randint(1, 4)
        rows, rhs, eq = rand_membership_system(rng, n)
        point, truncated = check_search(rows, rhs, eq, rng.randint(0, 8))
        seen.add((point is not None, truncated))
        hidden += hidden_equality(rows, rhs)
        spanless += any(not any(c[j] for c in rows) for j in range(n))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    assert hidden > 1000 and spanless > 500


class TestSearchEdgeCases:
    def test_free_variable(self):
        assert check_search([(0,)], [0], 0, 3) == ((-3,), True)
        assert check_search([(1, 0)], [2], 0, 5) == ((2, -5), True)

    def test_lower_bound_above_the_box(self):
        # y = 0 and x >= 5, with and without x <= 6
        assert check_search([(0, 1), (-1, 0)], [0, -5], 0, 3) == (None, True)
        assert check_search([(0, 1), (-1, 0), (1, 0)], [0, -5, 6], 0, 3) == (None, True)

    def test_integer_edge(self):
        # 2x <= 3 leaves x <= 1 among the integers, 2x >= 3 leaves x >= 2
        assert check_search([(0, 1), (2, 0), (-2, 0)], [0, 3, -2], 0, 8) == ((1, 0), False)
        assert check_search([(0, 1), (2, 0), (-2, 0)], [0, 3, -3], 0, 8) == (None, False)
        assert check_search([(0, 1), (-2, 0), (1, 0)], [0, -5, 3], 0, 8) == ((3, 0), False)
        assert check_search([(2,)], [3], 0, 8) == (None, False)

    def test_no_variables(self):
        assert check_search([()], [0], 0, 5) == ((), False)
        assert check_search([(), ()], [0, 1], 0, 0) == ((), False)
        assert check_search([(), ()], [0, -1], 0, 5) == (None, False)
        assert check_search([()], [1], 0, 5) == (None, False)

    def test_empty_system(self):
        # no row but the equality 0 = 0
        assert check_search([(0, 0)], [0], 0, 0) == ((0, 0), True)
        assert check_search([(0, 0, 0)], [0], 0, 1) == ((-1, -1, -1), True)

    def test_constant_rows(self):
        assert check_search([(0, 0), (1, 0)], [-1, 5], 1, 3) == (None, False)
        assert check_search([(0, 0), (1, 0)], [1, 0], 0, 3) == (None, False)
        assert check_search([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)], [0, 0, 0, 1, 0], 1, 3) == ((0, 0), False)

    def test_rational_infeasibility_is_not_truncated(self):
        # x + y <= 0 and x + y >= 1 leave no bound on x alone
        assert check_search([(1, 1), (-1, -1), (1, 0)], [0, -1, 0], 2, 8) == (None, False)


# ------------------------------------------------ the equality's substitution


def chain(rows, eq):
    """The rows ``(c, combo, ineqs)`` that the plan of ``(rows, eq)`` keeps
    for each projection, onto all the variables first, built apart from
    the cache."""
    levels, reduce = [], _lp._reduce

    def recorded(rows, guards, paired):
        kept = reduce(rows, guards, paired)
        levels.append(kept)
        return kept

    with mock.patch.object(_lp, "_reduce", recorded):
        _plan.__wrapped__(tuple(rows), eq)
    return levels


def directions(rows):
    """The primitive directions of the chain rows ``rows``."""
    return {tuple(x // math.gcd(*c) for x in c) for c, _, _ in rows}


def check_equality_search(rows, rhs, eq, bound):
    """check_search, and when the equality has a last coefficient the
    projection below has no pairwise rows added: at most one row for
    each other row.  No level holds two rows of the same coefficients and
    combination."""
    got = check_search(rows, rhs, eq, bound)
    if len(rows[eq]) >= 2 and rows[eq][-1]:
        levels = chain(rows, eq)
        for level in levels:
            assert len({(c, combo) for c, combo, _ in level}) == len(level), (rows, eq, level)
        assert len(levels[1]) <= len(rows) - 1, (rows, eq, levels[1])
    return got


def test_equality_sweep():
    # the equality has a last coefficient in most draws, so it is
    # substituted at the top level
    rng = random.Random(6060)
    seen, substituted = set(), 0
    for _ in range(3200):
        n = rng.randint(1, 4)
        rows, rhs, eq = rand_membership_system(rng, n)
        if rng.random() < 0.75 and not rows[eq][-1]:
            rows = rows[:eq] + (rows[eq][:-1] + (rng.choice([-2, -1, 1, 3]),),) + rows[eq + 1:]
        point, truncated = check_equality_search(rows, rhs, eq, rng.choice([0, 1, 3, 8]))
        seen.add((point is not None, truncated))
        substituted += n >= 2 and rows[eq][-1] != 0
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    assert substituted > 1500


class TestEqualitySubstitution:
    def test_equality_with_zero_last_coefficient_passes_down(self):
        # x = 2, x + y <= 5, 2y - x <= 2
        rows, rhs = [(1, 0), (1, 1), (-1, 2)], [2, 5, 2]
        assert check_equality_search(rows, rhs, 0, 8) == ((2, -8), True)
        assert check_equality_search(rows + [(0, -1)], rhs + [0], 0, 8) == ((2, 0), False)

    def test_two_equalities_on_the_same_variable(self):
        # the second equality is two opposite rows
        rows = [(1, 1, 1), (1, -1, 2), (-2, 2, -4), (1, 0, 0), (-1, 0, 0)]
        assert check_equality_search(rows, [3, 1, -2, 4, 4], 0, 8) == ((-4, 3, 4), False)
        assert check_equality_search(rows[:3] + [(0, 1, 0)], [3, 1, -2, -1], 0, 8) == ((8, -1, -4), True)

    def test_equality_sharing_a_direction_with_another_row(self):
        rows, rhs = [(1, 2)], [3]
        assert check_equality_search(rows + [(2, 4)], rhs + [5], 0, 5) == (None, False)
        assert check_equality_search(rows + [(-1, -2)], rhs + [-4], 0, 5) == (None, False)
        assert check_equality_search(rows + [(2, 4)], rhs + [6], 0, 5) == ((-5, 4), True)

    def test_equality_whose_gcd_does_not_divide_its_rhs(self):
        assert check_equality_search([(2, 4)], [1], 0, 6) == (None, True)
        assert check_equality_search([(2, 4), (1, 0), (-1, 0)], [1, 1, 1], 0, 6) == (None, False)
        assert check_equality_search([(3,), (-6,)], [1, -2], 0, 6) == (None, False)

    def test_chain_is_smaller(self):
        # x2 = x0 + x1 and eight rows on x2 in distinct directions: the
        # substitution leaves eight rows, where pairing would add sixteen
        # more.  Two of them, (2, 4) . x <= 9 and (1, 2) . x <= 9, share
        # a direction; which one binds depends on the right-hand sides,
        # so the plan keeps both
        rows = [(-1, -1, 1)] + [(a, b, 1) for a, b in [(1, 0), (0, 1), (2, 1), (1, 3)]]
        rows += [(a, b, -1) for a, b in [(1, 2), (3, 0), (0, 3), (2, 2)]]
        below = chain(rows, 0)[1]
        assert len(below) == 8
        assert len(directions(below)) == 7
        check_equality_search(rows, [0] + [9] * 4 + [8] * 4, 0, 4)

    def test_empty_system(self):
        # no row but the equality
        assert check_equality_search([()], [0], 0, 3) == ((), False)
        assert check_equality_search([(0, 1)], [1], 0, 1) == ((-1, 1), True)
        assert check_equality_search([(), ()], [0, 0], 1, 3) == ((), False)


# ------------------------------------------------------------ cached plans


def rand_right_hand_sides(rng: random.Random, rows):
    """Right-hand sides for ``rows`` in which each pair of opposite rows
    is a hidden equality or not, at random."""
    rhs = [rng.randint(-6, 6) for _ in rows]
    for i, c in enumerate(rows):
        for j in range(i):
            k = next((k for k in (1, 2, 3) if tuple(-k * x for x in rows[j]) == c), None)
            if k is not None and rng.random() < 0.5:
                rhs[i] = -k * rhs[j]
    return rhs


def test_cached_plans_match_oracle():
    # every system is asked with 24 right-hand sides, its hidden equalities
    # holding and broken in turn, so most calls find their plan cached
    _plan.cache_clear()
    rng = random.Random(8080)
    calls, seen = 0, set()
    for _ in range(240):
        n = rng.randint(1, 4)
        rows, _, eq = rand_membership_system(rng, n)
        bound = rng.choice([0, 1, 3, 8])
        for t in range(24):
            point, truncated = check_search(rows, rand_right_hand_sides(rng, rows), eq, bound)
            seen.add((point is not None, truncated))
            calls += 1
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    assert _plan.cache_info().misses <= 240 < calls / 5


def test_plan_keys_tell_systems_apart():
    # the same rows with another equality, and the same rows in another
    # order, are other systems; each answer is the oracle's
    rng = random.Random(9090)
    for _ in range(300):
        n = rng.randint(1, 4)
        rows, _, eq = rand_membership_system(rng, n)
        bound = rng.choice([1, 3, 8])
        for _ in range(4):
            rhs = rand_right_hand_sides(rng, rows)
            check_search(rows, rhs, eq, bound)
            check_search(rows, rhs, rng.randrange(len(rows)), bound)
            order = list(range(len(rows)))
            rng.shuffle(order)
            check_search([rows[k] for k in order], [rhs[k] for k in order], order.index(eq), bound)


class TestPlanCache:
    def test_equality_is_part_of_the_key(self):
        rows = ((1,), (-1,))
        assert check_search(rows, [2, 1], 0, 8) == ((2,), False)
        assert check_search(rows, [2, 1], 1, 8) == ((-1,), False)
        assert _plan(rows, 0) is _plan(((1,), (-1,)), 0)
        assert _plan(rows, 0) is not _plan(rows, 1)

    def test_equality_that_holds_then_breaks(self):
        # y = -5 and x between 3 and 3, 2, 3 or 3.5 as the right-hand
        # sides change: one plan serves all four
        rows = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        assert check_search(rows, [3, -3, 5, 5], 3, 8) == ((3, -5), False)
        assert check_search(rows, [3, -2, 5, 5], 3, 8) == ((2, -5), False)
        rows[1] = (-2, 0)
        assert check_search(rows, [3, -6, 5, 5], 3, 8) == ((3, -5), False)
        assert check_search(rows, [3, -7, 5, 5], 3, 8) == (None, False)

    def test_guards_follow_the_right_hand_side(self):
        # x <= r and -x <= s leave the guard 0 <= r + s
        assert check_search([(1, 0), (-1, 0), (0, 1)], [2, -1, 0], 2, 8) == ((1, 0), False)
        assert check_search([(1, 0), (-1, 0), (0, 1)], [2, -3, 0], 2, 8) == (None, False)
        assert check_search([(0, 0), (1, 0), (0, 1)], [1, 0, 0], 2, 1) == ((-1, 0), True)
        assert check_search([(0, 0), (1, 0), (0, 1)], [-1, 0, 0], 2, 1) == (None, False)

    def test_rows_differing_only_in_their_right_hand_side_are_both_kept(self):
        # x + y <= r1 and x + y <= r2 share a direction; which one binds
        # depends on the right-hand sides
        for r1, r2 in [(1, 4), (4, 1), (2, 3)]:
            rows, rhs = [(1, 1), (1, 1), (-1, 0), (0, -1)], [r1, r2, 0, 0]
            check_search(rows, rhs, 3, 8)
            check_search([(2, 2)] + rows[1:], [2 * r1] + rhs[1:], 3, 8)

    def test_size_cap(self):
        info = _plan.cache_info()
        assert info.maxsize == 1024
        for r in range(info.maxsize + 100):
            integer_point_search(((1, r),), (0,), 0, 0)
        info = _plan.cache_info()
        assert info.currsize == info.maxsize

    def test_reduce_keeps_what_some_right_hand_side_needs(self):
        # rows (c, combo, ineqs) after one pairing step: a duplicate, a row
        # whose inequalities hold another row's, a row of three
        # inequalities and a constant row go; a row of another direction
        # and the same direction with another combination stay
        rows = [((1, 0), (1, 0, 0, 0), 0b0001), ((2, 0), (2, 0, 0, 0), 0b0001),
                ((2, 1), (1, 1, 0, 0), 0b0011), ((1, 1), (1, 1, 1, 0), 0b0111),
                ((0, 1), (0, 1, 1, 0), 0b0110), ((1, 0), (0, 0, 0, 1), 0b1000),
                ((0, 0), (0, 0, 1, 1), 0b1100)]
        guards = set()
        kept = _lp._reduce(rows, guards, 1)
        assert sorted(kept) == sorted([((1, 0), (1, 0, 0, 0), 0b0001), ((0, 1), (0, 1, 1, 0), 0b0110),
                                       ((1, 0), (0, 0, 0, 1), 0b1000)])
        assert guards == {(0, 0, 1, 1)}
