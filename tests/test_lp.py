"""Differential tests of ``_lp``.  ``find_point`` has the same feasibility
as Fourier-Motzkin elimination over Fraction (``oracles.fm_point``) on
random strict and non-strict systems, and every point it returns is checked
against every constraint in exact arithmetic.  The integer-only
``integer_point_search`` returns the same point and ``truncated`` flag as
the search over the Fraction chain (``oracles.fm_integer_point_search``)."""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import fm_integer_point_search, fm_point
from tropfan import _lp
from tropfan._lp import _integral, _plan, find_point, integer_point_search


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


def primitive_rows(cons):
    """The rows scaled to integers, one per primitive direction and
    strictness with its tightest bound, each divided by the gcd of its
    coefficients where that divides the bound; None on a constant
    contradiction."""
    best = {}
    for c, r, s in cons:
        c, r = _integral(c, r)
        g = math.gcd(*c)
        if g == 0:
            if r < 0 or (s and r == 0):
                return None
            continue
        key = (tuple(x // g for x in c), s)
        if key not in best or Fraction(r, g) < Fraction(*best[key][1:]):
            best[key] = (tuple(c), r, g)
    rows = []
    for (_, s), (c, r, g) in best.items():
        h = math.gcd(g, r)
        rows.append((tuple(x // h for x in c), r // h, s))
    return rows


def equality_rows(cons, nvars):
    """The primitive rows of the system when they hold a non-strict row
    e . x <= v with e_{nvars-1} != 0 and its exact negation, found apart
    from the search; else None."""
    rows = primitive_rows(cons)
    if rows is None or nvars == 0:
        return None
    nonstrict = {(c, r) for c, r, s in rows if not s}
    if any(c[-1] and (tuple(-x for x in c), -r) in nonstrict for c, r in nonstrict):
        return rows
    return None


def chain(cons, nvars):
    """The rows ``(c, combo, strict, ineqs)`` that the plan of ``cons``
    keeps for each projection, onto all nvars variables first, built from
    an empty cache; the cache is left as it was."""
    levels, reduce = [], _lp._reduce

    def recorded(rows, guards, paired):
        kept = reduce(rows, guards, paired)
        levels.append(kept)
        return kept

    with mock.patch.object(_lp, "_reduce", recorded), mock.patch.dict(_lp._CACHE, clear=True), \
            mock.patch.dict(_lp._INTERN):
        _plan(cons, nvars)
    return levels


def directions(rows):
    """The (primitive direction, strictness) pairs of the chain rows ``rows``."""
    return {(tuple(x // math.gcd(*c) for x in c), strict) for c, _, strict, _ in rows}


def plan_input_rows(cons):
    """The rows a plan starts from, counted apart from it: one per
    non-constant row, except that the non-strict rows bounding one
    hyperplane from both sides count as two, its two half-spaces."""
    count, sides = 0, {}
    for c, r, s in cons:
        c, r = _integral(c, r)
        g = math.gcd(*c)
        if g == 0:
            continue
        if s:
            count += 1
            continue
        p, b = tuple(x // g for x in c), Fraction(r, g)
        up = p > tuple(-x for x in p)
        key = (p, b) if up else (tuple(-x for x in p), -b)
        sides.setdefault(key, []).append(up)
    for ups in sides.values():
        count += 2 if len(set(ups)) == 2 else len(ups)
    return count


def check_equality_search(cons, nvars, bound):
    """check_search, and when the top level eliminates its variable by an
    equality the next level has no pairwise rows added: at most the other
    rows' directions and strictnesses, and at most the plan's other input
    rows.  No level holds two rows of the same coefficients and
    combination."""
    got = check_search(cons, nvars, bound)
    rows = equality_rows(cons, nvars)
    if nvars >= 2 and rows is not None:
        levels = chain(cons, nvars)
        for level in levels:
            assert len({(c, combo) for c, combo, _, _ in level}) == len(level), (cons, nvars, level)
        below = levels[1]
        assert len(directions(below)) <= len(rows) - 2, (cons, nvars, below, rows)
        assert len(below) <= plan_input_rows(cons) - 2, (cons, nvars, below)
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
        # substitution leaves eight rows, where pairing would add sixteen
        # more.  Two of them, (2, 4) . x <= 9 and (1, 2) . x <= 9, share
        # a direction; which one binds depends on the right-hand sides,
        # so the plan keeps both
        cons = [((-1, -1, 1), 0, False), ((1, 1, -1), 0, False)]
        cons += [((a, b, 1), 9, False) for a, b in [(1, 0), (0, 1), (2, 1), (1, 3)]]
        cons += [((a, b, -1), 9, True) for a, b in [(1, 2), (3, 0), (0, 3), (2, 2)]]
        below = chain(cons, 3)[1]
        assert len(below) == 8
        assert len(directions(below)) == 7
        check_equality_search(cons, 3, 4)

    def test_empty_system(self):
        assert check_equality_search([], 0, 3) == ((), False)
        assert check_equality_search([], 2, 1) == ((-1, -1), True)
        assert check_equality_search([((), 0, False), ((), 0, False)], 0, 3) == ((), False)


# ------------------------------------------------------------ cached plans


def rand_nonzero_row(rng: random.Random, nvars: int):
    while True:
        c = tuple(rng.randint(-3, 3) if rng.random() < 0.7 else Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                  for _ in range(nvars))
        if any(c):
            return c


def rand_rhs(rng: random.Random):
    return rng.randint(-6, 6) if rng.random() < 0.6 else Fraction(rng.randint(-9, 9), rng.randint(1, 3))


def rand_coefficient_system(rng: random.Random, nvars: int):
    """Rows ``(coeffs, strict)`` with int and Fraction coefficients, some
    of them constant, plus 0-2 equality candidates: a non-strict row and a
    negative multiple ``-k`` of it.  Returns the shuffled rows and the
    candidates as ``(i, j, k)`` positions in them."""
    rows = [((0,) * nvars if not nvars or rng.random() < 0.1 else rand_nonzero_row(rng, nvars), rng.random() < 0.4)
            for _ in range(rng.randint(0, 6))]
    candidates = []
    for _ in range(rng.randint(0, 2) if nvars else 0):
        c, k = rand_nonzero_row(rng, nvars), rng.choice([1, 2, 3, Fraction(1, 2)])
        candidates.append((len(rows), len(rows) + 1, k))
        rows += [(c, False), (tuple(-k * x for x in c), False)]
    order = list(range(len(rows)))
    rng.shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    return [rows[i] for i in order], [(where[i], where[j], k) for i, j, k in candidates]


def rand_right_hand_sides(rng: random.Random, rows, candidates, holding):
    """Right-hand sides for ``rows``: candidate t is an equality, its
    second row the exact negation of its first, iff ``holding >> t & 1``."""
    rhs = [rand_rhs(rng) for _ in rows]
    for t, (i, j, k) in enumerate(candidates):
        rhs[j] = -k * rhs[i] + (0 if holding >> t & 1 else rng.choice([1, -1, Fraction(1, 2)]))
    return rhs


def ask(rows, rhs, nvars, bound):
    return check_search([(c, r, s) for (c, s), r in zip(rows, rhs)], nvars, bound)


def count_builds(monkeypatch):
    """A list that grows by one for every plan built from here on."""
    builds, build = [], _lp._System.plan

    def counted(self, links):
        builds.append(links)
        return build(self, links)
    monkeypatch.setattr(_lp._System, "plan", counted)
    return builds


def test_cached_plans_match_oracle(monkeypatch):
    # every system is asked with 24 right-hand sides, equality candidates
    # holding and broken in turn, all of them holding first, so most calls
    # find their plan cached
    builds = count_builds(monkeypatch)
    rng = random.Random(8080)
    calls, seen = 0, set()
    for _ in range(240):
        n = rng.randint(0, 4)
        rows, candidates = rand_coefficient_system(rng, n)
        bound = rng.choice([0, 1, 3, 8])
        for t in range(24):
            point, truncated = ask(rows, rand_right_hand_sides(rng, rows, candidates, 3 - t % 4), n, bound)
            seen.add((point is not None, truncated))
            calls += 1
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    assert len(builds) < calls / 5


def test_plan_keys_tell_systems_apart():
    # the same coefficients with one strict flag flipped, and the same rows
    # in another order, are other systems; each answer is the oracle's
    rng = random.Random(9090)
    for _ in range(300):
        n = rng.randint(1, 4)
        rows, candidates = rand_coefficient_system(rng, n)
        if not rows:
            continue
        bound = rng.choice([1, 3, 8])
        for _ in range(4):
            rhs = rand_right_hand_sides(rng, rows, candidates, rng.randint(0, 3))
            ask(rows, rhs, n, bound)
            i = rng.randrange(len(rows))
            ask(rows[:i] + [(rows[i][0], not rows[i][1])] + rows[i + 1:], rhs, n, bound)
            order = list(range(len(rows)))
            rng.shuffle(order)
            ask([rows[k] for k in order], [rhs[k] for k in order], n, bound)


class TestPlanCache:
    def test_strictness_is_part_of_the_key(self):
        assert check_search([((2,), 4, False), ((-2,), -4, False)], 1, 8) == ((2,), False)
        assert check_search([((2,), 4, True), ((-2,), -4, False)], 1, 8) == (None, False)
        assert check_search([((2,), 4, False), ((-2,), -4, True)], 1, 8) == (None, False)

    def test_equality_that_holds_then_breaks(self):
        box = [((0, 1), 5, False), ((0, -1), 5, False)]
        assert check_search([((1, 0), 3, False), ((-1, 0), -3, False)] + box, 2, 8) == ((3, -5), False)
        assert check_search([((1, 0), 3, False), ((-1, 0), -2, False)] + box, 2, 8) == ((2, -5), False)
        assert check_search([((1, 0), 3, False), ((-2, 0), -6, False)] + box, 2, 8) == ((3, -5), False)
        assert check_search([((1, 0), 3, False), ((-2, 0), -7, False)] + box, 2, 8) == (None, False)

    def test_guards_follow_the_right_hand_side(self):
        # x <= r and -x <= s leave the guard 0 <= r + s
        assert check_search([((1,), 2, False), ((-1,), -1, False)], 1, 8) == ((1,), False)
        assert check_search([((1,), 2, False), ((-1,), -3, False)], 1, 8) == (None, False)
        assert check_search([((1,), 2, True), ((-1,), -2, False)], 1, 8) == (None, False)
        assert check_search([((0, 0), 1, False), ((1, 0), 0, False)], 2, 1) == ((-1, -1), True)
        assert check_search([((0, 0), -1, False), ((1, 0), 0, False)], 2, 1) == (None, False)

    def test_rows_differing_only_in_their_right_hand_side_are_both_kept(self):
        # x <= r1 and x <= r2 share a direction; which one binds depends on r
        for r1, r2 in [(1, 4), (4, 1), (Fraction(5, 2), 3)]:
            cons = [((1, 1), r1, False), ((1, 1), r2, False), ((-1, 0), 0, False), ((0, -1), 0, False)]
            check_search(cons, 2, 8)
            check_search([((2, 2), 2 * r1, True)] + cons[1:], 2, 8)

    def test_size_cap(self, monkeypatch):
        monkeypatch.setattr(_lp, "_PLAN_CACHE_SIZE", 8)
        _lp._CACHE.clear()
        rng = random.Random(1111)
        for _ in range(60):
            n = rng.randint(1, 3)
            rows, candidates = rand_coefficient_system(rng, n)
            ask(rows, rand_right_hand_sides(rng, rows, candidates, 1), n, 3)
            assert len(_lp._CACHE) <= 8
        assert len(_lp._INTERN) < 1000

    def test_reduce_keeps_what_some_right_hand_side_needs(self):
        # rows (c, combo, strict, ineqs) after one pairing step: a duplicate,
        # a row whose inequalities hold another row's, a row of three
        # inequalities and a constant row go; a row of another direction
        # and the same direction with another combination stay
        rows = [((1, 0), (1, 0, 0, 0), False, 0b0001), ((2, 0), (2, 0, 0, 0), False, 0b0001),
                ((2, 1), (1, 1, 0, 0), True, 0b0011), ((1, 1), (1, 1, 1, 0), False, 0b0111),
                ((0, 1), (0, 1, 1, 0), False, 0b0110), ((1, 0), (0, 0, 0, 1), True, 0b1000),
                ((0, 0), (0, 0, 1, 1), True, 0b1100)]
        guards = set()
        kept = _lp._reduce(rows, guards, 1)
        assert sorted(kept) == sorted([((1, 0), (1, 0, 0, 0), False, 0b0001), ((0, 1), (0, 1, 1, 0), False, 0b0110),
                                       ((1, 0), (0, 0, 0, 1), True, 0b1000)])
        assert guards == {((0, 0, 1, 1), True)}
