"""Differential tests of ``_lp``.  ``find_point`` has the same feasibility
as Fourier-Motzkin elimination over Fraction (``oracles.fm_point``) on
random strict and non-strict rational systems, each row scaled to integers
in its tableau by ``oracles.tableau``, and every point it returns is
checked against every constraint in exact arithmetic.  The integer-only
``integer_point_search`` returns the same point, the lexicographically
first, as the search over the Fraction chain
(``oracles.fm_integer_point_search``) at a box that clips no range, on
bounded systems shaped like membership queries: integer rows and
right-hand sides, every row an inequality.  The equality of a membership
query is substituted before the search, by ``evalmap._tight_exponent``,
and is tested here against the oracle with the equality as two rows."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import fm_integer_point_search, fm_point, tableau
from tropfan import _lp
from tropfan._lp import _plan, find_point, integer_point_search
from tropfan.evalmap import _tight_exponent, _tight_search


def satisfies(cons, x):
    for c, r, strict in cons:
        v = sum(Fraction(a) * b for a, b in zip(c, x))
        if not (v < r if strict else v <= r):
            return False
    return True


def as_point(found):
    """The rational point xs / D of find_point's answer ``(xs, D)``, or None."""
    if found is None:
        return None
    xs, D = found
    return tuple(Fraction(x, D) for x in xs)


def check(cons, nvars):
    """find_point agrees with the oracle and answers in ints, ``(xs, D)``
    with D > 0; the point xs / D, which it returns, is verified."""
    found = find_point(tableau(cons, nvars), nvars)
    assert (found is None) == (fm_point(cons, nvars) is None), (cons, nvars, found)
    if found is None:
        return None
    xs, D = found
    assert len(xs) == nvars and all(type(x) is int for x in xs), (cons, nvars, found)
    assert type(D) is int and D > 0, (cons, nvars, found)
    got = as_point(found)
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


def test_pinned_digest():
    # The digest pins the points themselves, not only their feasibility,
    # so a change to the pivots cannot move a witness of fn_witness, of
    # the CLI's witness subcommand or of the recession test of membership.
    rng = random.Random(1515)
    digest = hashlib.sha256()
    for _ in range(2000):
        n = rng.randint(0, 5)
        digest.update(repr(as_point(find_point(tableau(rand_system(rng, n), n), n))).encode())
    assert digest.hexdigest() == "55e1bc18576426c564d74006686846f74ca28fd1bac4b49d486fd4fd4bcaa581"


def test_resumed_tableau_matches_cold_solve():
    # Strict integer rows as canonicalize asks them, added one at a time to
    # a tableau built on 0 to nvars + 1 of them, so that some artificials
    # are still basic when a row comes; some rows repeat a direction.
    rng = random.Random(1616)
    resumed = 0
    for _ in range(800):
        n = rng.randint(0, 5)
        A, b = [], []
        for _ in range(rng.randint(0, n + 1)):
            A.append(tuple(rng.randint(-3, 3) for _ in range(n)))
            b.append(rng.randint(-4, 4))
        lp = _lp.Tableau([(a, r, True) for a, r in zip(A, b)], n)
        while True:
            feasible = lp.run()
            assert len(lp) == len(A)
            cold = _lp.Tableau([(a, r, True) for a, r in zip(A, b)], n)
            assert feasible == (find_point(cold, n) is not None), (A, b)
            if not feasible:
                break
            xs, D = lp.point()
            assert D > 0 and all(dot(a, xs) < r * D for a, r in zip(A, b)), (A, b, xs, D)
            if len(A) > 8:
                break
            if A and rng.random() < 0.3:
                a = tuple(rng.choice([1, 2, -1]) * x for x in rng.choice(A))
            else:
                a = tuple(rng.randint(-3, 3) for _ in range(n))
            A.append(a)
            b.append(rng.randint(-4, 4))
            lp.add_row(a, b[-1], True)
            resumed += 1
    assert resumed > 1500


class TestEdgeCases:
    def test_no_variables(self):
        assert as_point(find_point(tableau([], 0), 0)) == ()
        assert as_point(find_point(tableau([((), 1, True), ((), 0, False)], 0), 0)) == ()
        assert find_point(tableau([((), Fraction(-1, 2), False)], 0), 0) is None

    def test_empty_system(self):
        xs, D = find_point(tableau([], 3), 3)
        assert len(xs) == 3 and D > 0

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


def oracle_search(rows, rhs):
    """The oracle's answer, at the first box of 8, 64, ... that clips no
    range."""
    cons = [(c, r, False) for c, r in zip(rows, rhs)]
    nvars = len(rows[0]) if rows else 0
    for bound in (8, 64, 512, 4096, 2**15):
        point, truncated = fm_integer_point_search(cons, nvars, bound)
        if not truncated:
            return point
    raise AssertionError(f"{rows} {rhs} is not bounded")


def check_search(rows, rhs, plan=None):
    """integer_point_search on ``plan``, by default ``_plan(rows)``, gives
    the oracle's point, the lexicographically first one, and never a
    clipped search; a point it returns is an integer point meeting every
    row."""
    rows, rhs = tuple(rows), tuple(rhs)
    got = integer_point_search(_plan(rows) if plan is None else plan, rhs)
    assert got == (oracle_search(rows, rhs), False), (rows, rhs, got)
    point = got[0]
    if point is not None:
        assert len(point) == (len(rows[0]) if rows else 0) and all(type(z) is int for z in point)
        assert all(dot(c, point) <= r for c, r in zip(rows, rhs)), (rows, rhs, point)
    return point


def rand_generator(rng: random.Random, nvars: int, zeros=()):
    """A weight times a nonzero direction, 0 in the columns ``zeros``."""
    while True:
        d = [0 if j in zeros else rng.randint(-3, 3) for j in range(nvars)]
        if any(d):
            return tuple(rng.choice([1, 1, 1, 2, 3]) * x for x in d)


def rank(rows):
    """The rank of the integer rows ``rows``, by elimination over Fraction."""
    rest, r = [list(map(Fraction, c)) for c in rows], 0
    for j in range(len(rest[0]) if rest else 0):
        pivot = next((c for c in rest if c[j]), None)
        if pivot is not None:
            rest = [[x - c[j] / pivot[j] * y for x, y in zip(c, pivot)] for c in rest if c is not pivot]
            r += 1
    return r


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


def rand_bounded_system(rng: random.Random, nvars: int):
    """The rows and right-hand sides of a membership system made bounded:
    rows are added until they span, then minus their sum, so that they
    carry a positive relation of full support."""
    rows, rhs, _ = rand_membership_system(rng, nvars)
    rows, rhs = list(rows), list(rhs)
    while rank(rows) < nvars:
        rows.append(rand_generator(rng, nvars))
        rhs.append(rng.randint(-6, 6))
    rows.append(tuple(-sum(col) for col in zip(*rows)))
    rhs.append(rng.randint(-6, 6))
    return tuple(rows), tuple(rhs)


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
    rows = draw(st.lists(st.tuples(weighted, st.integers(-6, 6)), min_size=n, max_size=6))
    opposites = draw(st.lists(st.tuples(st.integers(0, 5), st.sampled_from([1, 2]), st.sampled_from([0, 0, 1])),
                              max_size=2))
    for i, k, dr in opposites:
        c, r = rows[i % len(rows)]
        rows.append((tuple(-k * x for x in c), -k * r + dr))
    # unit rows until the rows span, then minus their sum: a positive
    # relation of full support leaves the region bounded
    for j in range(n):
        if rank([c for c, _ in rows]) < n:
            rows.append((tuple(int(i == j) for i in range(n)), draw(st.integers(-6, 6))))
    rows.append((tuple(-sum(col) for col in zip(*(c for c, _ in rows))), draw(st.integers(-6, 6))))
    return tuple(c for c, _ in rows), tuple(r for _, r in rows)


@given(search_systems())
def test_search_matches_oracle(system):
    check_search(*system)


def test_search_fixed_seed_sweep():
    # bounded systems shaped like membership queries, n = 1-4
    rng = random.Random(5050)
    seen, hidden = set(), 0
    for _ in range(5000):
        rows, rhs = rand_bounded_system(rng, rng.randint(1, 4))
        seen.add(check_search(rows, rhs) is not None)
        hidden += hidden_equality(rows, rhs)
    assert seen == {True, False}
    assert hidden > 1000


class TestSearchEdgeCases:
    def test_free_variable(self):
        # a variable that no row bounds is outside the contract
        with pytest.raises(AssertionError, match="bounded"):
            integer_point_search(_plan(((0,),)), (0,))
        with pytest.raises(AssertionError, match="bounded"):
            integer_point_search(_plan(((1, 0), (-1, 0))), (2, 0))

    def test_lower_bound_far_from_the_origin(self):
        # y = 0 and 5 <= x <= 6
        assert check_search([(0, 1), (0, -1), (-1, 0), (1, 0)], [0, 0, -5, 6]) == (5, 0)
        assert check_search([(0, 1), (0, -1), (-1, 0), (1, 0)], [0, 0, -500, 600]) == (500, 0)

    def test_integer_edge(self):
        # 2x <= 3 leaves x <= 1 among the integers, 2x >= 3 leaves x >= 2
        assert check_search([(2,), (-2,)], [3, -2]) == (1,)
        assert check_search([(2,), (-2,)], [3, -3]) is None
        assert check_search([(-2,), (1,)], [-5, 3]) == (3,)
        assert check_search([(2, 0), (-1, 0), (0, 1), (0, -1)], [3, 0, 0, 0]) == (0, 0)

    def test_no_variables(self):
        assert check_search([()], [0]) == ()
        assert check_search([(), ()], [0, 1]) == ()
        assert check_search([(), ()], [0, -1]) is None
        assert check_search([()], [-1]) is None

    def test_empty_system(self):
        # no row at all: the empty point, in no variable
        assert integer_point_search(_plan(()), ()) == ((), False)
        with pytest.raises(AssertionError):
            integer_point_search(_plan(((0, 0),)), (0,))

    def test_constant_rows(self):
        assert check_search([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)], [-1, 5, 0, 0, 0]) is None
        assert check_search([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)], [0, 0, 0, 1, 0]) == (0, 0)

    def test_rational_infeasibility_is_not_truncated(self):
        # x + y <= 0 and x + y >= 1 leave no bound on x alone; the guards
        # prove the miss before any range is asked for
        assert integer_point_search(_plan(((1, 1), (-1, -1), (1, 0))), (0, -1, 0)) == (None, False)

    def test_unbounded_level_after_an_empty_range(self):
        # 2x = 1 passes the guard but leaves x no integer, and y has no
        # upper row: the plan is refused before any range is read
        plan = _plan(((2, 0), (-2, 0), (0, -1)))
        assert plan.guards and not plan.levels[1][0]
        with pytest.raises(AssertionError, match="bounded"):
            integer_point_search(plan, (1, -1, 0))

    # The ten searches of one pass of the benchmark's member workload at
    # seed 1 that visit the most nodes (63 down to 32) under a depth-first
    # count that includes the leaf, all three levels deep: (rows, rhs,
    # point).
    BACKTRACKING = [
        (((2, 0, 0), (0, 2, 0), (34, 38, 78), (-36, -40, -78)), (30, 12, 422, -418), (1, 2, 4)),
        (((2, 0, 0), (0, 1, 0), (34, 72, 82), (18, 37, 42), (-54, -110, -124)), (10, 1, -168, -100, 304),
         (-3, 1, -2)),
        (((1, 0, 0), (0, 2, 0), (2, 20, 70), (-3, -22, -70)), (18, 10, 102, -95), (-6, 2, 1)),
        (((2, 0, 0), (0, 1, 0), (34, 72, 82), (18, 37, 42), (-54, -110, -124)), (4, 1, -42, -33, 114),
         (-12, -3, 7)),
        (((1, 0, 0), (0, 1, 0), (26, 0, 30), (-40, -2, -46), (13, 1, 16)), (-7, -2, -222, 399, -125),
         (-19, -26, 9)),
        (((2, 0, 0), (0, 2, 0), (3, 1, 35), (-5, -3, -35)), (10, 10, -559, 574), (-5, 4, -16)),
        (((1, 0, 0), (0, 2, 0), (31, 1, 35), (-32, -3, -35)), (-14, 20, 1, 21), (-33, 7, 29)),
        (((1, 0, 0), (0, 1, 0), (26, 0, 30), (-40, -2, -46), (13, 1, 16)), (10, 7, 12, 0, -3), (5, -8, -4)),
        (((2, 0, 0), (0, 2, 0), (14, 12, 25), (-38, -32, -66), (22, 18, 41)), (10, 24, -3, 18, -2), (-9, 4, 3)),
        (((2, 0, 0), (0, 1, 0), (14, 5, 25), (-38, -14, -66), (22, 8, 41)), (4, 1, -131, 366, -196),
         (-14, -7, 4)),
    ]

    @pytest.mark.parametrize("rows, rhs, point", BACKTRACKING, ids=[str(i) for i in range(len(BACKTRACKING))])
    def test_backtracking_searches(self, rows, rhs, point):
        assert check_search(rows, rhs) == point


# ------------------------------------------------ the equality's substitution


def oracle_equality(rows, rhs, eq, bound):
    """The oracle's (point, truncated) with row ``eq`` an equality."""
    cons = [(c, r, False) for c, r in zip(rows, rhs)] + [(tuple(-x for x in rows[eq]), -rhs[eq], False)]
    return fm_integer_point_search(cons, len(rows[eq]), bound)


def check_equality_search(rows, rhs, eq, ref=None):
    """The tight exponent of ``evalmap``, which substitutes the equality of a
    membership search before ``integer_point_search`` runs: a point it
    returns meets every row and the equality with equality, and on None
    the oracle finds no point in the box |x| <= 8.  The search it runs
    has one variable fewer and at most one row for each other row.
    ``ref`` is the oracle's answer at box 8 when the caller has it."""
    rows, rhs = tuple(rows), tuple(rhs)
    got = _tight_exponent(rows, rhs, eq)
    if got is None:
        ref = ref or oracle_equality(rows, rhs, eq, 8)
        assert ref[0] is None, (rows, rhs, eq)
    else:
        assert len(got) == len(rows[eq]) and all(type(z) is int for z in got)
        assert all(dot(c, got) <= r for c, r in zip(rows, rhs)), (rows, rhs, eq, got)
        assert dot(rows[eq], got) == rhs[eq], (rows, rhs, eq, got)
    _, kept, plan, dropped, _ = _tight_search(rows, eq)
    assert len(kept) + len(dropped) == len(rows) - 1
    assert len(plan.levels) < len(rows[eq])
    return got


def test_equality_sweep():
    # membership-shaped systems; the oracle at box 8 decides most, and a
    # point it finds, or a miss it proves, is the substitution's answer
    rng = random.Random(6060)
    seen, decided = set(), 0
    for _ in range(3200):
        rows, rhs, eq = rand_membership_system(rng, rng.randint(1, 4))
        ref, truncated = oracle_equality(rows, rhs, eq, 8)
        point = check_equality_search(rows, rhs, eq, (ref, truncated))
        if ref is not None or not truncated:
            assert (point is None) == (ref is None), (rows, rhs, eq, point, ref)
            decided += 1
        seen.add((point is not None, truncated))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    assert decided > 2400


class TestEqualitySubstitution:
    def test_equality_with_zero_last_coefficient_passes_down(self):
        # x = 2, x + y <= 5, 2y - x <= 2: y is free below, so both rows go
        rows, rhs = [(1, 0), (1, 1), (-1, 2)], [2, 5, 2]
        assert check_equality_search(rows, rhs, 0)[0] == 2
        assert len(_tight_search(tuple(rows), 0)[3]) == 2
        assert check_equality_search(rows + [(0, -1)], rhs + [0], 0) in {(2, 0), (2, 1), (2, 2)}

    def test_two_equalities_on_the_same_variable(self):
        # the second equality is two opposite rows
        rows = [(1, 1, 1), (1, -1, 2), (-2, 2, -4), (1, 0, 0), (-1, 0, 0)]
        assert check_equality_search(rows, [3, 1, -2, -4, 4], 0) == (-4, 3, 4)
        assert check_equality_search(rows, [3, 1, -2, 4, -4], 0) is None
        assert check_equality_search(rows, [3, 1, -2, 4, 4], 0) is not None
        assert check_equality_search(rows[:3] + [(0, 1, 0)], [3, 1, -2, -1], 0) is not None

    def test_equality_sharing_a_direction_with_another_row(self):
        rows, rhs = [(1, 2)], [3]
        assert check_equality_search(rows + [(2, 4)], rhs + [5], 0) is None
        assert check_equality_search(rows + [(-1, -2)], rhs + [-4], 0) is None
        assert check_equality_search(rows + [(2, 4)], rhs + [6], 0) is not None

    def test_equality_whose_gcd_does_not_divide_its_rhs(self):
        assert check_equality_search([(2, 4)], [1], 0) is None
        assert check_equality_search([(2, 4), (1, 0), (-1, 0)], [1, 1, 1], 0) is None
        assert check_equality_search([(3,), (-6,)], [1, -2], 0) is None

    def test_chain_is_smaller(self):
        # x2 = x0 + x1 and eight rows on x2: the substitution leaves eight
        # rows in two variables, where pairing would add sixteen more.  The
        # direction x0 = x1 = -1 lowers all eight, so none is searched;
        # with two rows that bound it, every row is kept
        rows = [(-1, -1, 1)] + [(a, b, 1) for a, b in [(1, 0), (0, 1), (2, 1), (1, 3)]]
        rows += [(a, b, -1) for a, b in [(1, 2), (3, 0), (0, 3), (2, 2)]]
        _, kept, plan, dropped, _ = _tight_search(tuple(rows), 0)
        assert (kept, plan.levels, len(dropped)) == ((), (), 8)
        check_equality_search(rows, [0] + [9] * 4 + [8] * 4, 0)
        rows += [(-1, 0, 0), (0, -1, 0)]
        _, kept, plan, dropped, _ = _tight_search(tuple(rows), 0)
        assert len(kept) == 10 and not dropped and len(plan.levels) == 2
        check_equality_search(rows, [0] + [9] * 4 + [8] * 4 + [3, 3], 0)

    def test_empty_system(self):
        # no row but the equality: the free coordinates are set, not searched
        assert check_equality_search([(0, 1)], [1], 0) is not None
        assert check_equality_search([(0, 0, 3)], [6], 0)[2] == 2


# ------------------------------------------------------------------- plans


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


def test_one_plan_answers_every_right_hand_side():
    # every system's plan, built once, is asked with 24 right-hand sides,
    # its hidden equalities holding and broken in turn
    rng = random.Random(8080)
    seen = set()
    for _ in range(240):
        rows, _ = rand_bounded_system(rng, rng.randint(1, 4))
        plan = _plan(rows)
        for t in range(24):
            seen.add(check_search(rows, rand_right_hand_sides(rng, rows), plan) is not None)
    assert seen == {True, False}


def test_answers_do_not_depend_on_row_order():
    # the same rows in another order are another system; each answer is
    # the oracle's
    rng = random.Random(9090)
    for _ in range(300):
        rows, _ = rand_bounded_system(rng, rng.randint(1, 4))
        for _ in range(4):
            rhs = rand_right_hand_sides(rng, rows)
            check_search(rows, rhs)
            order = list(range(len(rows)))
            rng.shuffle(order)
            check_search([rows[k] for k in order], [rhs[k] for k in order])


def plan_systems():
    """The rows of 2,000 random systems in 1 to 4 variables that need not
    be bounded."""
    rng = random.Random(2020)
    for _ in range(2000):
        n = rng.randint(1, 4)
        yield tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(1, 8)))


def test_pinned_plan_digest():
    # The digest pins the plans themselves, rows and guards, on systems
    # that need not be bounded, so a change to the pruning cannot move a
    # row without the oracle sweeps above having to catch it.  Guards are
    # a set, so they are hashed sorted.  The rows are hashed flat, four
    # entries a row (k, a, c, combo), the levels from the last down and
    # each level's upper rows before its lower rows.
    digest = hashlib.sha256()
    for rows in plan_systems():
        plan = _plan(rows)
        flat = []
        for k in range(len(plan.levels), 0, -1):
            uppers, lowers = plan.levels[k - 1]
            for c, combo, a in uppers:
                flat += (k, a, c, combo)
            for c, combo, a in lowers:
                flat += (k, -a, c, combo)
        digest.update(repr((sorted(plan.guards), tuple(flat))).encode())
    assert digest.hexdigest() == "477c3f2a0782be302b554af1b7e42acc227b8a990d4051fb473a43ae75efe964"


def test_plan_levels_have_the_shape_the_search_reads():
    # one level per variable; a row of level k has the coefficients of
    # the k - 1 variables before it, a positive |a| and a combination of
    # every input row
    for rows in plan_systems():
        plan = _plan(rows)
        assert len(plan.levels) == len(rows[0])
        for k, (uppers, lowers) in enumerate(plan.levels, 1):
            for c, combo, a in uppers + lowers:
                assert len(c) == k - 1 and a > 0 and len(combo) == len(rows)


class TestPlansAsValues:
    def test_a_plan_is_its_rows_in_order(self):
        rows = ((1,), (-1,))
        assert check_search(rows, [2, 1]) == (-1,)
        assert check_search(rows, [2, -2]) == (2,)
        assert _plan(rows) == _plan(((1,), (-1,)))
        assert _plan(rows) != _plan(((-1,), (1,)))

    def test_equality_that_holds_then_breaks(self):
        # y = -5 and x between 3 and 3, 2, 3 or 3.5 as the right-hand
        # sides change: one plan serves all four
        rows = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        assert check_search(rows, [3, -3, -5, 5]) == (3, -5)
        assert check_search(rows, [3, -2, -5, 5]) == (2, -5)
        rows[1] = (-2, 0)
        assert check_search(rows, [3, -6, -5, 5]) == (3, -5)
        assert check_search(rows, [3, -7, -5, 5]) is None

    def test_guards_follow_the_right_hand_side(self):
        # x <= r and -x <= s leave the guard 0 <= r + s
        rows = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        assert check_search(rows, [2, -1, 0, 0]) == (1, 0)
        assert check_search(rows, [2, -3, 0, 0]) is None
        assert integer_point_search(_plan(((0, 0),) + tuple(rows)), (-1, 2, 0, 0, 0)) == (None, False)
        assert check_search([(0, 0)] + rows, [1, 2, 0, 0, 0]) == (0, 0)

    def test_rows_differing_only_in_their_right_hand_side_are_both_kept(self):
        # x + y <= r1 and x + y <= r2 share a direction; which one binds
        # depends on the right-hand sides
        for r1, r2 in [(1, 4), (4, 1), (2, 3)]:
            rows, rhs = [(1, 1), (1, 1), (-1, 0), (0, -1)], [r1, r2, 0, 0]
            check_search(rows, rhs)
            check_search([(2, 2)] + rows[1:], [2 * r1] + rhs[1:])

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
        kept = _lp._reduce(rows, guards)
        assert sorted(kept) == sorted([((1, 0), (1, 0, 0, 0), 0b0001), ((0, 1), (0, 1, 1, 0), 0b0110),
                                       ((1, 0), (0, 0, 0, 1), 0b1000)])
        assert guards == {(0, 0, 1, 1)}
