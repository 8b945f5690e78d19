"""Exact linear feasibility, projection and integer search, all in ints.

A row of :func:`find_point` on k variables is a triple ``(coeffs, rhs,
strict)`` of ints, read as ``coeffs . x < rhs`` when ``strict`` else
``coeffs . x <= rhs``; the caller writes its rows in integers and hands
them over in a :class:`Tableau`.  The LP answers in integers, ``(xs, D)``
with D > 0 for the point xs / D.

:func:`find_point` decides a system in any number of variables with one
exact LP.  The margin LP ``max mu  s.t.  a_i . x + s_i mu <= b_i,  mu <= 1``
(``s_i`` = 1 on strict rows, 0 on the others) has a point with ``mu > 0``
iff the system has a solution.  It is solved as its Farkas dual

    min  sum b_i y_i + y_0   s.t.   sum y_i a_i = 0,   sum s_i y_i + y_0 = 1,   y >= 0

by Bland's rule on an integer-preserving (Bareiss) tableau of nvars + 1
rows, the :class:`Tableau`.  ``y_0 = 1`` is always dual feasible, so the
dual ends optimal, or unbounded when the non-strict rows alone are
infeasible.  At the optimum the simplex multipliers are a primal optimum
``(x, mu)``.

The tableau is ``D B^-1 [A | I]``: the dual columns, then one unit column
per dual row, one artificial per row of ``sum y_i a_i = 0`` and one for
the row of y_0, the last at cost 0 and never entering.  So it holds
D B^-1 itself, and the image D B^-1 c of any column c is their
combination with weights c.  The right-hand side is y_0's column, so that
column holds the basic values, and no copy of it is kept.

A primal row added to a solved system is a new dual column ``y`` at 0, so
the basis stays feasible and Bland's rule resumes from it instead of
solving from scratch (:meth:`Tableau.add_row`, then :func:`find_point` on
the tableau).  An artificial still basic is the equality of a coordinate
that the rows so far leave out; it is 0, and its row has no y entry.  The
new row can give that row an entry, and Bland's rule could then move the
artificial off 0, which drops the equality and can prove a feasible system
infeasible.  So every run begins with the step that starts a fresh
tableau: each basic unit column whose row has a y entry leaves through the
first one.  Its row's right-hand side is 0, so any pivot sign keeps the
basis feasible.  After a new row only its column can be that entry, and
once one artificial has left through it the other such rows have none
again.

:func:`integer_point_search` asks for an integer point x with
``rows[i] . x <= rhs[i]`` for every row i, all in Python ints: the
exponent question of image membership once that has parametrised its
equality away.  The rational region must be bounded, so the search is
exact with no box; an unbounded variable is an ``AssertionError``.  It
walks the integer points in lexicographic order, in one loop over the
levels, between the exact per-variable bounds of a Fourier-Motzkin
projection chain (Schrijver, *Theory of Linear and Integer Programming*,
1986, section 12.2).  The chain depends on the rows, not on the
right-hand sides, so it is built once per ``rows`` as a *plan*:

* Right-hand sides: every row of the chain carries its right-hand side
  as an integer combination ``combo`` of the input right-hand sides, and
  the search evaluates ``combo . rhs``.  Rows and right-hand sides are
  integers, so a row holds at an integer point exactly as written.
* Elimination: at each variable, the last first, each pair of a lower
  and an upper row adds ``|a_l| * upper + a_u * lower``, without dividing.
* Levels: level k holds the rows with variable k of the projection onto
  the first k variables, split into upper (a > 0) and lower rows, each
  ``(c, combo, |a|)`` as the search reads it.
* Guards: a row with no variable left is a condition ``0 <= combo . rhs``
  on the right-hand sides.  The system is rationally feasible iff every
  guard holds; if one fails the answer is ``(None, False)`` at once.
* Pruning: a row is dropped only when it is redundant for every
  right-hand side.  An exact duplicate (coefficients and combination) is
  one.  By Chernikov's rules so is a row that combines more than t + 1
  input inequalities after t pairing steps, or a strict superset of the
  inequalities of another row.  Such a row is not an extreme ray of the
  cone of multipliers that eliminate the variables, so it is the sum of
  rows of smaller support.  ``_plan`` applies the count rule to each
  lower/upper pair before it builds the row, and ``_reduce`` applies the
  duplicate and subset rules to each level's rows.
* The caller keeps the plan: ``_plan`` builds it, and
  :func:`integer_point_search` takes it.  Nothing is built at import.

The point does not depend on how the chain is written.  Each level is the
exact projection onto its variables, so at a node, a prefix of values for
the first variables, the range of the next variable, from the smallest
to the largest integer meeting every row of the slice, is fixed by the
projection.  The projection of a bounded nonempty region is bounded, so
once the guards hold every level has an upper and a lower row.

The search evaluates each level's right-hand sides once, then runs one
loop that holds the current prefix and the top of each of its values'
ranges.  A nonempty range appends its lowest value; an empty one drops
the trailing values already at the top of their ranges and raises the
last one left, or ends the search with no point when none is left.  So
the first prefix that reaches full length is the lexicographically first
point.  The loop reads only the rows with the next level's variable,
because every prefix it holds lies in the projection onto its variables.
The empty prefix does once the guards hold.  A value is taken only from
its level's range, so it meets the rows with that variable, and a row of
level k without variable k-1 is carried down to level k - 1, where the
prefix meets it or a row that implies it.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from collections.abc import Sequence

# Only bench/spans.py reads this: it labels find_point calls in at most
# this many variables as low dimensional.
FM_MAX_VARS = 4


class Tableau:
    """The Farkas dual of the margin LP of integer rows, solved by Bland's
    rule on an integer-preserving tableau, that takes more rows as it goes
    and can be asked about another term.

    ``rows`` holds the triples ``(c, b, strict)`` of :func:`find_point`,
    with ``c`` an int sequence of length ``nvars`` and ``b`` an int.  The
    tableau holds its rows as the caller gives them and asks about a term
    ``(u, a)``, first the one it is built at, by default ``(0, 0)``: each
    strict row ``c . x < b`` as ``(c - u) . x < b + a``, each non-strict
    row as it is.  On the rows ``(v, -b_v)`` of lifted points (v, b_v)
    that is where the term strictly beats every one of them.  The
    unimodular map ``[[I, -u], [0, 1]]`` takes the dual column ``(c; 1)``
    of a strict row to ``(c - u; 1)`` and fixes the others, so only y_0's
    column, the right-hand side, carries the term: it is ``(u; 1)``, at
    cost ``1 - a``, and the dual value gains the constant a.  The tableau
    is built as if a fresh one had pivoted that column into the basis, so
    its unit columns start as B^-1 = [[I, -u], [0, 1]], with D = 1.

    :meth:`run` goes to the optimum; :meth:`add_row` adds one strict row
    and :meth:`retarget` asks about another term, after either of which
    :meth:`run` resumes from the basis it left.  Both read D B^-1 off the
    unit columns of ``D B^-1 [A | I]``, one for each of the nvars + 1
    rows, the last for y_0's row.  Its length is its number of rows.
    """

    __slots__ = ("T", "basis", "D", "m", "n")

    def __init__(self, rows: Sequence[tuple], nvars: int, u: Sequence[int] = (), a: int = 0):
        m, n = len(rows), nvars
        u = u or (0,) * n
        # Columns: y_1..y_m, y_0 (also the right-hand side), one unit column
        # per row of sum y_i a_i = 0 and one for the row of y_0.  T holds D
        # times the true tableau, D the |determinant| of the basis; its last
        # row holds the reduced costs.  At the basis of the unit columns and
        # y_0, B^-1 (c; s) = (c - s u; s), and the prices are (0, 1 - a).
        T = [[c[j] - u[j] * s for c, _, s in rows] + [0] + [int(k == j) for k in range(n)] + [-u[j]]
             for j in range(n)]
        T.append([int(s) for _, _, s in rows] + [1] + [0] * n + [1])
        T.append([b + (a - 1) * s for _, b, s in rows] + [0] * (n + 1) + [a - 1])
        self.T, self.D, self.m, self.n = T, 1, m, n
        self.basis = [m + 1 + j for j in range(n)] + [m]

    def __len__(self) -> int:
        return self.m

    def _pivot(self, r: int, c: int):
        """The Bareiss step on pivot ``p = T[r][c]``: each other row becomes
        ``(p * row - row[c] * T[r]) // D``, a division that is exact."""
        T, D = self.T, self.D
        pr = T[r]
        p = pr[c]
        if p < 0:  # negating the pivot row keeps D = |det B| > 0
            p = -p
            T[r] = pr = [-x for x in pr]
        for i, row in enumerate(T):
            if i != r:
                f = row[c]
                T[i] = [(p * x - f * y) // D for x, y in zip(row, pr)]
        self.D = p
        self.basis[r] = c

    def run(self) -> tuple[list[int], int] | None:
        """Pivot to the optimum; the point of :func:`find_point`, or None
        when the system has no solution.  The multiplier x_j of row j is
        minus the reduced cost of its unit column."""
        T, m, n, basis = self.T, self.m, self.n, self.basis
        # First every unit column still basic leaves through the first y
        # entry of its row.  Its basic value is 0, so the basis stays feasible
        # whatever the pivot's sign.  A row with no y entry is redundant for
        # the rows so far and keeps its unit column basic at 0.
        for j in range(n + 1):
            if basis[j] > m:
                c = next((k for k in range(m) if T[j][k]), None)
                if c is not None:
                    self._pivot(j, c)
        obj = T[-1]
        while True:
            if obj[m] >= self.D:  # y_0's reduced cost is D (1 - the dual value)
                return None  # the dual value bounds mu from above and is <= 0
            # Bland's rule: the first column that lowers the dual value enters ...
            c = next((k for k in range(m + 1) if obj[k] < 0), None)
            if c is None:
                return [-x for x in obj[m + 1 : m + 1 + n]], self.D
            # ... and the ratio test breaks ties by the smallest basic column.
            r = None
            for i in range(n + 1):
                a = T[i][c]
                if a > 0:
                    if r is None:
                        r = i
                        continue
                    key = T[i][m] * T[r][c] - T[r][m] * a
                    if key < 0 or (key == 0 and basis[i] < basis[r]):
                        r = i
            if r is None:
                return None  # an unbounded dual: the non-strict rows alone are infeasible
            self._pivot(r, c)
            obj = T[-1]

    def _image(self, a: Sequence[int], cost: int) -> list[int]:
        """The column of the dual column ``(a; 1)`` of cost ``cost``: the unit
        columns hold D B^-1 and minus D times the prices, so their sum with
        weights ``(a; 1)``, plus D times the cost on the objective row, is
        ``D B^-1 (a; 1)`` and D times its reduced cost."""
        m, n = self.m, self.n
        mul = operator.mul
        col = [sum(map(mul, a, row[m + 1 : m + 1 + n])) + row[-1] for row in self.T]
        col[-1] += self.D * cost
        return col

    def add_row(self, a: Sequence[int], b: int):
        """Add the strict row ``a . x < b`` as a new dual column, of cost b."""
        m = self.m
        for row, v in zip(self.T, self._image(a, b)):
            row.insert(m, v)
        self.basis = [k + 1 if k >= m else k for k in self.basis]
        self.m = m + 1

    def retarget(self, u: Sequence[int], a: int):
        """Ask about the term ``(u, a)`` in place of the last one: y_0's
        column, the right-hand side, becomes the image of ``(u; 1)`` at cost
        ``1 - a`` (see the class docstring).  The basis of the last question
        is kept as far as it stays a basis and feasible, and :meth:`run`
        resumes Bland's rule from it:

        * y_0 basic, with an entry in its row: the new y_0 takes its place,
          and ``y_0 = 1`` is the basic solution, which is feasible, since
          y_0's column is the right-hand side.
        * y_0 basic, with 0 in its row: the old y_0 first leaves, at value 0,
          through its row's first other entry; then as below.  That entry
          can be a unit column's, basic in the old y_0's row, which can be
          the last, so the first step of :meth:`run` reads every row.
        * y_0 nonbasic: the basis stays when its solution is feasible, every
          unit column still basic at 0.  Otherwise y_0 enters at the row of
          the least nonzero basic value, the most negative one as the dual
          simplex method picks the row to leave, and again ``y_0 = 1`` is
          the basic solution.
        """
        T, m, n, basis = self.T, self.m, self.n, self.basis
        for row, v in zip(T, self._image(u, 1 - a)):
            row[m] = v
        r = basis.index(m) if m in basis else None
        if r is not None and not T[r][m]:
            self._pivot(r, next(k for k, x in enumerate(T[r]) if x and k != m))
            r = None
        if r is None:
            if all(T[i][m] >= 0 if basis[i] <= m else not T[i][m] for i in range(n + 1)):
                return
            r = min((i for i in range(n + 1) if T[i][m]), key=lambda i: T[i][m])
        self._pivot(r, m)


def find_point(lp: Tableau, nvars: int) -> tuple[list[int], int] | None:
    """``(xs, D)``, ints with D > 0, such that the rational point xs / D
    satisfies every row of the :class:`Tableau` ``lp`` on ``nvars``
    variables, or None when there is no such point.  ``lp`` is run on from
    the basis it holds, so a system asked again with rows added pays only
    for the new pivots.  ``nvars`` and ``len(lp)`` are read only by
    ``bench/spans.py``, which labels each call by them."""
    return lp.run()


# ---------------------------------------------------------------------------
# Fourier-Motzkin plans and the integer search.
# ---------------------------------------------------------------------------


_Plan = namedtuple("_Plan", "guards levels")


def _reduce(rows, guards: set) -> list:
    """The rows ``(c, combo, ineqs)`` of one projection, each divided by
    the gcd of its entries, without the rows that are redundant for every
    right-hand side; constant rows go to ``guards``.  ``ineqs`` is the
    bitmask of the input inequalities a row combines.  Of Chernikov's two
    rules this applies the subset rule; :func:`_plan` applies the count
    rule before it builds a row, so every row here already meets it."""
    best: dict = {}
    for c, combo, ineqs in rows:
        g = math.gcd(*c)
        if not g:
            guards.add(combo)
            continue
        g = math.gcd(g, *combo)
        c = tuple([x // g for x in c])
        combo = tuple([x // g for x in combo])
        best.setdefault((c, combo), ineqs)
    # Taken by size, a set is minimal iff no minimal set before it is a
    # subset of it.
    minimal: list = []
    for ineqs in sorted(set(best.values()), key=int.bit_count):
        if not any(o & ineqs == o for o in minimal):
            minimal.append(ineqs)
    keep = set(minimal)
    return [(c, combo, ineqs) for (c, combo), ineqs in best.items() if ineqs in keep]


def _plan(rows: tuple) -> _Plan:
    """The plan of the inequalities ``rows``, a ``_Plan(guards, levels)``.

    ``guards`` holds the ``combo`` of each constant row ``0 <= r``, where
    ``r`` is ``combo . rhs`` for the input right-hand sides ``rhs``.
    ``levels[k-1]`` is ``(uppers, lowers)``, the rows ``c . x + a z <= r``
    of the projection onto the first k variables, z the k-th, with
    ``a > 0`` and ``a < 0``; each row is ``(c, combo, |a|)``."""
    m, n = len(rows), len(rows[0]) if rows else 0
    unit = [tuple([int(i == x) for i in range(m)]) for x in range(m)]
    guards: set = set()
    levels: list = []
    cur = _reduce([(c, unit[x], 1 << x) for x, c in enumerate(rows)], guards)
    for t, k in enumerate(range(n, 0, -1), 1):
        j = k - 1
        nxt, uppers, lowers = [], [], []
        for c, combo, ineqs in cur:
            a = c[j]
            if a:
                (uppers if a > 0 else lowers).append((c[:j], combo, abs(a), ineqs))
            else:
                nxt.append((c[:j], combo, ineqs))
        levels.insert(0, ([row[:3] for row in uppers], [row[:3] for row in lowers]))
        for cl, combol, al, il in lowers:
            for cu, combou, au, iu in uppers:
                if (il | iu).bit_count() > t + 1:
                    continue  # Chernikov's count rule, before the row is built
                nxt.append((tuple([al * u + au * l for u, l in zip(cu, cl)]),
                            tuple([al * u + au * l for u, l in zip(combou, combol)]), il | iu))
        cur = _reduce(nxt, guards)
    return _Plan(tuple(guards), tuple(levels))


def integer_point_search(plan: _Plan, rhs: Sequence[int]):
    """Search for an integer x with every ``rows[i] . x <= rhs[i]``, on a
    system whose rational region is bounded.

    ``plan`` is ``_plan(rows)``, ``rows`` a tuple of int tuples all of one
    length, and ``rhs`` holds ints.  Returns (point, False): ``point`` is
    the lexicographically first integer point, or None when there is
    none; False says that no range was clipped, as none ever is.
    """
    mul = operator.mul
    for combo in plan.guards:
        if sum(map(mul, combo, rhs)) < 0:
            return None, False
    # levels[k] holds the rows (c, b, a) of plan.levels[k] with b = combo . rhs
    levels = []
    for uppers, lowers in plan.levels:
        if not (uppers and lowers):
            raise AssertionError("the search region must be bounded")
        levels.append(([(c, sum(map(mul, combo, rhs)), a) for c, combo, a in uppers],
                       [(c, sum(map(mul, combo, rhs)), a) for c, combo, a in lowers]))
    # point is the prefix at the current node, k its length, and his[i] the
    # top of the range of point[i].  c . point + a z <= b gives
    # z <= (b - c . point) // a on an upper row, and c . point - a z <= b
    # gives z >= -((b - c . point) // a) on a lower row.
    depth, point, his, k = len(levels), [], [], 0
    while k < depth:
        uppers, lowers = levels[k]
        hi = lo = None
        for c, b, a in uppers:
            z = (b - sum(map(mul, c, point))) // a
            if hi is None or z < hi:
                hi = z
        for c, b, a in lowers:
            z = -((b - sum(map(mul, c, point))) // a)
            if lo is None or z > lo:
                lo = z
        if lo <= hi:
            point.append(lo)
            his.append(hi)
            k += 1
            continue
        # an empty range: the next value of the deepest variable not at
        # the top of its range, or no point at all
        while k and point[-1] == his[-1]:
            point.pop()
            his.pop()
            k -= 1
        if not k:
            return None, False
        point[-1] += 1
    return tuple(point), False
