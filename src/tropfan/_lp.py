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

A primal row added to a solved system is a new dual column ``y`` at 0, so
the basis stays feasible and Bland's rule resumes from it instead of
solving from scratch (:meth:`Tableau.add_row`, then :func:`find_point` on
the tableau).  The tableau holds D B^-1 times its columns, and the y_0
and artificial columns began as unit columns, so the new column is their
combination with weights ``(a; s)``.  An artificial still basic is the
equality of a coordinate that the rows so far leave out; it is 0, and its
row has no y entry.  The new row can give that row an entry, and Bland's
rule could then move the artificial off 0, which drops the equality and
can prove a feasible system infeasible.  So every run begins with the
step that starts a fresh tableau: each basic artificial whose row has a y
entry leaves through the first one.  Its row's right-hand side is 0, so
any pivot sign keeps the basis feasible.  After a new row only its column
can be that entry, and once one artificial has left through it the other
such rows have none again.

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
from typing import NamedTuple, Optional, Sequence

# Only bench/spans.py reads this: it labels find_point calls in at most
# this many variables as low dimensional.
FM_MAX_VARS = 4


class Tableau:
    """The Farkas dual of the margin LP of integer rows, solved by Bland's
    rule on an integer-preserving tableau, that takes more rows as it goes.

    ``rows`` holds the triples ``(a, b, strict)`` of :func:`find_point`,
    with ``a`` an int sequence of length ``nvars`` and ``b`` an int.
    :meth:`run` goes to the optimum; :meth:`add_row` adds one primal row,
    after which :meth:`run` resumes from the basis it left.  Its length is
    its number of rows.
    """

    __slots__ = ("T", "basis", "D", "m", "n")

    def __init__(self, rows: Sequence[tuple], nvars: int):
        m, n = len(rows), nvars
        # Columns: y_1..y_m, y_0, one artificial per row of sum y_i a_i = 0, rhs.
        # T holds D times the true tableau, D the |determinant| of the basis;
        # its last row holds the reduced costs and minus the dual value.
        T = [[a[j] for a, _, _ in rows] + [0] + [int(k == j) for k in range(n)] + [0]
             for j in range(n)]
        T.append([int(strict) for _, _, strict in rows] + [1] + [0] * n + [1])
        T.append([b - int(strict) for _, b, strict in rows] + [0] * (n + 1) + [-1])
        self.T, self.D, self.m, self.n = T, 1, m, n
        self.basis = [m + 1 + j for j in range(n)] + [m]

    def __len__(self) -> int:
        return self.m

    def _pivot(self, r: int, c: int):
        """The Bareiss step on pivot ``T[r][c]``: each other row becomes
        ``(p * row - row[c] * T[r]) // D``, a division that is exact.  A
        row with 0 in column c is only scaled, by p / D, and is left as it
        is when p == D; with D == 1 there is nothing to divide.  These
        shortcuts give the same integers."""
        T, D = self.T, self.D
        pr = T[r]
        p = pr[c]
        if p < 0:  # negating the pivot row keeps D = |det B| > 0
            p = -p
            T[r] = pr = [-x for x in pr]
        for i, row in enumerate(T):
            if i == r:
                continue
            f = row[c]
            if not f:
                if p != D:
                    T[i] = [p * x // D for x in row]
            elif D == 1:
                T[i] = [p * x - f * y for x, y in zip(row, pr)]
            else:
                T[i] = [(p * x - f * y) // D for x, y in zip(row, pr)]
        self.D = p
        self.basis[r] = c

    def run(self) -> bool:
        """Pivot to the optimum; True iff the system has a solution."""
        T, m, n, basis = self.T, self.m, self.n, self.basis
        # First every artificial still basic leaves through the first y
        # entry of its row.  Its row's rhs is 0, so the basis stays feasible
        # whatever the pivot's sign.  A row with no y entry is redundant for
        # the rows so far and keeps its artificial basic at 0.
        for j in range(n):
            if basis[j] > m:
                c = next((k for k in range(m) if T[j][k]), None)
                if c is not None:
                    self._pivot(j, c)
        obj = T[-1]
        while True:
            if obj[-1] >= 0:
                return False  # the dual value bounds mu from above and is <= 0
            # Bland's rule: the first column that lowers the dual value enters ...
            c = next((k for k in range(m + 1) if obj[k] < 0), None)
            if c is None:
                return True
            # ... and the ratio test breaks ties by the smallest basic column.
            r = None
            for i in range(n + 1):
                a = T[i][c]
                if a > 0:
                    if r is None:
                        r = i
                        continue
                    key = T[i][-1] * T[r][c] - T[r][-1] * a
                    if key < 0 or (key == 0 and basis[i] < basis[r]):
                        r = i
            if r is None:
                return False  # an unbounded dual: the non-strict rows alone are infeasible
            self._pivot(r, c)
            obj = T[-1]

    def point(self) -> tuple[list[int], int]:
        """``(xs, D)`` with ``xs / D`` the point :meth:`run` found: the
        multiplier x_j of row j is minus the reduced cost of its artificial."""
        return [-x for x in self.T[-1][self.m + 1 : self.m + 1 + self.n]], self.D

    def add_row(self, a: Sequence[int], b: int, strict: bool):
        """Add the primal row ``a . x < b`` (``<=`` unless ``strict``) as a
        new dual column."""
        T, m, n, D = self.T, self.m, self.n, self.D
        s = int(strict)
        # The columns of y_0 and of the artificials hold D B^-1 times the unit
        # columns, so D B^-1 (a; s) is their combination, and the objective
        # row takes the same combination plus D times the cost b - s.
        for i, row in enumerate(T):
            v = s * row[m] + sum(map(operator.mul, a, row[m + 1 : m + 1 + n]))
            row.insert(m, v + D * (b - s) if i == n + 1 else v)
        self.basis = [k + 1 if k >= m else k for k in self.basis]
        self.m = m + 1


def find_point(lp: Tableau, nvars: int) -> Optional[tuple[list[int], int]]:
    """``(xs, D)``, ints with D > 0, such that the rational point xs / D
    satisfies every row of the :class:`Tableau` ``lp`` on ``nvars``
    variables, or None when there is no such point.  ``lp`` is run on from
    the basis it holds, so a system asked again with rows added pays only
    for the new pivots.  ``nvars`` and ``len(lp)`` are read only by
    ``bench/spans.py``, which labels each call by them."""
    return lp.point() if lp.run() else None


# ---------------------------------------------------------------------------
# Fourier-Motzkin plans and the integer search.
# ---------------------------------------------------------------------------


class _Plan(NamedTuple):
    """The chain of one system of rows.

    ``guards`` holds the ``combo`` of each constant row ``0 <= r``, where
    ``r`` is ``combo . rhs`` for the input right-hand sides ``rhs``.
    ``levels[k-1]`` is ``(uppers, lowers)``, the rows ``c . x + a z <= r``
    of the projection onto the first k variables, z the k-th, with
    ``a > 0`` and ``a < 0``; each row is ``(c, combo, |a|)``."""

    guards: tuple
    levels: tuple


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
        if g > 1:
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
    """The plan of the inequalities ``rows``."""
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
