"""Exact rational linear feasibility, projection and integer search.

A constraint on k variables is a triple ``(coeffs, rhs, strict)`` read as
``coeffs . x < rhs`` when ``strict`` else ``coeffs . x <= rhs``.

:func:`find_point` decides a system in any number of variables with one
exact LP.  The margin LP ``max mu  s.t.  a_i . x + s_i mu <= b_i,  mu <= 1``
(``s_i`` = 1 on strict rows, 0 on the others) has a point with ``mu > 0``
iff the system has a solution.  It is solved as its Farkas dual

    min  sum b_i y_i + y_0   s.t.   sum y_i a_i = 0,   sum s_i y_i + y_0 = 1,   y >= 0

by Bland's rule on an integer-preserving (Bareiss) tableau of nvars + 1
rows.  ``y_0 = 1`` is always dual feasible, so the dual ends optimal, or
unbounded when the non-strict rows alone are infeasible.  At the optimum
the simplex multipliers are a primal optimum ``(x, mu)``.

:func:`integer_point_search` enumerates integer points depth first between
the exact per-variable bounds of a Fourier-Motzkin projection chain, in
Python ints only (Schrijver, *Theory of Linear and Integer Programming*,
1986, section 12.2).  The chain depends on the coefficients, not on the
right-hand sides, so it is built once per system as a *plan*:

* What a plan is built from: the coefficient rows, their strictness, and
  which pairs of non-strict rows bound the same hyperplane from both
  sides (``e . x <= v`` and a positive multiple of ``-e . x <= -v``).
  That last part reads the right-hand sides, but only as a pattern: each
  pattern of such equality pairs has its own plan.  Each row is scaled
  to integers by the denominators of its own coefficients.
* Right-hand sides: every row of the chain carries its right-hand side as
  an integer combination ``combo`` of the input right-hand sides, and the
  search evaluates ``combo . rhs`` exactly (int or Fraction).  A row
  ``c . x <= r`` (``< r``) then holds at an integer point iff
  ``c . x <= floor(r)`` (``<= ceil(r) - 1``).
* Elimination: an equality pair in the variable is substituted, each
  other row ``c`` becoming ``e_j c - c_j e`` with its strictness; the
  pairwise rows would be implied.  Otherwise each pair of a lower and an
  upper row adds ``|a_l| * upper + a_u * lower``, strict if either is.
  Both keep the rows integral without dividing.
* Guards: a row with no variable left is a condition ``0 <= combo . rhs``
  (``<`` if strict) on the right-hand sides.  The system is rationally
  feasible iff every guard holds; if one fails the answer is
  ``(None, False)`` before any search.
* Pruning: a row is dropped only when it is redundant for every
  right-hand side.  An exact duplicate (coefficients and combination) is
  one: the input inequalities a row combines, all with positive
  multipliers, and so its strictness follow from its combination.  By
  Chernikov's rule so is a row that combines more than t + 1 input
  inequalities after t pairing steps, or a strict superset of the
  inequalities of another row.  Such a row is not an extreme ray of the
  cone of multipliers that eliminate the variables, so it is the sum of
  rows of smaller support plus an equality (equality rows count no
  inequality, and a substitution is a bijection of rows that keeps their
  supports).
* Cache: one dict, ``_CACHE``, maps each coefficient system to its
  candidate equality pairs and each (system, pattern) to its plan.  It
  is emptied when storing would take it past ``_PLAN_CACHE_SIZE``
  entries, together with ``_INTERN``, the table that shares the integer
  tuples of the plans among them.  Nothing is built at import.  A plan
  costs about two of the per-call chains it replaces, so it pays from
  the second search on its system on.

The point and ``truncated`` do not depend on how the chain is written.
Each level is the exact projection onto its variables, so at a node the
range of the next variable, from the smallest to the largest integer
meeting every row of the slice, is fixed by the projection, and so is
whether the slice is bounded on each side (a nonempty slice is unbounded
below iff no row bounds it below).  The search checks only the rows with
the level's variable: by induction every prefix it builds lies in the
projection onto its variables.  The empty prefix does once the guards
hold, and a row of level k without variable k-1 is carried down to
level k - 1, where the prefix meets it or a row that implies it.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

Constraint = tuple[tuple, Fraction, bool]

# The benchmark labels find_point calls in at most this many variables as
# low dimensional; nothing in the program branches on it any more.
FM_MAX_VARS = 4


def _integral(c, r) -> tuple[list[int], int]:
    """The row (c, r) times the least positive integer making it integral."""
    if type(r) in (int, Fraction) and all(type(x) is int for x in c):
        d = r.denominator
        return ([x * d for x in c] if d != 1 else list(c)), r.numerator
    c = [Fraction(x) for x in c]
    r = Fraction(r)
    d = math.lcm(r.denominator, *(x.denominator for x in c))
    return [x.numerator * (d // x.denominator) for x in c], r.numerator * (d // r.denominator)


def find_point(cons: Sequence[Constraint], nvars: int) -> Optional[tuple]:
    """A rational point satisfying every constraint, or None."""
    m, n = len(cons), nvars
    A, b, s = [], [], []
    for coeffs, rhs, strict in cons:
        a, rhs = _integral(coeffs, rhs)
        A.append(a)
        b.append(rhs)
        s.append(1 if strict else 0)
    # Columns: y_1..y_m, y_0, one artificial per row of sum y_i a_i = 0, rhs.
    # T holds D times the true tableau, D the |determinant| of the basis;
    # its last row holds the reduced costs and minus the dual value.
    T = [[a[j] for a in A] + [0] + [int(k == j) for k in range(n)] + [0] for j in range(n)]
    T.append(s + [1] + [0] * n + [1])
    T.append([bi - si for bi, si in zip(b, s)] + [0] * (n + 1) + [-1])
    basis = [m + 1 + j for j in range(n)] + [m]
    D = 1

    def pivot(r: int, c: int):
        nonlocal D
        p, pr = T[r][c], T[r]
        for i, row in enumerate(T):
            if i != r:
                f = row[c]
                T[i] = [(p * x - f * y) // D for x, y in zip(row, pr)]
        if p < 0:
            T[:] = [[-x for x in row] for row in T]
        D = abs(p)
        basis[r] = c

    # Pivot each artificial out of the basis.  Its row's rhs is 0, so the
    # basis stays feasible whatever the pivot's sign.  A row left with no y
    # entry is redundant and keeps its artificial basic at 0.
    for j in range(n):
        c = next((k for k in range(m) if T[j][k]), None)
        if c is not None:
            pivot(j, c)
    while True:
        obj = T[-1]
        if obj[-1] >= 0:
            return None  # the dual value bounds mu from above and is <= 0
        # Bland's rule: the first column that lowers the dual value enters ...
        c = next((k for k in range(m + 1) if obj[k] < 0), None)
        if c is None:
            break
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
            return None  # an unbounded dual: the non-strict rows alone are infeasible
        pivot(r, c)
    # The multiplier x_j of row j is minus the reduced cost of its artificial.
    return tuple(Fraction(-x, D) for x in obj[m + 1 : m + 1 + n])


# ---------------------------------------------------------------------------
# Fourier-Motzkin plans and the integer search.
# ---------------------------------------------------------------------------

# Most entries, coefficient systems and plans together, that the plan cache
# holds; storing one more empties it first.  One pass of the benchmark's
# member workload stores 640 (320 systems and their plans), about 0.8 MiB;
# a full cache of member-like systems holds about 3 MiB.
_PLAN_CACHE_SIZE = 2048

# (nvars, coefficient rows, strict flags) -> _System, and
# (_System, indices of the equality pairs that hold) -> _Plan
_CACHE: dict = {}
# one object per distinct tuple held by the cached systems and plans
_INTERN: dict = {}


def _intern(t: tuple) -> tuple:
    return _INTERN.setdefault(t, t)


def _neg(t: tuple) -> tuple:
    return tuple([-x for x in t])


class _Plan(NamedTuple):
    """The chain of one coefficient system and pattern of equality pairs.

    ``guards`` holds ``(combo, strict)`` for each constant row ``0 <= r``
    (``0 < r`` if strict), where ``r`` is ``combo . rhs`` for the input
    right-hand sides ``rhs``.  ``rows`` is flat, five entries a row
    ``k, a, c[:k-1], combo, strict``: a row ``c . x <= r`` (``<`` if
    strict) of the projection onto the first k variables whose
    coefficient ``a = c[k-1]`` is not 0."""

    guards: tuple
    rows: tuple


def _scaled(c) -> tuple[tuple, int]:
    """``(d * c, d)`` for the least positive integer d making c integral."""
    if all(type(x) is int for x in c):
        return tuple(c), 1
    c = [Fraction(x) for x in c]
    d = math.lcm(*(x.denominator for x in c))
    return tuple([x.numerator * (d // x.denominator) for x in c]), d


def _reduce(rows, guards: set, paired: int) -> list:
    """The rows ``(c, combo, strict, ineqs)`` of one projection, each
    divided by the gcd of its entries, without the rows that are redundant
    for every right-hand side; constant rows go to ``guards``.  ``ineqs``
    is the bitmask of the input inequalities a row combines, and ``paired``
    the number of variables eliminated by pairing so far."""
    best: dict = {}
    for c, combo, strict, ineqs in rows:
        g = math.gcd(*c)
        if not g:
            if strict or any(combo):  # 0 <= 0 always holds
                guards.add(_intern((_intern(combo), strict)))
            continue
        g = math.gcd(g, *combo)
        if g > 1:
            c = tuple([x // g for x in c])
            combo = tuple([x // g for x in combo])
        best.setdefault((c, combo), (strict, ineqs))
    if not paired:  # every row combines at most one inequality
        return [(c, combo, strict, ineqs) for (c, combo), (strict, ineqs) in best.items()]
    # Chernikov: a row combining more than paired + 1 input inequalities,
    # or a strict superset of another row's, is not an extreme ray of the
    # projection cone, so the other rows imply it.  Taken by size, a set
    # is minimal iff no minimal set before it is a subset of it.
    minimal: list = []
    for ineqs in sorted({ineqs for _, ineqs in best.values() if ineqs}, key=int.bit_count):
        if ineqs.bit_count() > paired + 1:
            break
        if not any(o & ineqs == o for o in minimal):
            minimal.append(ineqs)
    keep = {0, *minimal}
    return [(c, combo, strict, ineqs) for (c, combo), (strict, ineqs) in best.items() if ineqs in keep]


class _System:
    """A coefficient system, its rows scaled to integers ``(d * c, d)``,
    and its candidate equality pairs ``(i, j, u, v)``: non-strict rows
    i < j of opposite primitive directions, which bound the same
    hyperplane exactly when ``rhs[j] * u == -rhs[i] * v``."""

    __slots__ = ("nvars", "stricts", "scaled", "pairs")

    def __init__(self, nvars: int, coeffs: tuple, stricts: tuple):
        self.nvars, self.stricts = nvars, stricts
        self.scaled = [(_intern(c), d) for c, d in map(_scaled, coeffs)]
        by_direction: dict = {}
        for i, ((c, d), strict) in enumerate(zip(self.scaled, stricts)):
            if any(c) and not strict:
                g = math.gcd(*c)
                p = tuple([x // g for x in c]) if g > 1 else c
                by_direction.setdefault(p, []).append((i, d, g))
        # rhs[i] * d_i / g_i bounds the primitive direction of row i
        pairs = []
        for p, ups in by_direction.items():
            q = _neg(p)
            if p > q and q in by_direction:
                pairs += [(min(i, j), max(i, j), dj * gi if i < j else di * gj, di * gj if i < j else dj * gi)
                          for i, di, gi in ups for j, dj, gj in by_direction[q]]
        pairs.sort()
        self.pairs = _intern(tuple(pairs))

    def plan(self, links: tuple) -> _Plan:
        """The plan when exactly the pairs ``links`` bound a hyperplane."""
        # Each row of a linked pair is replaced by plus or minus the first
        # row of its class, as the same half-space, and combines no
        # inequality: the class is one equality.
        rep: dict = {}
        for k in links:
            i, j = self.pairs[k][:2]
            if i in rep:
                rep.setdefault(j, (rep[i][0], -rep[i][1]))
            elif j in rep:
                rep[i] = (rep[j][0], -rep[j][1])
            else:
                rep[i], rep[j] = (i, 1), (i, -1)
        scaled = self.scaled
        m, n = len(scaled), self.nvars
        rows = []
        for x, strict in enumerate(self.stricts):
            root, sign = rep.get(x, (x, 1))
            c, d = scaled[root]
            combo = [0] * m
            combo[root] = sign * d
            rows.append((c if sign > 0 else _neg(c), tuple(combo), strict, 0 if x in rep else 1 << x))
        guards: set = set()
        flat: list = []
        paired = 0
        cur = _reduce(rows, guards, paired)
        for k in range(n, 0, -1):
            j = k - 1
            zeros, uppers, lowers = [], [], []
            for row in cur:
                a = row[0][j]
                (uppers if a > 0 else lowers if a < 0 else zeros).append(row)
            for c, combo, strict, _ in uppers + lowers:
                flat += (k, c[j], _intern(c[:j]), _intern(combo), strict)
            nxt = [(c[:j], combo, strict, ineqs) for c, combo, strict, ineqs in zeros]
            # A non-strict upper row whose exact negation, right-hand side
            # included, is a lower row is an equality e . x = v with
            # e_j > 0.  Substituting it, e_j c - c_j e, keeps each other
            # row's strictness; the pairwise rows are implied.  Only rows
            # combining no inequality can be one: the inequalities enter
            # every combination with positive multipliers.
            eq = None
            eqs = [row for row in uppers if not row[3] and not row[2]]
            if eqs:
                negs = {(c, combo) for c, combo, strict, ineqs in lowers if not ineqs and not strict}
                eq = next((row for row in eqs if (_neg(row[0]), _neg(row[1])) in negs), None)
            if eq is not None:
                ec, ecombo, _, _ = eq
                ej = ec[j]
                for c, combo, strict, ineqs in uppers + lowers:
                    a = c[j]
                    nxt.append((tuple([ej * x - a * y for x, y in zip(c[:j], ec)]),
                                tuple([ej * x - a * y for x, y in zip(combo, ecombo)]), strict, ineqs))
            else:
                paired += 1
                for cl, combol, sl, il in lowers:
                    al = -cl[j]
                    for cu, combou, su, iu in uppers:
                        if (il | iu).bit_count() > paired + 1:
                            continue  # _reduce's count rule, before the row is built
                        au = cu[j]
                        nxt.append((tuple([al * u + au * l for u, l in zip(cu[:j], cl)]),
                                    tuple([al * u + au * l for u, l in zip(combou, combol)]), sl or su, il | iu))
            cur = _reduce(nxt, guards, paired)
        return _Plan(tuple(guards), tuple(flat))


def _store(key, value):
    if len(_CACHE) >= _PLAN_CACHE_SIZE:
        _CACHE.clear()
        _INTERN.clear()
    _CACHE[key] = value
    return value


def _plan(cons: Sequence[Constraint], nvars: int) -> _Plan:
    """The cached plan of the system ``cons`` in ``nvars`` variables."""
    coeffs = tuple([c for c, _, _ in cons])
    stricts = tuple([strict for _, _, strict in cons])
    system = _CACHE.get((nvars, coeffs, stricts))
    if system is None:
        system = _System(nvars, coeffs, stricts)
        # The key shares the system's interned integer rows where they
        # equal the input rows.
        coeffs = tuple([s if d == 1 else c for c, (s, d) in zip(coeffs, system.scaled)])
        _store((nvars, coeffs, stricts), system)
    links = tuple([k for k, (i, j, u, v) in enumerate(system.pairs) if cons[j][1] * u == -cons[i][1] * v])
    plan = _CACHE.get((system, links))
    if plan is None:
        plan = _store((system, links), system.plan(links))
    return plan


def integer_point_search(cons: Sequence[Constraint], nvars: int, bound: int):
    """Search for an integer solution with every |x_i| <= bound.

    Returns (point, truncated).  ``point`` is a tuple of ints or None.
    ``truncated`` is True when some enumeration range was clipped at the
    bound, so a miss does not certify integer-infeasibility; a miss with
    ``truncated`` False (including rational infeasibility) does.
    """
    plan = _plan(cons, nvars)
    rhs = [r if type(r) is int or type(r) is Fraction else Fraction(r) for _, r, _ in cons]
    mul = operator.mul
    for combo, strict in plan.guards:
        r = sum(map(mul, combo, rhs))
        if r < 0 or (strict and r == 0):
            return None, False
    # levels[k] holds the rows (c, b, |a|) with c . x <= b at every integer
    # point x, split into upper (a > 0) and lower rows.
    levels = [([], []) for _ in range(nvars + 1)]
    it = iter(plan.rows)
    for k, a, c, combo, strict in zip(it, it, it, it, it):
        r = sum(map(mul, combo, rhs))
        b = -(-r // 1) - 1 if strict else r // 1
        if a > 0:
            levels[k][0].append((c, b, a))
        else:
            levels[k][1].append((c, b, -a))
    truncated = False

    def dfs(k: int, prefix: list[int]):
        nonlocal truncated
        if k > nvars:
            return tuple(prefix)
        uppers, lowers = levels[k]
        # c . prefix + a z <= b gives z <= (b - c . prefix) // a on an upper
        # row, and c . prefix - a z <= b gives z >= -((b - c . prefix) // a)
        # on a lower row.
        hi = lo = None
        for c, b, a in uppers:
            z = (b - sum(map(mul, c, prefix))) // a
            if hi is None or z < hi:
                hi = z
        for c, b, a in lowers:
            z = -((b - sum(map(mul, c, prefix))) // a)
            if lo is None or z > lo:
                lo = z
        if lo is None or lo < -bound:
            lo = -bound
            truncated = True
        if hi is None or hi > bound:
            hi = bound
            truncated = True
        for z in range(lo, hi + 1):
            prefix.append(z)
            found = dfs(k + 1, prefix)
            prefix.pop()
            if found is not None:
                return found
        return None

    return dfs(1, []), truncated
