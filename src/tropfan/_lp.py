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
Python ints only.  Each row is scaled to integers and divided by the gcd of
its entries; of the rows with the same primitive direction and strictness
only the tightest is kept.  Eliminating a variable adds ``|a_l| * upper +
a_u * lower`` for each pair of a lower and an upper row, strict if either
is, which keeps the rows integral without dividing (Schrijver, *Theory of
Linear and Integer Programming*, 1986, section 12.2).  When the rows hold
an equality ``e . x = v`` in the variable, as a non-strict upper row and
its exact negation, it is substituted instead: each other row ``c`` with
``c_j != 0`` becomes ``e_j * c - c_j * e``, keeping its strictness.  The
pairwise rows are implied by these, so each projection is the same
polyhedron with fewer rows.  At a search node the bound a row puts on the
next variable is a floor division of its residual.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Optional, Sequence

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
# Fraction-free Fourier-Motzkin projection and the integer search.
# ---------------------------------------------------------------------------


def _primitive_rows(cons) -> Optional[list[tuple[tuple, int, bool]]]:
    """The integer rows ``(c, r, strict)`` with each primitive direction and
    strictness kept once, with its tightest bound, and divided by the gcd
    of its entries; None on a constant contradiction.  A row ``c . x <= r``
    with ``g = gcd(c)`` bounds the primitive direction ``c / g`` by ``r / g``."""
    best: dict[tuple, tuple] = {}
    for c, r, s in cons:
        g = math.gcd(*c)
        if g == 0:
            # constant constraint: 0 < r or 0 <= r
            if r < 0 or (s and r == 0):
                return None
            continue
        key = (tuple(x // g for x in c) if g > 1 else c, s)
        old = best.get(key)
        # r / g < r' / g' with g, g' > 0
        if old is None or r * old[2] < old[1] * g:
            best[key] = (c, r, g)
    rows = []
    for (_, s), (c, r, g) in best.items():
        h = math.gcd(g, r)
        rows.append((tuple(x // h for x in c), r // h, s) if h > 1 else (c, r, s))
    return rows


def _levels(cons, nvars: int):
    """The Fourier-Motzkin chain for the search: ``levels[k]`` splits the
    projection onto the first k variables by the sign of the coefficient
    ``a`` of variable k-1 into ``(zeros, uppers, lowers)``: rows ``(c, r')``
    and ``(c, r', |a|)`` where ``c . x <= r'`` has the same integer points as
    the row (``r' = r - 1`` on a strict row).  None if the system is
    rationally infeasible.
    """
    cur = []
    for c, r, s in cons:
        c, r = _integral(c, r)
        cur.append((tuple(c), r, s))
    cur = _primitive_rows(cur)
    if cur is None:
        return None
    levels = [None] * (nvars + 1)
    for k in range(nvars, 0, -1):
        j = k - 1
        zeros, uppers, lowers, nxt = [], [], [], []
        for c, r, s in cur:
            a = c[j]
            if a == 0:
                zeros.append((c, r - s))
                nxt.append((c[:j], r, s))
            else:
                (uppers if a > 0 else lowers).append((c, r, s))
        # A non-strict upper row whose exact negation is a non-strict lower
        # row is an equality e . x = v with e_j > 0; both rows went through
        # _primitive_rows the same way, so the negation is exact.
        eqs = {(c, r) for c, r, s in lowers if not s}
        eq = next(((c, r) for c, r, s in uppers if not s and (tuple([-x for x in c]), -r) in eqs), None)
        if eq is not None:
            # Substitute it into every other row: e_j c - c_j e has no x_j
            # and the same strictness.  The pairwise rows are implied.
            ec, ev = eq
            ej = ec[j]
            for c, r, s in uppers + lowers:
                a = c[j]
                nxt.append((tuple([ej * x - a * y for x, y in zip(c[:j], ec)]), ej * r - a * ev, s))
        else:
            for cl, rl, sl in lowers:
                al = -cl[j]
                for cu, ru, su in uppers:
                    au = cu[j]
                    nxt.append((tuple([al * u + au * l for u, l in zip(cu[:j], cl)]), al * ru + au * rl, sl or su))
        levels[k] = (
            zeros,
            [(c, r - s, c[j]) for c, r, s in uppers],
            [(c, r - s, -c[j]) for c, r, s in lowers],
        )
        cur = _primitive_rows(nxt)
        if cur is None:
            return None
    return levels


def integer_point_search(cons: Sequence[Constraint], nvars: int, bound: int):
    """Search for an integer solution with every |x_i| <= bound.

    Returns (point, truncated).  ``point`` is a tuple of ints or None.
    ``truncated`` is True when some enumeration range was clipped at the
    bound, so a miss does not certify integer-infeasibility; a miss with
    ``truncated`` False (including rational infeasibility) does.
    """
    levels = _levels(cons, nvars)
    if levels is None:
        return None, False
    truncated = False
    mul = operator.mul

    def dfs(k: int, prefix: list[int]):
        nonlocal truncated
        if k > nvars:
            return tuple(prefix)
        zeros, uppers, lowers = levels[k]
        # c . prefix + a z <= r gives z <= (r - c . prefix) // a on an upper
        # row, and c . prefix - a z <= r gives z >= -((r - c . prefix) // a)
        # on a lower row.
        for c, r in zeros:
            if sum(map(mul, c, prefix)) > r:
                return None
        hi = lo = None
        for c, r, a in uppers:
            z = (r - sum(map(mul, c, prefix))) // a
            if hi is None or z < hi:
                hi = z
        for c, r, a in lowers:
            z = -((r - sum(map(mul, c, prefix))) // a)
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
