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

:func:`integer_point_search` enumerates integer points between the exact
per-variable bounds of a Fourier-Motzkin projection chain.
"""

from __future__ import annotations

import math
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
# Fourier-Motzkin projection, for the exact bounds of the integer search.
# ---------------------------------------------------------------------------


def _normalize(con: Constraint) -> Constraint:
    """Scale so coefficients are coprime integers (rhs stays a Fraction)."""
    c, r, s = con
    c = tuple(Fraction(x) for x in c)
    r = Fraction(r)
    scale = math.lcm(*(x.denominator for x in c), r.denominator) if c else r.denominator
    c = tuple(x * scale for x in c)
    r = r * scale
    g = math.gcd(*(abs(int(x)) for x in c)) if c else 0
    if g > 1:
        c = tuple(x / g for x in c)
        r = r / g
    return (tuple(int(x) for x in c), r, s)


def _dedupe(cons: Sequence[Constraint]) -> Optional[list[Constraint]]:
    """Drop duplicates/tautologies; return None on a constant contradiction."""
    best: dict[tuple, Fraction] = {}
    for con in cons:
        c, r, s = _normalize(con)
        if not any(c):
            # constant constraint: 0 < r or 0 <= r
            if r < 0 or (s and r == 0):
                return None
            continue
        key = (c, s)
        if key not in best or r < best[key]:
            best[key] = r
    return [(c, r, s) for (c, s), r in best.items()]


def _eliminate(cons: Sequence[Constraint], k: int) -> list[Constraint]:
    """Project out variable k-1 from a system on k variables."""
    lowers = []  # x >= rhs - coeffs.y   (strictness recorded)
    uppers = []  # x <= rhs - coeffs.y
    rest = []
    for c, r, s in cons:
        a = c[k - 1]
        head = c[: k - 1]
        if a == 0:
            rest.append((head, r, s))
        else:
            scaled = (tuple(Fraction(x, a) for x in head), Fraction(r, a), s)
            (uppers if a > 0 else lowers).append(scaled)
    for cl, rl, sl in lowers:
        for cu, ru, su in uppers:
            # rl - cl.y (<|<=) ru - cu.y
            rest.append((tuple(u - l for u, l in zip(cu, cl)), ru - rl, sl or su))
    return rest


def _build_chain(cons: Sequence[Constraint], nvars: int) -> Optional[list[list[Constraint]]]:
    """systems[k] = exact projection onto the first k variables, or None if infeasible."""
    cur = _dedupe(cons)
    if cur is None:
        return None
    systems: list = [None] * (nvars + 1)
    systems[nvars] = cur
    for k in range(nvars, 0, -1):
        cur = _dedupe(_eliminate(cur, k))
        if cur is None:
            return None
        systems[k - 1] = cur
    return systems


def _interval(cons: Sequence[Constraint], prefix: Sequence[Fraction], k: int):
    """Bounds for variable k-1 given values for variables 0..k-2.

    Returns (lo, lo_strict, hi, hi_strict) with None for an absent bound,
    or None if a constraint not involving variable k-1 is violated.
    """
    lo = hi = None
    lo_s = hi_s = False
    for c, r, s in cons:
        a = c[k - 1]
        rest = r - sum(ci * pi for ci, pi in zip(c[: k - 1], prefix))
        if a == 0:
            if rest < 0 or (s and rest == 0):
                return None
        elif a > 0:
            bound = Fraction(rest, a)
            if hi is None or bound < hi:
                hi, hi_s = bound, s
            elif bound == hi:
                hi_s = hi_s or s
        else:
            bound = Fraction(rest, a)
            if lo is None or bound > lo:
                lo, lo_s = bound, s
            elif bound == lo:
                lo_s = lo_s or s
    return (lo, lo_s, hi, hi_s)


def integer_point_search(cons: Sequence[Constraint], nvars: int, bound: int):
    """Search for an integer solution with every |x_i| <= bound.

    Returns (point, truncated).  ``point`` is a tuple of ints or None.
    ``truncated`` is True when some enumeration range was clipped at the
    bound, so a miss does not certify integer-infeasibility; a miss with
    ``truncated`` False (including rational infeasibility) does.
    """
    systems = _build_chain(cons, nvars)
    if systems is None:
        return None, False
    truncated = False

    def int_range(iv):
        nonlocal truncated
        lo, lo_s, hi, hi_s = iv
        if lo is None:
            lo_i = -bound
            truncated = True
        else:
            lo_i = math.ceil(lo)
            if lo_s and lo_i == lo:
                lo_i += 1
            if lo_i < -bound:
                lo_i = -bound
                truncated = True
        if hi is None:
            hi_i = bound
            truncated = True
        else:
            hi_i = math.floor(hi)
            if hi_s and hi_i == hi:
                hi_i -= 1
            if hi_i > bound:
                hi_i = bound
                truncated = True
        return lo_i, hi_i

    def dfs(k: int, prefix: list[int]):
        if k > nvars:
            return tuple(prefix)
        iv = _interval(systems[k], prefix, k)
        if iv is None:
            return None
        lo_i, hi_i = int_range(iv)
        for z in range(lo_i, hi_i + 1):
            prefix.append(z)
            found = dfs(k + 1, prefix)
            prefix.pop()
            if found is not None:
                return found
        return None

    return dfs(1, []), truncated


# ---------------------------------------------------------------------------
# Exact rational linear algebra helpers.
# ---------------------------------------------------------------------------


def rref(rows: Sequence[Sequence[Fraction]]):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    a = [[Fraction(x) for x in row] for row in rows]
    if not a:
        return a, []
    ncols = len(a[0])
    pivots = []
    r = 0
    for col in range(ncols):
        if r == len(a):
            break
        sel = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        piv = a[r][col]
        a[r] = [x / piv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    return a, pivots


def kernel_basis(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[tuple]:
    """Basis of {t : rows . t = 0} via the standard free-variable construction."""
    a, pivots = rref(rows)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -a[r][f]
        basis.append(tuple(vec))
    return basis
