"""Independent oracles and random-input generators shared by the test
modules.  Everything here is deliberately written from first principles
(Gaussian elimination and Fourier-Motzkin elimination over Fraction,
determinantal divisors, hull membership by Gordan's theorem) so that
agreement with the library is meaningful.
"""

import math
import random
import re
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from tropfan import NEG_INF, BadParameters, CanonicalFn, IntMatrix, LaurentPoly, ParseError, WeightedFan, _lp
from tropfan.laurent import MAX_TEXT_VARS
from tropfan.semiring import as_int, as_scaled


# ----------------------------------------------------------- exact det


def frac_det(rows):
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = a[c][c]
        for r in range(c + 1, n):
            if a[r][c]:
                f = a[r][c] / inv
                for k in range(c, n):
                    a[r][k] -= f * a[c][k]
    return det


def minor_divisor_factors(rows):
    """Invariant factors via determinantal divisors: d_k = gcd of all
    k x k minors, alpha_k = d_k / d_{k-1}."""
    m, n = len(rows), len(rows[0])
    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rset in combinations(range(m), k):
            for cset in combinations(range(n), k):
                sub = [[rows[i][j] for j in cset] for i in rset]
                d = frac_det(sub)
                assert d.denominator == 1
                g = math.gcd(g, abs(int(d)))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


# ----------------------------------------------------- Hermite form


def _xgcd(p, q):
    """(g, x, y) with x*p + y*q = g = gcd(p, q) >= 0."""
    r0, r1, x0, x1, y0, y1 = p, q, 1, 0, 0, 1
    while r1:
        t = r0 // r1
        r0, r1, x0, x1, y0, y1 = r1, r0 - t * r1, x1, x0 - t * x1, y1, y0 - t * y1
    return (r0, x0, y0) if r0 >= 0 else (-r0, -x0, -y0)


def xgcd_hnf(rows):
    """Column Hermite normal form by extended-gcd column pairs: each later
    column is folded into the pivot column by the determinant-1 step
    (col_c, col_j) -> (x col_c + y col_j, -q/g col_c + p/g col_j), then the
    pivot is made positive and the entries left of it reduced into
    [0, pivot).  H is unique, so any correct HNF must agree."""
    a = [list(r) for r in rows]
    n = len(a[0])
    c = 0
    for r in range(len(a)):
        if c == n:
            break
        for j in range(c + 1, n):
            p, q = a[r][c], a[r][j]
            if q:
                g, x, y = _xgcd(p, q)
                for row in a:
                    u, v = row[c], row[j]
                    row[c], row[j] = x * u + y * v, (p // g) * v - (q // g) * u
        piv = a[r][c]
        if piv == 0:
            continue
        if piv < 0:
            for row in a:
                row[c] = -row[c]
            piv = -piv
        for j in range(c):
            k = a[r][j] // piv
            for row in a:
                row[j] -= k * row[c]
        c += 1
    return a


def reference_hnf_core(a, U):
    """The earlier ``intlat._hnf_core``, kept as the reference for the
    differential test: floor quotients, every operation applied to every
    row, and each pivot's left reductions made as soon as it is found.
    Same contract: ``a`` and ``U`` are changed in place, the pivots are
    returned as (row, column) pairs."""
    n = len(a[0])

    def col_add(j, i, k):  # col_j += k*col_i; col_add(c, c, -2) negates col_c
        for row in both:
            row[j] += k * row[i]

    def col_swap(i, j):
        for row in both:
            row[i], row[j] = row[j], row[i]

    pivots = []
    c = 0
    for r, arow in enumerate(a):
        if c == n:
            break
        both = a[r:] + U
        while True:
            jmin = None
            for j in range(c, n):
                v = abs(arow[j])
                if v and (jmin is None or v < abs(arow[jmin])):
                    jmin = j
            if jmin is None:
                break
            if jmin != c:
                col_swap(c, jmin)
            done = True
            for j in range(c + 1, n):
                if arow[j]:
                    col_add(j, c, -(arow[j] // arow[c]))
                    done = done and arow[j] == 0
            if done:
                break
        if arow[c] == 0:
            continue
        if arow[c] < 0:
            col_add(c, c, -2)
        for j in range(c):
            q = arow[j] // arow[c]
            if q:
                col_add(j, c, -q)
        pivots.append((r, c))
        c += 1
    return pivots


# -------------------------------------------------- hull vertex oracle


def hull_vertices(points):
    """The vertex set of conv(points), by brute force.  A point p is a
    vertex iff some f has (q - p) . f < 0 for every other point q left, a
    strict system that :func:`fm_point` decides; by Gordan's theorem it has
    no solution iff p lies in the hull of those q.  A point proven inside
    leaves the rest: the hull of the rest does not change, and no vertex is
    ever proven inside, so every answer stays exact."""
    pts = sorted(set(map(tuple, points)))
    if len(pts) <= 1:
        return set(pts)
    n = len(pts[0])
    rest = set(pts)
    for p in pts:
        cons = [(tuple(a - b for a, b in zip(q, p)), 0, True) for q in sorted(rest - {p})]
        if fm_point(cons, n) is None:
            rest.remove(p)
    return rest


# --------------------------------------------------- exact grid values


def joint_denominator(*polys):
    d = 1
    for P in polys:
        for _, c in P.terms:
            d = math.lcm(d, Fraction(c).denominator)
    return d


def grid_values(P, scale, span=10):
    """Values of 2*scale*P on the half-integer grid (q/2 for q in
    [-span, span]^n), computed exactly in int64.  None for the empty
    polynomial (identically -inf)."""
    import numpy as np

    if not P:
        return None
    n = P.num_vars
    axes = [np.arange(-span, span + 1, dtype=np.int64) for _ in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
    E = np.array([list(u) for u, _ in P.terms], dtype=np.int64)
    C = np.array([int(Fraction(c) * 2 * scale) for _, c in P.terms], dtype=np.int64)
    vals = scale * (E @ pts.T) + C[:, None]
    return vals.max(axis=0)


# ------------------------------------- polynomials over Fraction


def frac_values(P, p):
    """Each term's value a_u + u.p at the point p, in Fraction arithmetic."""
    return [Fraction(c) + sum(e * Fraction(x) for e, x in zip(u, p)) for u, c in P.terms]


def frac_eval(P, p):
    return max(frac_values(P, p), default=NEG_INF)


def frac_initial_form(P, p):
    vals = frac_values(P, p)
    top = max(vals)
    return LaurentPoly(P.num_vars, tuple(t for t, v in zip(P.terms, vals) if v == top))


def tableau(cons, nvars):
    """The ``_lp.Tableau`` of rational constraints ``(coeffs, rhs, strict)``
    on nvars variables, each row scaled to integers by ``as_scaled``."""
    rows = [(as_scaled([*c, r])[0], strict) for c, r, strict in cons]
    return _lp.Tableau([(s[:-1], s[-1], strict) for s, strict in rows], nvars)


def all_rivals_canonicalize(P):
    """Keep term i iff a_i + u_i.p > a_j + u_j.p is feasible for every
    other term j at once: one LP per term, against all the other terms.
    The LP is the library's ``_lp.find_point``, which ``test_lp`` checks
    against :func:`fm_point`; only the search around it is independent."""
    kept = []
    for i, (u, a) in enumerate(P.terms):
        cons = [
            (tuple(x - y for x, y in zip(v, u)), a - b, True)
            for j, (v, b) in enumerate(P.terms)
            if j != i
        ]
        if _lp.find_point(tableau(cons, P.num_vars), P.num_vars) is not None:
            kept.append((u, a))
    return CanonicalFn(P.num_vars, tuple(kept))


def fraction_row_witness(P, Q):
    """fn_witness on rational rows: for each term (u, a) of one side that
    the other side's term of the same exponent does not dominate, the first
    point where ``(v - u) . p < a - b`` holds for every term (v, b) of the
    other side, as ``_lp.find_point`` answers these rational rows scaled
    to integers one by one (:func:`tableau`)."""
    for A, B in ((P, Q), (Q, P)):
        coeffs = dict(B.terms)
        for u, a in A.terms:
            if u in coeffs and coeffs[u] >= a:
                continue
            cons = [(tuple(y - x for x, y in zip(u, v)), a - b, True) for v, b in B.terms]
            found = _lp.find_point(tableau(cons, P.num_vars), P.num_vars)
            if found is not None:
                xs, D = found
                return tuple(Fraction(x, D) for x in xs)
    return None


def rand_scale_pair(rng: random.Random, n, max_den=6):
    """P and Q in n variables with coefficient denominators up to max_den.
    Either side is sometimes bottom; otherwise Q is often built from P's
    terms, each kept with its coefficient, moved or dropped, so that equal
    coefficients and equal functions are common."""
    def poly():
        return rand_poly(rng, n, max_terms=5, max_den=max_den) if rng.random() < 0.9 else LaurentPoly.zero(n)

    P = poly()
    if rng.random() < 0.5:
        return P, poly()
    items = [(u, c + Fraction(rng.randint(-2, 2), rng.randint(1, max_den)) if rng.random() < 0.2 else c)
             for u, c in P.terms if rng.random() < 0.9]
    if rng.random() < 0.2:
        items += rand_poly(rng, n, max_terms=2, max_den=max_den).terms
    return P, LaurentPoly.make(n, items)


def rand_canon_case(rng: random.Random, n, kind, max_terms=8, exp=3):
    """A polynomial in n variables of one of the shapes canonicalization
    must get right: ``empty``, ``single``, ``boolean`` (every coefficient
    0, so every value ties), ``collinear`` exponents, ``tied`` (few
    distinct coefficient values), ``lifted`` (coefficients -|u|^2, every
    term kept) and ``general``."""
    k = rng.randint(2, max_terms)

    def exps(count):
        return [tuple(rng.randint(-exp, exp) for _ in range(n)) for _ in range(count)]

    if kind == "empty":
        return LaurentPoly.zero(n)
    if kind == "single":
        return rand_poly(rng, n, max_terms=1)
    if kind == "boolean":
        return LaurentPoly.make(n, [(u, 0) for u in exps(k)])
    if kind == "collinear":
        (base,), step = exps(1), tuple(rng.randint(-2, 2) for _ in range(n))
        coeff = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k)]
        return LaurentPoly.make(n, [(tuple(b + t * s for b, s in zip(base, step)), c)
                                    for t, c in zip(range(-k // 2, k), coeff)])
    if kind == "tied":
        values = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(2)]
        return LaurentPoly.make(n, [(u, rng.choice(values)) for u in exps(k)])
    if kind == "lifted":
        return LaurentPoly.make(n, [(u, -sum(x * x for x in u)) for u in exps(k)])
    return rand_poly(rng, n, max_terms=max_terms, exp=exp)


CANON_KINDS = ("empty", "single", "boolean", "collinear", "tied", "lifted", "general")


# ------------------------------------------------------- brute lattice


def brute_lattice_solve(A: IntMatrix, b, box):
    """Exhaustive search for integer z in [-box, box]^n with A.z = b."""
    n = A.cols

    def rec(prefix):
        if len(prefix) == n:
            return tuple(prefix) if list(A.apply(prefix)) == list(b) else None
        for v in range(-box, box + 1):
            got = rec(prefix + [v])
            if got is not None:
                return got
        return None

    return rec([])


def frac_unique_solve(rows, b):
    """The unique rational z with rows.z = b, by Gauss-Jordan elimination
    over Fraction; "rank-deficient" when the columns are dependent (checked
    first), else "inconsistent" when there is no solution."""
    n = len(rows[0])
    a = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(rows, b)]
    for c in range(n):
        piv = next((r for r in range(c, len(a)) if a[r][c]), None)
        if piv is None:
            return "rank-deficient"
        a[c], a[piv] = a[piv], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(len(a)):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    if any(row[n] for row in a[n:]):
        return "inconsistent"
    return tuple(a[c][n] for c in range(n))


# ------------------------------------------------------------- random


def rand_matrix(rng: random.Random, m, n, lo=-9, hi=9) -> IntMatrix:
    return IntMatrix.from_rows([[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)])


def rand_unimodular(rng: random.Random, n, steps=12) -> IntMatrix:
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if op == 0 and i != j:
            k = rng.randint(-3, 3)
            for c in range(n):
                u[i][c] += k * u[j][c]
        elif op == 1:
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-x for x in u[i]]
    return IntMatrix.from_rows(u)


def rand_balanced_fan(rng: random.Random, n, max_rays=6, max_weight=3) -> WeightedFan:
    while True:
        k = rng.randint(2, max_rays)
        gens = []
        for _ in range(k - 1):
            v = [rng.randint(-4, 4) for _ in range(n)]
            if not any(v):
                break
            w = rng.randint(1, max_weight)
            gens.append([w * x for x in v])
        else:
            last = [-sum(col) for col in zip(*gens)]
            if any(last):
                gens.append(last)
                try:
                    return WeightedFan.build(n, [(g, 1) for g in gens])
                except Exception:
                    continue
        continue


def rand_point(rng: random.Random, n, span=9, max_den=4):
    return tuple(Fraction(rng.randint(-span, span), rng.randint(1, max_den)) for _ in range(n))


def rand_boolean_poly(rng: random.Random, n, max_terms=6, exp=3) -> LaurentPoly:
    k = rng.randint(1, max_terms)
    items = [(tuple(rng.randint(-exp, exp) for _ in range(n)), 0) for _ in range(k)]
    return LaurentPoly.make(n, items)


def rand_poly(rng: random.Random, n, max_terms=6, exp=3, span=6, max_den=3) -> LaurentPoly:
    k = rng.randint(1, max_terms)
    items = [
        (
            tuple(rng.randint(-exp, exp) for _ in range(n)),
            Fraction(rng.randint(-span, span), rng.randint(1, max_den)),
        )
        for _ in range(k)
    ]
    return LaurentPoly.make(n, items)


def rand_morphism(rng: random.Random, max_dim=3):
    """A random valid FanMorphism with balanced source; the target is the
    fan spanned by the ray images (weight 1 each)."""
    from tropfan import FanMorphism, primitive

    while True:
        n = rng.randint(1, max_dim)
        m = rng.randint(1, max_dim)
        X = rand_balanced_fan(rng, n, max_rays=5)
        T = rand_matrix(rng, m, n, -3, 3)
        images = []
        for ray in X.rays:
            img = T.apply(ray.direction)
            if any(img):
                images.append(primitive(img)[1])
        if not images:
            continue
        try:
            Y = WeightedFan.build(m, [(list(d), 1) for d in set(images)])
            return FanMorphism(X, Y, T)
        except Exception:
            continue


# ------------------------------------------ Fourier-Motzkin over Fraction


def _fm_normalize(con):
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


def _fm_dedupe(cons):
    """Drop duplicates/tautologies; return None on a constant contradiction."""
    best = {}
    for con in cons:
        c, r, s = _fm_normalize(con)
        if not any(c):
            # constant constraint: 0 < r or 0 <= r
            if r < 0 or (s and r == 0):
                return None
            continue
        key = (c, s)
        if key not in best or r < best[key]:
            best[key] = r
    return [(c, r, s) for (c, s), r in best.items()]


def _fm_eliminate(cons, k):
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


def fm_chain(cons, nvars):
    """systems[k] = exact projection onto the first k variables, or None if infeasible."""
    cur = _fm_dedupe(cons)
    if cur is None:
        return None
    systems = [None] * (nvars + 1)
    systems[nvars] = cur
    for k in range(nvars, 0, -1):
        cur = _fm_dedupe(_fm_eliminate(cur, k))
        if cur is None:
            return None
        systems[k - 1] = cur
    return systems


def fm_interval(cons, prefix, k):
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


def fm_integer_point_search(cons, nvars, bound):
    """The integer search over the Fraction chain: (point, truncated), with
    the points enumerated in the same order as ``_lp.integer_point_search``."""
    systems = fm_chain(cons, nvars)
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

    def dfs(k, prefix):
        if k > nvars:
            return tuple(prefix)
        iv = fm_interval(systems[k], prefix, k)
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


def _fm_pick(lo, lo_s, hi, hi_s):
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return hi - 1
    if hi is None:
        return lo + 1
    if lo > hi:
        return None
    if lo == hi:
        return None if (lo_s or hi_s) else lo
    return (lo + hi) / 2


def fm_point(cons, nvars):
    """A point of a strict/non-strict system by Fourier-Motzkin
    elimination and back-substitution, or None when there is none."""
    systems = fm_chain(cons, nvars)
    if systems is None:
        return None
    point = []
    for k in range(1, nvars + 1):
        iv = fm_interval(systems[k], point, k)
        v = None if iv is None else _fm_pick(*iv)
        if v is None:
            return None
        point.append(v)
    return tuple(point)


# ------------------------------------------------ per-ray image membership


def weighted_values(X, exponents):
    """rho |-> max_u w_rho * (u . d_rho) for the Boolean polynomial with the
    given exponents, in integers."""
    return tuple(max(ray.weight * sum(u * d for u, d in zip(z, ray.direction)) for z in exponents)
                 for ray in X.rays)


def per_ray_membership(X, values, bound):
    """Image membership by one exponent search per ray and nothing else:
    ray a needs an integer z with z . g_b <= G(b) at every ray b and
    equality at a (g the weighted directions), found by
    :func:`fm_integer_point_search` in the box |z| <= bound.  Returns
    ("member", exponents) with one exponent per ray, ("non-member", None)
    at the first proven miss, or ("inconclusive", None) when a search was
    clipped by the box and none proved a miss."""
    gens = [tuple(ray.weight * x for x in ray.direction) for ray in X.rays]
    rows = [(g, v, False) for g, v in zip(gens, values)]
    exponents, unknown = [], False
    for g, v in zip(gens, values):
        z, truncated = fm_integer_point_search(rows + [(tuple(-x for x in g), -v, False)], X.ambient_dim, bound)
        if z is not None:
            exponents.append(z)
        elif truncated:
            unknown = True
        else:
            return "non-member", None
    return ("inconclusive", None) if unknown else ("member", exponents)


def rand_unbalanced_fan(rng: random.Random, n, max_rays=5, max_weight=3) -> WeightedFan:
    """Rays in random directions and weights, balanced only by chance."""
    while True:
        rays = [(tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(1, max_weight))
                for _ in range(rng.randint(1, max_rays))]
        try:
            return WeightedFan.build(n, rays)
        except Exception:
            continue


# ------------------------------------------------ ray lookup by ratios


def positive_multiple(v: Sequence, d: Sequence[int]) -> bool:
    """True iff v = t * d for some rational t > 0."""
    t = None
    for vi, di in zip(v, d):
        if di == 0:
            if vi != 0:
                return False
        else:
            ratio = Fraction(vi, di)
            if t is None:
                t = ratio
            elif ratio != t:
                return False
    return t is not None and t > 0


# ------------------------------------------------ polynomial text, by regex
#
# The text parser as it was before the one-pass tokenizer, copied verbatim:
# a regular expression per factor and a Fraction per coefficient.  The
# library's parser must accept and reject the same texts, with the same
# messages, and return the same polynomial.

_ALIASES = {"x": 1, "y": 2, "z": 3, "w": 4}
_NAME_RE = re.compile(r"^([a-z]+?)(\d*)$")
_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")


def _var_index(name: str) -> int:
    m = _NAME_RE.match(name)
    if m:
        base, digits = m.groups()
        if base == "x" and digits:
            try:
                idx = as_int(digits)
            except ValueError as exc:  # past sys.get_int_max_str_digits()
                raise ParseError(f"bad variable index: {exc}") from exc
            if idx < 1:
                raise ParseError(f"variable indices start at 1, got {name!r}")
            if idx > MAX_TEXT_VARS:
                raise ParseError(f"variable index {idx} above the limit {MAX_TEXT_VARS}")
            return idx
        if not digits and base in _ALIASES:
            return _ALIASES[base]
    raise ParseError(f"unknown variable {name!r} (use x1..xn or x, y, z, w)")


def parse_poly_text(text: str, num_vars: Optional[int] = None) -> LaurentPoly:
    """Parse ``c*x1^e1*...`` terms joined by '+'; '-inf' is the bottom
    polynomial.  An omitted coefficient means the tropical one (0)."""
    if num_vars is not None and num_vars < 0:
        raise BadParameters(f"negative variable count {num_vars}")
    if num_vars is not None and num_vars > MAX_TEXT_VARS:
        raise BadParameters(f"variable count {num_vars} above the limit {MAX_TEXT_VARS}")
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial text")
    raw_terms = []
    max_idx = 0
    for piece in s.split("+"):
        piece = piece.strip()
        if not piece:
            raise ParseError(f"empty term in {text!r}")
        if piece == "-inf":
            continue
        coeff = Fraction(0)
        exps: dict[int, int] = {}
        for factor in piece.split("*"):
            factor = factor.strip()
            if not factor:
                raise ParseError(f"empty factor in term {piece!r}")
            if _RATIONAL_RE.match(factor):
                try:
                    coeff += Fraction(factor)
                except ZeroDivisionError as exc:
                    raise ParseError(f"zero denominator in {factor!r}") from exc
                except ValueError as exc:  # past sys.get_int_max_str_digits()
                    raise ParseError(f"bad coefficient: {exc}") from exc
                continue
            name, caret, power = factor.partition("^")
            idx = _var_index(name.strip())
            try:
                e = as_int(power) if caret else 1
            except ValueError as exc:
                raise ParseError(f"bad exponent in factor {factor!r}") from exc
            exps[idx] = exps.get(idx, 0) + e
            max_idx = max(max_idx, idx)
        raw_terms.append((coeff, exps))
    n = num_vars if num_vars is not None else max(max_idx, 1)
    if max_idx > n:
        raise ParseError(f"variable x{max_idx} out of range for {n} variables")
    return LaurentPoly.make(
        n,
        [
            (tuple(exps.get(i + 1, 0) for i in range(n)), coeff)
            for coeff, exps in raw_terms
        ],
    )
