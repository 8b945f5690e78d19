"""Exact reference computations and answer checkers for the benchmark.

Nothing here calls tropfan: every checker recomputes what it needs from
first principles (max-plus evaluation over Fraction, Gaussian elimination
over Fraction, determinantal divisors) so that agreement with the program
means something.  A checker returns None for a correct answer and a short
reason string otherwise.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import combinations
from typing import Optional

# ------------------------------------------------------------ max-plus


def trop_eval(terms, point):
    """max_u (a_u + u . p) over (exponent, coefficient) pairs; None is -inf."""
    best = None
    for u, a in terms:
        v = Fraction(a) + sum(Fraction(e) * Fraction(x) for e, x in zip(u, point))
        if best is None or v > best:
            best = v
    return best


def argmax_exponents(terms, point) -> set:
    """Exponents of the terms attaining the maximum at ``point``."""
    top = trop_eval(terms, point)
    return {
        tuple(u)
        for u, a in terms
        if Fraction(a) + sum(Fraction(e) * Fraction(x) for e, x in zip(u, point)) == top
    }


def weighted_values(rays, exponents) -> tuple:
    """w * max_u u . d for each (direction, weight), in integers."""
    return tuple(w * max(sum(e * x for e, x in zip(u, d)) for u in exponents) for d, w in rays)


def primitive(v) -> tuple:
    g = math.gcd(*v)
    return tuple(x // g for x in v)


def normal_fan(rays) -> list:
    """(direction, weight) pairs with primitive directions, sorted."""
    out = []
    for d, w in rays:
        g = math.gcd(*d)
        out.append((tuple(x // g for x in d), w * g))
    return sorted(out)


def in_support(rays, v) -> bool:
    """v is zero or a positive multiple of one of the directions."""
    if not any(v):
        return True
    p = primitive(v)
    return any(primitive(d) == p for d, _ in rays)


_RATIONAL = re.compile(r"-?\d+(/\d+)?")


def parse_poly(text: str, n: int) -> list:
    """(exponent, coefficient) pairs of a polynomial in the text format:
    terms joined by ' + ', factors by '*', variables x y z w (n <= 4) or
    x1..xn, exponents after '^'; '-inf' is the bottom polynomial."""
    if text.strip() == "-inf":
        return []
    terms = []
    for piece in text.split(" + "):
        exp, coeff = [0] * n, Fraction(0)
        for factor in piece.strip().split("*"):
            if _RATIONAL.fullmatch(factor):
                coeff += Fraction(factor)
                continue
            name, _, power = factor.partition("^")
            i = "xyzw".index(name) if n <= 4 else int(name[1:]) - 1
            exp[i] += int(power) if power else 1
        terms.append((tuple(exp), coeff))
    return terms


def format_poly(terms, n: int) -> str:
    """The inverse of parse_poly, written independently of the program."""
    names = "xyzw" if n <= 4 else [f"x{i + 1}" for i in range(n)]
    pieces = []
    for u, a in terms:
        factors = [str(Fraction(a))] if a else []
        factors += [names[i] if e == 1 else f"{names[i]}^{e}" for i, e in enumerate(u) if e]
        pieces.append("*".join(factors) or "0")
    return " + ".join(pieces)


# --------------------------------------------------------- linear algebra


def matmul(A, B):
    bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in A]


def frac_det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fraction."""
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
        for r in range(c + 1, n):
            if a[r][c]:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def rank(rows) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    a = [list(r) for r in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            if a[i][c]:
                a[i] = [a[r][c] * x - a[i][c] * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def frac_inverse(rows) -> list:
    """Inverse of a nonsingular square matrix by Gauss-Jordan over Fraction."""
    n = len(rows)
    a = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c])
        a[c], a[piv] = a[piv], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [r[n:] for r in a]


class SearchRegion:
    """Bounds |z_i| over {z : z . g_b <= G_b for all b} for balanced,
    spanning generators g_b: each z . g_b lies in [G_b - deg G, G_b]
    because the generators sum to zero, and z is fixed by its products with
    n independent generators, z = B^-1 (z . g_b)_b."""

    def __init__(self, gens):
        self.picked, basis = [], []
        for b, g in enumerate(gens):
            if rank(basis + [g]) > len(basis):
                basis.append(g)
                self.picked.append(b)
        self.inverse = frac_inverse(basis)

    def box(self, values) -> Fraction:
        deg = sum(values)
        spans = [(values[b] - deg, values[b]) for b in self.picked]
        bound = Fraction(0)
        for row in self.inverse:
            hi = sum(max(m * lo, m * up) for m, (lo, up) in zip(row, spans))
            lo = sum(min(m * lo, m * up) for m, (lo, up) in zip(row, spans))
            bound = max(bound, hi, -lo)
        return bound


def minor_gcd(rows, k: int) -> int:
    """gcd of all k x k minors (0 when every one vanishes)."""
    m, n = len(rows), len(rows[0])
    g = 0
    for rs in combinations(range(m), k):
        for cs in combinations(range(n), k):
            g = math.gcd(g, abs(int(frac_det([[rows[i][j] for j in cs] for i in rs]))))
    return g


def is_unimodular(M) -> bool:
    return len(M) == len(M[0]) and frac_det(M) in (1, -1)


# ------------------------------------------------------------ checkers


def check_snf(A, P, D, Q) -> Optional[str]:
    """P.A.Q = D, P and Q unimodular, D diagonal with a divisibility chain."""
    if matmul(matmul(P, A), Q) != D:
        return "P*A*Q != D"
    for i, row in enumerate(D):
        for j, x in enumerate(row):
            if i != j and x:
                return f"D has off-diagonal entry at ({i},{j})"
    diag = [D[i][i] for i in range(min(len(D), len(D[0])))]
    if any(x < 0 for x in diag):
        return "negative invariant factor"
    nonzero = [x for x in diag if x]
    if diag[: len(nonzero)] != nonzero:
        return "zeros before a nonzero invariant factor"
    if any(b % a for a, b in zip(nonzero, nonzero[1:])):
        return "divisibility chain broken"
    if not is_unimodular(P) or not is_unimodular(Q):
        return "P or Q is not unimodular"
    if len(A) == len(A[0]):
        full = math.prod(nonzero) if len(nonzero) == len(A) else 0
        if full != abs(frac_det(A)):
            return "product of invariant factors != |det A|"
    return None


def check_hnf(A, H, U) -> Optional[str]:
    """A.U = H, U unimodular, H in reduced column-echelon form."""
    if matmul(A, U) != H:
        return "A*U != H"
    if not is_unimodular(U):
        return "U is not unimodular"
    m, n = len(H), len(H[0])
    prev_row = -1
    col = 0
    for col in range(n):
        r = next((i for i in range(m) if H[i][col]), None)
        if r is None:
            break
        if r <= prev_row:
            return f"pivot rows not strictly increasing at column {col}"
        piv = H[r][col]
        if piv <= 0:
            return f"non-positive pivot in column {col}"
        if any(not 0 <= H[r][j] < piv for j in range(col)):
            return f"row {r} not reduced left of its pivot"
        prev_row = r
    else:
        col = n
    if any(H[i][j] for j in range(col, n) for i in range(m)):
        return "nonzero column after a zero column"
    return None


def check_solve(A, b, z, solvable: bool) -> Optional[str]:
    if not solvable:
        return None if z is None else "answer given for an unsolvable system"
    if z is None:
        return "no answer for a solvable system"
    if [sum(a * x for a, x in zip(row, z)) for row in A] != list(b):
        return "A*z != b"
    return None


def check_transport(A, B, T) -> Optional[str]:
    if matmul(T, A) != B:
        return "T*A != B"
    if not is_unimodular(T):
        return "T is not unimodular"
    return None


def check_det(A, d) -> Optional[str]:
    return None if frac_det(A) == d else "wrong determinant"


def expected_smooth(rays) -> bool:
    """Smooth iff every weight is 1 and the rows of the generator matrix
    span the degree-zero lattice of Z^k: dropping the last coordinate, the
    n x (k-1) matrix has rank k-1 and its (k-1)-minors are coprime."""
    if any(w != 1 for _, w in rays):
        return False
    k = len(rays)
    if k == 1:
        return True
    n = len(rays[0][0])
    rows = [[w * d[i] for d, w in rays[:-1]] for i in range(n)]
    if rank(rows) < k - 1:
        return False
    return minor_gcd(rows, k - 1) == 1


def check_witness(rays, values, exponents) -> Optional[str]:
    """A membership witness: a Boolean polynomial reproducing the values."""
    if exponents is None:
        return "no witness for a known member"
    if not exponents:
        return "empty witness"
    if weighted_values(rays, exponents) != tuple(values):
        return "witness does not reproduce the values"
    return None


def check_separates(P_terms, Q_terms, point, n: int) -> Optional[str]:
    if point is None or len(point) != n:
        return "no separating point"
    if trop_eval(P_terms, point) == trop_eval(Q_terms, point):
        return "values agree at the witness point"
    return None


def check_canonical(expected_terms, got_terms) -> Optional[str]:
    exp = sorted((tuple(u), Fraction(a)) for u, a in expected_terms)
    got = sorted((tuple(u), Fraction(a)) for u, a in got_terms)
    if got == exp:
        return None
    missing = len(set(exp) - set(got))
    extra = len(set(got) - set(exp))
    return f"canonical form off: {missing} vertex terms missing, {extra} extra"


def check_boolean_germ(terms, point, part_terms, grade) -> Optional[str]:
    """Germ of a polynomial whose terms lie on a strictly concave lift: the
    part is the Boolean polynomial of the maximizing exponents (they lie on
    a sphere, so every one is a vertex) and the grade is the value."""
    if grade != trop_eval(terms, point):
        return "germ grade != value at the point"
    if any(a != 0 for _, a in part_terms):
        return "germ part is not Boolean"
    if {tuple(u) for u, _ in part_terms} != argmax_exponents(terms, point):
        return "germ part != maximizing exponents"
    return None
