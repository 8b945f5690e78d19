"""Workload ``canon``: canonical forms, function equality with witnesses,
and germ arithmetic on rational-coefficient polynomials in 2-5 variables.

Every input polynomial P has its terms on a strictly concave lift
a_u = -|u|^2 + c.u + c0, so every term is a vertex and survives
canonicalization.  Decoy terms sit at midpoints of two terms with a
coefficient at or below their average, so they never strictly win and are
dropped.  W adds one more term on the same lift, a new vertex, so P and
P + W differ as functions.  At the point p = 2m - c the value of a term is
-|u - m|^2 + const, so the terms winning at p are the exponents nearest to
m; they lie on a sphere, hence the germ's Boolean part keeps all of them.
"""

from __future__ import annotations

import random
from fractions import Fraction

from tropfan import laurent

import oracle
from ops import Op

# Nominal wall time of one timed pass plus the cold start after it, on a
# 2-vCPU host under load; run.py times round(seconds / PASS_SECONDS)
# passes, whatever the program's speed.
PASS_SECONDS = 3.0

# Size classes: (operations per pass, [(kind, variables, terms), ...]); the
# rows of a class are cycled through.  Each class costs about the same per
# operation whatever the kind and variable count, so that the median falls
# inside the middle class and the 90th percentile inside the top one.
CLASSES = [
    (36, [("germ", 2, 12), ("germ", 3, 10), ("germ", 4, 9), ("germ", 5, 6)]),
    (60, [
        ("canon", 2, 14), ("canon", 3, 11), ("canon", 4, 10), ("canon", 5, 6),
        ("eq_true", 2, 11), ("eq_true", 3, 9), ("eq_true", 4, 9), ("eq_true", 5, 5),
        ("eq_false", 2, 8), ("eq_false", 3, 7),
    ]),
    (24, [
        ("canon", 2, 20), ("canon", 3, 15), ("canon", 4, 12), ("canon", 5, 7),
        ("eq_true", 2, 16), ("eq_true", 3, 13), ("eq_true", 4, 11), ("eq_true", 5, 7),
        ("eq_false", 2, 14), ("eq_false", 3, 11), ("eq_false", 4, 10), ("eq_false", 5, 5),
    ]),
]

# Exponent boxes per variable count: wide enough for the largest term count.
BOX = {2: 6, 3: 3, 4: 2, 5: 2}


def _rat(rng: random.Random, span: int, den: int) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def concave_lift(rng: random.Random, n: int):
    """A random strictly concave lift u -> -|u|^2 + c.u + c0."""
    c = [_rat(rng, 5, 3) for _ in range(n)]
    c0 = _rat(rng, 9, 4)
    return c, (lambda u: -sum(x * x for x in u) + sum(a * x for a, x in zip(c, u)) + c0)


def distinct_points(rng: random.Random, n: int, count: int, box: int, avoid=()) -> list:
    seen = set(avoid)
    out = []
    while len(out) < count:
        u = tuple(rng.randint(-box, box) for _ in range(n))
        if u not in seen:
            seen.add(u)
            out.append(u)
    return out


def midpoints(shape: random.Random, exps: list, count: int) -> list:
    """Integral midpoints of pairs of exponents that are not exponents."""
    taken = set(exps)
    pairs = [
        (u, v)
        for i, u in enumerate(exps)
        for v in exps[i + 1 :]
        if all((x - y) % 2 == 0 for x, y in zip(u, v))
    ]
    shape.shuffle(pairs)
    out = []
    for u, v in pairs:
        m = tuple((x + y) // 2 for x, y in zip(u, v))
        if m not in taken:
            taken.add(m)
            out.append((m, u, v))
            if len(out) == count:
                break
    return out


def _instance(rng: random.Random, kind: str, n: int, N: int, index: int) -> Op:
    """One request of ``kind``.  The exponent configuration (the shape)
    comes from a fixed seed per slot, so every run solves systems of the
    same combinatorial size; ``rng`` draws the translation, the lifts, the
    decoy coefficients and the germ point."""
    shape = random.Random(f"canon-{kind}-{n}-{N}-{index}")
    box = BOX[n]
    exps = distinct_points(shape, n, N, box)
    mids = midpoints(shape, exps, max(2, N // 4))
    (w,) = distinct_points(shape, n, 1, box + 1, avoid=exps)
    q_exps = distinct_points(shape, n, 3, 2)

    t = [rng.randint(-3, 3) for _ in range(n)]
    move = lambda u: tuple(x + y for x, y in zip(u, t))  # noqa: E731
    c, lift = concave_lift(rng, n)
    p_terms = [(move(u), lift(move(u))) for u in exps]
    decoys = [
        (move(m), (lift(move(u)) + lift(move(v))) / 2 - Fraction(rng.randint(0, 2), 2))
        for m, u, v in mids
    ]
    pw_terms = p_terms + [(move(w), lift(move(w)))]
    _, q_lift = concave_lift(rng, n)
    q_terms = [(u, q_lift(u)) for u in q_exps]
    (u, _), (v, _) = rng.sample(p_terms, 2)
    point = tuple(Fraction(x + y) - a for x, y, a in zip(u, v, c))

    make = laurent.LaurentPoly.make
    P = make(n, p_terms)
    label = f"{kind} n={n} terms={N}"
    if kind == "canon":
        PD = make(n, p_terms + decoys)
        return Op(label, lambda: laurent.canonicalize(PD),
                  lambda out: oracle.check_canonical(p_terms, out.terms))
    if kind == "eq_true":
        PD = make(n, p_terms + decoys)
        return Op(label, lambda: laurent.fn_eq(P, PD),
                  lambda out: None if out is True else "fn_eq(P, P + decoys) is not True")
    if kind == "eq_false":
        PW = make(n, pw_terms)
        return Op(label, lambda: (laurent.fn_eq(P, PW), laurent.fn_witness(P, PW)),
                  lambda out: check_eq_false(n, p_terms, pw_terms, out))
    Q = make(n, q_terms)
    PQ, PpQ = P * Q, P + Q

    def run_germ():
        gP = laurent.germ_localize(P, point)
        gQ = laurent.germ_localize(Q, point)
        gPQ = laurent.germ_localize(PQ, point)
        gPpQ = laurent.germ_localize(PpQ, point)
        return gP, gQ, gPQ, gPpQ, gP * gQ, gP + gQ

    return Op(label, run_germ, lambda out: check_germs(p_terms, q_terms, point, out))


def check_eq_false(n, p_terms, pw_terms, out):
    equal, witness = out
    if equal is not False:
        return "fn_eq(P, P + new vertex) is not False"
    err = oracle.check_separates(p_terms, pw_terms, witness, n)
    return "fn_witness: " + err if err else None


def check_germs(p_terms, q_terms, point, out):
    """Germs of P and Q against their maximizing exponents, and the
    homomorphism laws for P*Q and P+Q with grades from exact evaluation."""
    gP, gQ, gPQ, gPpQ, prod, total = out
    for terms, g in ((p_terms, gP), (q_terms, gQ)):
        err = oracle.check_boolean_germ(terms, point, g.part.terms, g.grade)
        if err:
            return err
    vp, vq = oracle.trop_eval(p_terms, point), oracle.trop_eval(q_terms, point)
    if gPQ.grade != vp + vq or gPQ != prod:
        return "germ of P*Q != product of germs"
    if gPpQ.grade != max(vp, vq) or gPpQ != total:
        return "germ of P+Q != sum of germs"
    return None


def build(rng: random.Random, workdir: str) -> list:
    ops = []
    for count, rows in CLASSES:
        for i in range(count):
            kind, n, N = rows[i % len(rows)]
            ops.append(_instance(rng, kind, n, N, i))
    return ops
