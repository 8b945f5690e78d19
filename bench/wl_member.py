"""Workload ``member``: image membership of ray functions under the
weighted evaluation map, on standard models L_{n,r} and random balanced
fans in 2-4 dimensions.

Three kinds of values are asked about:

* members: the weighted values of a random Boolean polynomial, computed
  here in integers; the returned witness must reproduce them;
* non-members: values of negative degree (the weighted evaluation of a
  Boolean polynomial on a balanced fan has degree >= 0), or a member's
  values with one entry moved off a multiple of its ray's weight (every
  weighted value is a multiple of the weight); the answer must be None;
* the known fault: balanced fans whose rays do not span the ambient
  space, with values that are rationally but not integrally feasible.
  The exponent search enumerates the free coordinate first, hits the
  search box and raises Inconclusive although these are provable
  non-members.  These inputs are fixed, not drawn from the seed, and each
  such call counts as a failed operation; only None counts as passing.
"""

from __future__ import annotations

import math
import random

from tropfan import errors, evalmap, fan

import oracle
from ops import Op, batch

# Nominal wall time of one timed pass plus the cold start after it, on a
# 2-vCPU host under load; run.py times round(seconds / PASS_SECONDS)
# passes, whatever the program's speed.
PASS_SECONDS = 3.0

# Size classes: (operations per pass, [(kind, dimension, rays, polynomial
# terms, calls per operation), ...]); kind "model" uses L_{n,r} with
# r = rays.  Calls are batched so that no operation is sub-millisecond and
# each class costs about the same per operation whatever its rows.
CLASSES = [
    (60, [("negative", 3, 4, 3, 12), ("member", 2, 3, 3, 6), ("negative", 4, 5, 3, 6),
          ("off_weight", 2, 4, 4, 6), ("model", 4, 3, 4, 3)]),
    (110, [("member", 3, 4, 3, 6), ("member", 3, 5, 4, 4), ("model", 4, 5, 4, 4),
           ("off_weight", 3, 4, 4, 4), ("member", 4, 5, 3, 2), ("model", 4, 4, 5, 6)]),
    (28, [("member", 4, 6, 4, 4), ("off_weight", 4, 5, 4, 4), ("member", 3, 6, 5, 8)]),
]

# image_membership's default search box |z_i| <= 64.  A search clipped by
# it gives up with Inconclusive (see CHANGES.md), so values on random fans
# are drawn again until their rational search region provably fits inside.
SEARCH_BOX = 64

# (ambient dimension, [(direction, weight), ...] in sorted order, values):
# non-spanning balanced fans on which the search gives up.  The first one is
# the smallest instance: rays (0,-1) and (0,1) of weight 2 with values 1, 1.
# Their search box is widened from 64 to FAULT_BOX so that each call costs
# about as much as the small-class operations around it.
FAULT_BOX = 96
KNOWN_FAULT = [
    (2, [((0, -1), 2), ((0, 1), 2)], (1, 1)),
    (2, [((-1, -1), 3), ((1, 1), 3)], (-1, 1)),
    (2, [((0, -1), 3), ((0, 1), 3)], (1, 2)),
]


def random_balanced_fan(rng: random.Random, n: int, k: int, max_weight: int):
    """k rays spanning Q^n whose weighted directions sum to zero."""
    while True:
        rays = []
        for _ in range(k - 1):
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(v):
                rays.append((oracle.primitive(v), rng.randint(1, max_weight)))
        last = tuple(-sum(w * d[i] for d, w in rays) for i in range(n))
        if len(rays) != k - 1 or not any(last):
            continue
        g = math.gcd(*last)
        rays.append((oracle.primitive(last), g))
        dirs = [d for d, _ in rays]
        if len(set(dirs)) == k and oracle.rank(dirs) == n:
            return rays


def standard_rays(n: int, r: int):
    rays = [(tuple(1 if j == i else 0 for j in range(n)), 1) for i in range(r - 1)]
    rays.append((tuple(-1 if j < r - 1 else 0 for j in range(n)), 1))
    return rays


def _member_values(rng, rays, n, terms):
    exps = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(terms)]
    return list(oracle.weighted_values(rays, exps))


def _call(X, values, expect_member, bound=SEARCH_BOX):
    """(run, check) for one image_membership call."""
    G = evalmap.RayFunction(X, tuple(values))
    order = [(r.direction, r.weight) for r in X.rays]
    sorted_values = G.values

    def check(witness):
        if not expect_member:
            return None if witness is None else "witness returned for a known non-member"
        if witness is None:
            return "no witness for a known member"
        if not witness.is_boolean:
            return "witness is not Boolean"
        return oracle.check_witness(order, sorted_values, [u for u, _ in witness.terms])

    return (lambda: evalmap.image_membership(X, G, bound=bound)), check


def _fan(rng: random.Random, kind: str, n: int, k: int):
    if kind == "model":
        rays = standard_rays(n, k)
    else:
        rays = random_balanced_fan(rng, n, k, 3 if kind == "off_weight" else 2)
    if kind == "off_weight" and all(w == 1 for _, w in rays):
        rays = [(d, 2) for d, _ in rays]  # still balanced
    X = fan.WeightedFan.build(n, rays)
    return X, [(r.direction, r.weight) for r in X.rays]


def _values(rng: random.Random, kind: str, rays, terms: int, region):
    """Values of ``kind`` on the sorted rays, or None if none was drawn
    whose search region fits the box (only off-weight values are bounded:
    a member is found before the search is clipped)."""
    for _ in range(20):
        values = _member_values(rng, rays, len(rays[0][0]), terms)
        if kind == "negative":
            j = rng.randrange(len(rays))
            values[j] -= rays[j][1] * (sum(values) // rays[j][1] + 1)
        elif kind == "off_weight":
            j = rng.choice([j for j, (_, w) in enumerate(rays) if w > 1])
            values[j] += rng.randint(1, rays[j][1] - 1)
        if region is None or region.box(values) <= SEARCH_BOX:
            return values
    return None


def _calls(rng: random.Random, kind: str, n: int, k: int, terms: int, calls: int, slot: int):
    """``calls`` questions about one fan, as (run, check) pairs.  The fan
    and the polynomials (the shape) come from a fixed seed per slot, so
    every run enumerates search regions of the same sizes; ``rng`` moves
    each polynomial by a random integer translation t, which moves the
    values by w * (t . d) and the search region by t, and so changes the
    answers but not the work."""
    shape = random.Random(f"member-{kind}-{n}-{k}-{slot}")
    while True:
        X, rays = _fan(shape, kind, n, k)
        gens = [tuple(w * x for x in d) for d, w in rays]
        region = oracle.SearchRegion(gens) if kind == "off_weight" else None
        drawn = [_values(shape, kind, rays, terms, region) for _ in range(calls)]
        if None not in drawn:
            break
    pairs = []
    for values in drawn:
        t = [rng.randint(-3, 3) for _ in range(n)]
        moved = [v + sum(a * g for a, g in zip(t, gen)) for v, gen in zip(values, gens)]
        if region is not None and region.box(moved) > SEARCH_BOX:
            moved = values
        pairs.append(_call(X, moved, kind in ("member", "model")))
    return pairs


def build(rng: random.Random, workdir: str) -> list:
    ops = []
    for count, rows in CLASSES:
        for i in range(count):
            kind, n, k, terms, calls = rows[i % len(rows)]
            ops.append(batch(f"{kind} n={n} rays={k} x{calls}", _calls(rng, kind, n, k, terms, calls, i)))
    for n, rays, values in KNOWN_FAULT:
        X = fan.WeightedFan.build(n, rays)
        run, check = _call(X, values, False, FAULT_BOX)
        ops.append(Op(f"non-spanning n={n}", run, check, (errors.Inconclusive,)))
    return ops
