"""Workload ``lattice``: integer normal forms and lattice solving on a size
ladder of random integer matrices, smoothness of random balanced fans, and
the morphism round trip realize_morphism(induced_homspec(mu)).

Right-hand sides are built so the answer is known: b = A.z0 is solvable,
and b = A'.z0 + e_i with row i of A' a multiple of 3 has no integer
solution (row i of A'.z is divisible by 3, b_i is not).  Transport targets
are B = U0.A with U0 a random product of elementary row operations.
"""

from __future__ import annotations

import random

from tropfan import evalmap, fan, intlat, morphism

import oracle
from ops import batch
from wl_member import random_balanced_fan, standard_rays

# Nominal wall time of one timed pass plus the cold start after it, on a
# 2-vCPU host under load; run.py times round(seconds / PASS_SECONDS)
# passes, whatever the program's speed.
PASS_SECONDS = 1.8

# Size classes: (operations per pass, [(kind, rows, cols, calls per
# operation), ...]); for "smooth" and "roundtrip" rows and cols are the
# ambient dimension and the ray count.
CLASSES = [
    (40, [("det", 24, 24, 2), ("snf", 8, 8, 3), ("hnf", 12, 12, 3), ("solve", 12, 12, 2),
          ("smooth", 3, 4, 8), ("roundtrip", 3, 5, 2), ("unsolvable", 12, 12, 2), ("transport", 4, 4, 2)]),
    (60, [("snf", 16, 16, 2), ("snf", 12, 20, 2), ("hnf", 24, 24, 1), ("hnf", 16, 24, 2),
          ("solve", 24, 24, 1), ("unsolvable", 24, 20, 1), ("transport", 8, 8, 1), ("det", 24, 24, 8),
          ("smooth", 4, 5, 24), ("roundtrip", 4, 6, 5)]),
    (24, [("snf", 24, 24, 1), ("snf", 24, 16, 2), ("snf", 20, 20, 2), ("transport", 12, 12, 1),
          ("hnf", 24, 24, 3), ("solve", 24, 24, 3)]),
]


def random_matrix(rng: random.Random, m: int, n: int) -> list:
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]


def random_unimodular(rng: random.Random, n: int) -> list:
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
    return rows


def _data(M) -> list:
    return [list(row) for row in M.data]


def _snf(rng, m, n):
    A = random_matrix(rng, m, n)
    M = intlat.IntMatrix.from_rows(A)
    return (lambda: intlat.snf(M)), (lambda out: oracle.check_snf(A, *map(_data, out)))


def _hnf(rng, m, n):
    A = random_matrix(rng, m, n)
    M = intlat.IntMatrix.from_rows(A)
    return (lambda: intlat.hnf(M)), (lambda out: oracle.check_hnf(A, *map(_data, out)))


def _det(rng, m, n):
    A = random_matrix(rng, m, n)
    M = intlat.IntMatrix.from_rows(A)
    return (lambda: intlat.det(M)), (lambda out: oracle.check_det(A, out))


def _solve(rng, m, n, solvable=True):
    A = random_matrix(rng, m, n)
    z0 = [rng.randint(-5, 5) for _ in range(n)]
    if solvable:
        b = [sum(a * x for a, x in zip(row, z0)) for row in A]
    else:
        i = rng.randrange(m)
        A[i] = [3 * x for x in A[i]]
        b = [sum(a * x for a, x in zip(row, z0)) + (r == i) for r, row in enumerate(A)]
    M = intlat.IntMatrix.from_rows(A)
    return (lambda: intlat.lattice_solve(M, b)), (lambda z: oracle.check_solve(A, b, z, solvable))


def _transport(rng, m, n):
    A = random_matrix(rng, m, n)
    B = oracle.matmul(random_unimodular(rng, m), A)
    MA, MB = intlat.IntMatrix.from_rows(A), intlat.IntMatrix.from_rows(B)
    return (lambda: intlat.unimodular_transport(MA, MB)), (lambda T: oracle.check_transport(A, B, _data(T)))


def _fan_rays(rng, n, k):
    """A standard model when k = n + 1 on every other draw, else random."""
    if k == n + 1 and rng.random() < 0.5:
        return standard_rays(n, k)
    return random_balanced_fan(rng, n, k, rng.choice((1, 1, 2)))


def _smooth(rng, n, k):
    X = fan.WeightedFan.build(n, _fan_rays(rng, n, k))

    def check(report):
        expected = oracle.expected_smooth([(r.direction, r.weight) for r in X.rays])
        return None if report.smooth == expected else f"is_smooth says {report.smooth}"

    return (lambda: evalmap.is_smooth(X)), check


def _roundtrip(rng, n, k):
    """mu maps a balanced fan X by a unimodular T onto the fan of the image
    directions; realizing mu's generator images must give back T."""
    rays = _fan_rays(rng, n, k)
    T = random_unimodular(rng, n)
    image = [(tuple(sum(t * x for t, x in zip(row, d)) for row in T), w) for d, w in rays]
    X, Y = fan.WeightedFan.build(n, rays), fan.WeightedFan.build(n, image)
    mu = morphism.FanMorphism(X, Y, intlat.IntMatrix.from_rows(T))

    def check(nu):
        if nu.source != X or nu.target != Y:
            return "round trip changed the fans"
        R = _data(nu.matrix)
        for ray in X.rays:
            g = [[x] for x in ray.generator]
            if oracle.matmul(R, g) != oracle.matmul(T, g):
                return "round trip moved a generator"
        return None

    return (lambda: morphism.realize_morphism(morphism.induced_homspec(mu))), check


_MAKERS = {
    "snf": _snf,
    "hnf": _hnf,
    "det": _det,
    "solve": _solve,
    "unsolvable": lambda rng, m, n: _solve(rng, m, n, solvable=False),
    "transport": _transport,
    "smooth": _smooth,
    "roundtrip": _roundtrip,
}


def build(rng: random.Random, workdir: str) -> list:
    ops = []
    for count, rows in CLASSES:
        for i in range(count):
            kind, m, n, calls = rows[i % len(rows)]
            pairs = [_MAKERS[kind](rng, m, n) for _ in range(calls)]
            ops.append(batch(f"{kind} {m}x{n} x{calls}", pairs))
    return ops
