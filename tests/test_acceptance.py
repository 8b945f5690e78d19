"""The fourteen stand-alone acceptance checks, one test each, every one
printing a single ``ACCEPTANCE n: PASS (t s)`` line (run with ``-s`` to
see them).  Budgets are wall-clock upper bounds on this suite's scale.
"""

import random
import time
from fractions import Fraction

from oracles import (
    grid_values,
    hull_vertices,
    joint_denominator,
    minor_divisor_factors,
    rand_balanced_fan,
    rand_boolean_poly,
    rand_matrix,
    rand_morphism,
    rand_point,
    rand_poly,
    rand_unimodular,
)
from tropfan import (
    FanMorphism,
    IntMatrix,
    LaurentPoly,
    RayFunction,
    WeightedFan,
    canonicalize,
    check_geometric,
    compose,
    det,
    eval_map,
    fn_eq,
    fn_witness,
    germ_localize,
    germ_safe_radius,
    image_membership,
    induced_homspec,
    invariant_factors,
    is_smooth,
    ker_eq,
    primitive,
    pullback_evalmap,
    pullback_poly,
    realize_morphism,
    reconstruct_fan,
    generator_matrix,
    snf,
    standard_model,
    text_add,
    text_mul,
    unimodular_transport,
)

Y_FAN = WeightedFan.build(2, [((1, 2), 1), ((3, 1), 1), ((-4, -3), 1)])
Z_FAN = WeightedFan.build(2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)])


class _Timer:
    def __init__(self, number, budget=None):
        self.number = number
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            print(f"ACCEPTANCE {self.number}: PASS ({elapsed:.2f} s)")
            if self.budget is not None:
                assert elapsed < self.budget, (
                    f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.2f}s"
                )
        else:
            print(f"ACCEPTANCE {self.number}: FAIL ({elapsed:.2f} s)")
        return False


def test_criterion_01_smoothness_fixtures():
    with _Timer(1, budget=1.0):
        for n in range(1, 5):
            for r in range(2, n + 2):
                assert is_smooth(standard_model(n, r)).smooth
        rep = is_smooth(Y_FAN)
        assert not rep.smooth and rep.reason == "lattice index 5"
        rep = is_smooth(Z_FAN)
        assert not rep.smooth and "rank" in rep.reason


def test_criterion_02_reconstruction_round_trip():
    with _Timer(2, budget=1.0):
        rng = random.Random(1002)
        for _ in range(200):
            X = rand_balanced_fan(rng, rng.randint(1, 4), max_rays=6, max_weight=3)
            assert reconstruct_fan(generator_matrix(X)) == X


def test_criterion_03_initial_form_laws():
    with _Timer(3, budget=5.0):
        rng = random.Random(1003)
        for _ in range(1000):
            n = rng.randint(1, 3)
            P = rand_poly(rng, n)
            Q = rand_poly(rng, n)
            p = rand_point(rng, n)
            assert (P * Q).initial_form(p) == P.initial_form(p) * Q.initial_form(p)
            a, b = P.eval(p), Q.eval(p)
            got = (P + Q).initial_form(p)
            if a > b:
                assert got == P.initial_form(p)
            elif b > a:
                assert got == Q.initial_form(p)
            else:
                assert got == P.initial_form(p) + Q.initial_form(p)


def test_criterion_04_germ_soundness():
    with _Timer(4, budget=5.0):
        rng = random.Random(1004)
        for _ in range(200):
            n = rng.randint(1, 3)
            P = rand_poly(rng, n)
            p = rand_point(rng, n)
            r = germ_safe_radius(P, p)
            ini = P.initial_form(p)
            for _ in range(50):
                q = tuple(
                    c + Fraction(rng.randint(-999, 999), 1000) * r / n for c in p
                )
                assert sum(abs(a - b) for a, b in zip(q, p)) < r
                assert P.eval(q) == ini.eval(q)


def test_criterion_05_germ_homomorphism():
    with _Timer(5):
        rng = random.Random(1005)
        for _ in range(500):
            n = rng.randint(1, 3)
            P = rand_poly(rng, n)
            Q = rand_poly(rng, n)
            p = rand_point(rng, n)
            assert germ_localize(P + Q, p) == text_add(germ_localize(P, p), germ_localize(Q, p))
            assert germ_localize(P * Q, p) == text_mul(germ_localize(P, p), germ_localize(Q, p))


def test_criterion_06_kernel_characterization():
    with _Timer(6):
        rng = random.Random(1006)
        for _ in range(500):
            n = rng.randint(1, 3)
            X = rand_balanced_fan(rng, n)
            f = rand_boolean_poly(rng, n)
            g = f if rng.random() < 0.25 else rand_boolean_poly(rng, n)
            same = ker_eq(X, f, g)
            assert same == (eval_map(X, f) == eval_map(X, g))
            scaled = all(
                f.eval([t * c for c in ray.direction]) == g.eval([t * c for c in ray.direction])
                for ray in X.rays
                for t in (1, 2, 7)
            )
            assert same == scaled


def test_criterion_07_degree_positivity():
    with _Timer(7):
        rng = random.Random(1007)
        for _ in range(1000):
            n = rng.randint(1, 3)
            X = rand_balanced_fan(rng, n)
            f = rand_boolean_poly(rng, n)
            d = eval_map(X, f).degree()
            assert d >= 0
            monomial_like = any(
                fn_eq(f, LaurentPoly.monomial(n, u, 0)) for u in f.support()
            )
            assert (d == 0) == monomial_like


def test_criterion_08_snf_contract():
    with _Timer(8, budget=10.0):
        rng = random.Random(1008)
        for _ in range(500):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            A = rand_matrix(rng, m, n, -100, 100)
            P, D, Q = snf(A)
            assert (P @ A @ Q) == D
            assert abs(det(P)) == 1 and abs(det(Q)) == 1
            fac = invariant_factors(D)
            assert all(f > 0 for f in fac)
            for a, b in zip(fac, fac[1:]):
                assert b % a == 0
            U = rand_unimodular(rng, m)
            V = rand_unimodular(rng, n)
            assert invariant_factors(snf(U @ A @ V)[1]) == fac


def test_criterion_09_transport():
    with _Timer(9):
        rng = random.Random(1009)
        for _ in range(200):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            A = rand_matrix(rng, m, n, -20, 20)
            U = rand_unimodular(rng, m)
            B = U @ A
            T = unimodular_transport(A, B)
            assert (T @ A) == B
            assert abs(det(T)) == 1


def _second_leg(rng, mu1):
    """A morphism out of mu1's target, or None when the draw collapses."""
    m2 = rng.randint(1, 3)
    T2 = IntMatrix.from_rows(
        [[rng.randint(-2, 2) for _ in range(mu1.target.ambient_dim)] for _ in range(m2)]
    )
    images = [T2.apply(r.direction) for r in mu1.target.rays]
    nz = {tuple(primitive(v)[1]) for v in images if any(v)}
    if not nz:
        return None
    try:
        Y2 = WeightedFan.build(m2, [(list(d), 1) for d in nz])
        return FanMorphism(mu1.target, Y2, T2)
    except Exception:
        return None


def test_criterion_10_functoriality():
    with _Timer(10):
        rng = random.Random(1010)
        done = 0
        while done < 100:
            mu1 = rand_morphism(rng)
            mu2 = _second_leg(rng, mu1)
            if mu2 is None:
                continue
            Q = rand_boolean_poly(rng, mu2.target.ambient_dim)
            lhs = pullback_poly(compose(mu2, mu1), Q)
            rhs = pullback_poly(mu1, pullback_poly(mu2, Q))
            assert fn_eq(lhs, rhs)
            f = rand_boolean_poly(rng, mu1.target.ambient_dim)
            assert pullback_evalmap(mu1, f) == eval_map(mu1.source, pullback_poly(mu1, f))
            done += 1


def test_criterion_11_geometric_realization_round_trip():
    with _Timer(11):
        rng = random.Random(1011)
        for _ in range(100):
            mu = rand_morphism(rng)
            h = induced_homspec(mu)
            assert check_geometric(h)
            back = realize_morphism(h)
            for ray in mu.source.rays:
                assert back.apply(ray.direction) == mu.apply(ray.direction)


def test_criterion_12_canonicalization_oracle():
    with _Timer(12, budget=30.0):
        rng = random.Random(1012)
        polys = []
        for _ in range(1000):
            n = rng.randint(1, 3)
            k = rng.randint(1, 8)
            P = LaurentPoly.make(
                n, [(tuple(rng.randint(-3, 3) for _ in range(n)) , 0) for _ in range(k)]
            )
            polys.append(P)
            assert set(canonicalize(P).poly.support()) == hull_vertices(P.support())
        # fn_eq versus exact grid sampling (equality certified by the hull,
        # inequality confirmed by the witness point)
        for i in range(0, 400, 2):
            P, Q = polys[i], polys[i + 1]
            if P.num_vars != Q.num_vars:
                continue
            D = joint_denominator(P, Q)
            if fn_eq(P, Q):
                assert grid_values(P, D) == grid_values(Q, D)
            else:
                w = fn_witness(P, Q)
                assert P.eval(w) != Q.eval(w)
        for P in polys[:100]:
            C = canonicalize(P).poly
            D = joint_denominator(P, C)
            assert fn_eq(P, C)
            assert grid_values(P, D) == grid_values(C, D)


def test_criterion_13_image_membership():
    with _Timer(13):
        rng = random.Random(1013)
        L23 = standard_model(2, 3)
        for _ in range(100):
            vals = [rng.randint(-6, 6) for _ in range(2)]
            vals.append(rng.randint(-sum(vals), 12))  # force degree >= 0
            G = RayFunction(L23, tuple(vals))
            assert G.degree() >= 0
            w = image_membership(L23, G)
            assert w is not None, f"degree >= 0 function {vals} must be a member"
            assert eval_map(L23, w) == G
        # the lattice obstruction on Y: (1, 0, -1) in sorted-ray order is
        # degree 0 but needs the fractional exponent (-2/5, 1/5)
        assert image_membership(Y_FAN, RayFunction(Y_FAN, (1, 0, -1))) is None


def test_criterion_14_canonicalization_of_many_vertices():
    # 32 distinct exponents in [-2, 2]^4 on the strictly concave lift
    # -|u|^2 + c.u + c0: every term is a vertex of the lifted point set,
    # so all 32 survive, and each term's LP has 31 rows in 4 variables.
    # Fourier-Motzkin elimination took over 20 s on this instance.
    with _Timer(14, budget=5.0):
        rng = random.Random(1017)
        c = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)]
        c0 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        exps = set()
        while len(exps) < 32:
            exps.add(tuple(rng.randint(-2, 2) for _ in range(4)))
        P = LaurentPoly.make(
            4, [(u, -sum(x * x for x in u) + sum(a * x for a, x in zip(c, u)) + c0) for u in exps]
        )
        assert len(canonicalize(P).terms) == 32
