"""Tests of the benchmark's own parts: every checker accepts a right answer
and rejects a corrupted one, the figures are made as documented, the tracer
restores what it wraps, and BENCHMARK.json matches the spec.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
import time
import unittest
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from tropfan import evalmap, fan, intlat, laurent  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import wl_canon  # noqa: E402
import wl_member  # noqa: E402
from ops import Op  # noqa: E402
from spans import Tracer  # noqa: E402

A = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]


def data(M):
    return [list(r) for r in M.data]


class SnfHnfChecks(unittest.TestCase):
    def setUp(self):
        self.P, self.D, self.Q = map(data, intlat.snf(intlat.IntMatrix.from_rows(A)))
        self.H, self.U = map(data, intlat.hnf(intlat.IntMatrix.from_rows(A)))

    def test_correct_answers_pass(self):
        self.assertIsNone(oracle.check_snf(A, self.P, self.D, self.Q))
        self.assertIsNone(oracle.check_hnf(A, self.H, self.U))

    def test_broken_divisibility_chain(self):
        D = [[2, 0], [0, 3]]
        I2 = [[1, 0], [0, 1]]
        self.assertIn("divisibility", oracle.check_snf(D, I2, D, I2))

    def test_wrong_product(self):
        D = [row[:] for row in self.D]
        D[0][0] += 1
        self.assertIsNotNone(oracle.check_snf(A, self.P, D, self.Q))

    def test_non_unimodular_transform(self):
        # scaling P and D together keeps P*A*Q = D and the chain intact
        P = [[2 * x for x in self.P[0]]] + self.P[1:]
        D = [[2 * x for x in self.D[0]]] + self.D[1:]
        self.assertIsNotNone(oracle.check_snf(A, P, D, self.Q))

    def test_hnf_not_reduced(self):
        # adding the pivot column to an earlier one keeps A*U = H, U unimodular
        U = [row[:] for row in self.U]
        H = [row[:] for row in self.H]
        for M in (U, H):
            for row in M:
                row[0] += row[1]
        self.assertIn("reduced", oracle.check_hnf(A, H, U))

    def test_hnf_wrong_product(self):
        U = [row[:] for row in self.U]
        U[0][0] += 1
        self.assertIsNotNone(oracle.check_hnf(A, self.H, U))


class LatticeChecks(unittest.TestCase):
    def test_solve(self):
        b = [sum(a * x for a, x in zip(row, (1, -2, 3))) for row in A]
        z = intlat.lattice_solve(intlat.IntMatrix.from_rows(A), b)
        self.assertIsNone(oracle.check_solve(A, b, z, True))
        self.assertIsNotNone(oracle.check_solve(A, b, (z[0] + 1,) + z[1:], True))
        self.assertIsNotNone(oracle.check_solve(A, b, z, False))
        self.assertIsNotNone(oracle.check_solve(A, b, None, True))

    def test_transport_and_det(self):
        U0 = [[1, 2, 0], [0, 1, 0], [3, 7, 1]]
        B = oracle.matmul(U0, A)
        T = data(intlat.unimodular_transport(intlat.IntMatrix.from_rows(A), intlat.IntMatrix.from_rows(B)))
        self.assertIsNone(oracle.check_transport(A, B, T))
        T[0][0] += 1
        self.assertIsNotNone(oracle.check_transport(A, B, T))
        d = intlat.det(intlat.IntMatrix.from_rows(A))
        self.assertIsNone(oracle.check_det(A, d))
        self.assertIsNotNone(oracle.check_det(A, d + 1))

    def test_expected_smooth(self):
        self.assertTrue(oracle.expected_smooth(wl_member.standard_rays(3, 4)))
        self.assertTrue(oracle.expected_smooth(wl_member.standard_rays(4, 3)))
        y = [((-4, -3), 1), ((1, 2), 1), ((3, 1), 1)]  # lattice index 5
        self.assertFalse(oracle.expected_smooth(y))
        self.assertFalse(oracle.expected_smooth([((1, 0), 2), ((-1, 0), 2)]))


class MembershipChecks(unittest.TestCase):
    rays = [((-1, -1), 1), ((0, 1), 1), ((1, 0), 1)]

    def test_witness_off_by_one(self):
        exps = [(1, 0), (0, 2), (-1, 1)]
        values = oracle.weighted_values(self.rays, exps)
        self.assertIsNone(oracle.check_witness(self.rays, values, exps))
        bad = [(1, 0), (0, 3), (-1, 1)]
        self.assertIsNotNone(oracle.check_witness(self.rays, values, bad))
        self.assertIsNotNone(oracle.check_witness(self.rays, values, None))

    def test_program_witness_passes(self):
        X = fan.WeightedFan.build(2, self.rays)
        rays = [(r.direction, r.weight) for r in X.rays]
        values = oracle.weighted_values(rays, [(2, -1), (0, 1)])
        f = evalmap.image_membership(X, evalmap.RayFunction(X, values))
        self.assertIsNone(oracle.check_witness(rays, values, [u for u, _ in f.terms]))

    def test_membership_box_contains_search_region(self):
        gens = [(-1, -1), (0, 1), (1, 0)]
        # z . g <= G on a balanced spanning fan: |z_i| is at most G - deg
        self.assertGreaterEqual(oracle.SearchRegion(gens).box((3, 2, 1)), 5)


class PolynomialChecks(unittest.TestCase):
    def setUp(self):
        rng = random.Random(4)
        self.c, lift = wl_canon.concave_lift(rng, 2)
        exps = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 3)]
        self.terms = [(u, lift(u)) for u in exps]
        self.vertex = ((4, -1), lift((4, -1)))

    def test_canonical_form_missing_vertex(self):
        P = laurent.LaurentPoly.make(2, self.terms + [((1, 1), Fraction(-100))])
        got = laurent.canonicalize(P).terms
        self.assertIsNone(oracle.check_canonical(self.terms, got))
        self.assertIn("1 vertex terms missing", oracle.check_canonical(self.terms, got[1:]))

    def test_wrong_witness_point(self):
        P = laurent.LaurentPoly.make(2, self.terms)
        PW = laurent.LaurentPoly.make(2, self.terms + [self.vertex])
        pt = laurent.fn_witness(P, PW)
        other = self.terms + [self.vertex]
        self.assertIsNone(oracle.check_separates(self.terms, other, pt, 2))
        far_away = (Fraction(-50), Fraction(0))  # the new vertex loses there
        self.assertIsNotNone(oracle.check_separates(self.terms, other, far_away, 2))

    def test_germ(self):
        P = laurent.LaurentPoly.make(2, self.terms)
        point = [Fraction(x + y) - a for x, y, a in zip((0, 0), (2, 0), self.c)]
        g = laurent.germ_localize(P, point)
        self.assertIsNone(oracle.check_boolean_germ(self.terms, point, g.part.terms, g.grade))
        self.assertIsNotNone(oracle.check_boolean_germ(self.terms, point, g.part.terms[1:], g.grade))
        self.assertIsNotNone(oracle.check_boolean_germ(self.terms, point, g.part.terms, g.grade + 1))

    def test_text_round_trip(self):
        terms = [((2, -1), Fraction(-1, 2)), ((0, 0), Fraction(0)), ((0, 1), Fraction(3))]
        text = oracle.format_poly(terms, 2)
        self.assertEqual(oracle.parse_poly(text, 2), terms)
        self.assertEqual(sorted(laurent.parse_poly_text(text, 2).terms), sorted(terms))


class WorkloadOps(unittest.TestCase):
    def test_canon_ops_reject_corrupted_answers(self):
        ops = wl_canon.build(random.Random(1), "")
        by_kind = {}
        for op in ops:
            by_kind.setdefault(op.label.split()[0], op)
        canon, eq_false = by_kind["canon"], by_kind["eq_false"]
        out = canon.run()
        self.assertIsNone(canon.check(out))
        self.assertIsNotNone(canon.check(laurent.CanonicalFn(out.num_vars, out.terms[1:])))
        equal, point = eq_false.run()
        self.assertIsNone(eq_false.check((equal, point)))
        self.assertIsNotNone(eq_false.check((True, None)))

    def test_known_fault_still_fails(self):
        ops = wl_member.build(random.Random(1), "")
        faults = [op for op in ops if op.known_fault]
        self.assertEqual(len(faults), len(wl_member.KNOWN_FAULT))
        for op in faults:
            with self.assertRaises(op.known_fault):
                op.run()


class Figures(unittest.TestCase):
    def test_pass_count_follows_seconds_only(self):
        counts = {w: run.pass_count(w, 24) for w in run.WORKLOADS}
        self.assertEqual(counts, {"canon": 8, "member": 8, "lattice": 13, "cli": 12})
        self.assertEqual(run.pass_count("canon", 1), run.MIN_PASSES)

    def test_tail_percentile(self):
        self.assertEqual(run.tail_percentile(120), 90)
        self.assertEqual(run.tail_percentile(201), 95)
        self.assertEqual(run.tail_percentile(190), 90)

    def test_latency_figures(self):
        times = [[0.001 * (i + 1)] * 3 for i in range(100)]
        fig = run.latency_figures(times, 0)
        self.assertAlmostEqual(fig["latency_p50_ms"], 50.5)
        self.assertAlmostEqual(fig["latency_tail_ms"], 90)
        self.assertAlmostEqual(fig["ops_per_s"], 100 / 5.05)

    def test_latency_figures_take_the_median_pass(self):
        times = [[0.001, 0.010, 0.002]] * 40
        fig = run.latency_figures(times, 0)
        self.assertAlmostEqual(fig["latency_p50_ms"], 2)
        self.assertAlmostEqual(fig["ops_per_s"], 500)

    def test_times_are_scaled_to_the_yardstick(self):
        """An operation timed while the yardstick runs at half its nominal
        speed counts half its wall time."""
        op = Op("sleep", lambda: time.sleep(0.02), lambda _: None)
        real = run.yardstick
        run.yardstick = lambda: 2 * run.YARDSTICK_SECONDS
        try:
            times, failed, errors, _, _, yards = run.timed_passes([op], [(None, False)], 2)
        finally:
            run.yardstick = real
        self.assertEqual((failed, errors), (0, []))
        self.assertEqual(yards, [2 * run.YARDSTICK_SECONDS] * 2)
        for t in times[0]:
            self.assertGreaterEqual(t, 0.01)
            self.assertLess(t, 0.015)


class Tracing(unittest.TestCase):
    def test_install_and_uninstall(self):
        before = (laurent._lp.find_point, evalmap.snf, laurent.LaurentPoly.eval,
                  fan.WeightedFan.__dict__["build"])
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(evalmap.snf, before[1])
            self.assertIs(evalmap.snf, intlat.snf)
            P = laurent.parse_poly_text("0 + x + y + x*y", 2)
            laurent.fn_eq(P, P)
            evalmap.is_smooth(fan.standard_model(2, 3))
        finally:
            tracer.uninstall()
        after = (laurent._lp.find_point, evalmap.snf, laurent.LaurentPoly.eval,
                 fan.WeightedFan.__dict__["build"])
        self.assertEqual(before, after)
        snap = tracer.snapshot()
        self.assertEqual(snap["laurent.canonicalize.calls"], 2)
        self.assertEqual(snap["lp.find_point.calls"], 8)
        self.assertGreater(snap["intlat.snf.self_ms"], 0)
        self.assertGreater(snap["fan.build.self_ms"], 0)
        self.assertLessEqual(snap["lp.find_point.self_ms"], snap["trace.layers_self_ms"])


class Spec(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

    def test_benchmark_json_is_current(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            self.assertEqual(fh.read(), spec.benchmark_json())

    def test_limits(self):
        obj = json.loads(spec.benchmark_json())
        names = [w["name"] for w in obj["workloads"]]
        names += [m["name"] for m in obj["end_to_end"] + obj["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(all(self.NAME.match(n) for n in names))
        self.assertTrue(all(len(w["why"]) <= 200 for w in obj["workloads"]))
        self.assertTrue(all(m["bound"] <= 0.25 for m in obj["end_to_end"]))
        setup = [m for m in obj["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}])
        self.assertEqual(set(obj["workloads"][0]), {"name", "why"})
        self.assertEqual(sorted(w["name"] for w in obj["workloads"]), sorted(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
