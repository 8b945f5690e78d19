"""Workload ``cli``: in-process ``tropfan.cli.run(argv)`` with standard
output captured, over every subcommand, on the repository's ``fixtures/``
and on small inputs generated into the run's work directory at set-up.

An operation is one request, or a short session of requests a user would
make together (a fan's diagnostics, a polynomial's queries, a morphism's
check, pullback and realization, a matrix's normal forms, a few membership
questions).  Each request must exit 0 with JSON output (SVG for
``fan plot``), and its answer is checked as in the other workloads:
``fan reconstruct`` of the generator matrix gives back the fan, pulled-back
polynomials commute with evaluation, and so on.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

from tropfan import cli

import oracle
from ops import batch
from wl_canon import concave_lift, midpoints, distinct_points
from wl_lattice import random_matrix, random_unimodular
from wl_member import random_balanced_fan, standard_rays

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures")
FIXTURE_NAMES = ("L22", "L23", "L34", "Y", "Z")

def capture(argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def _label(d) -> str:
    return "(" + ",".join(str(x) for x in d) + ")"


class Inputs:
    """Input files, written at set-up.  Expected answers are computed in
    the checkers, at warm-up, so that set-up time is input construction."""

    def __init__(self, rng: random.Random, workdir: str):
        self.rng, self.workdir = rng, workdir
        self.count = 0

    def write(self, obj) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"in{self.count}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def fixture(self):
        path = os.path.join(FIXTURES, self.rng.choice(FIXTURE_NAMES) + ".json")
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        return path, [(tuple(r["direction"]), r["weight"]) for r in obj["rays"]]

    def fan(self, n=None):
        n = n or self.rng.randint(2, 4)
        rays = random_balanced_fan(self.rng, n, self.rng.randint(n + 1, n + 2), self.rng.choice((1, 1, 2)))
        return self.write(fan_json(rays)), oracle.normal_fan(rays)

    def any_fan(self, n=None):
        return self.fixture() if n is None and self.rng.random() < 0.5 else self.fan(n)


def fan_json(rays) -> dict:
    return {"ambient_dim": len(rays[0][0]),
            "rays": [{"direction": list(d), "weight": w} for d, w in rays]}


def _json(check):
    """Wrap a checker of the parsed JSON answer of a request."""
    def run_check(code, text):
        if code != 0:
            return f"exit {code}: {text.strip()[:80]}"
        try:
            answer = json.loads(text)
        except ValueError:
            return "output is not JSON"
        return check(answer)
    return run_check


def _expect(got, want, what):
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


# ------------------------------------------------------------- requests


def fan_check(inp):
    path, rays = inp.any_fan()

    def check(a):
        normal = oracle.normal_fan(rays)
        want = {"ambient_dim": len(normal[0][0]), "rays": [_label(d) for d, _ in normal],
                "weights": [w for _, w in normal], "balanced": True, "realizable": True}
        return _expect(a, want, "fan check")

    return [(["fan", "check", path], _json(check))]


def fan_smooth(inp):
    path, rays = inp.any_fan()

    def check(a):
        return _expect(a["smooth"], oracle.expected_smooth(oracle.normal_fan(rays)), "fan smooth")

    return [(["fan", "smooth", path], _json(check))]


def _boolean_poly(inp, n):
    exps = distinct_points(inp.rng, n, inp.rng.randint(2, 4), 2)
    return exps, oracle.format_poly([(u, 0) for u in exps], n)


def fan_evalmap(inp):
    path, rays = inp.any_fan()
    rays = oracle.normal_fan(rays)
    exps, text = _boolean_poly(inp, len(rays[0][0]))

    def check(a):
        return _expect(a["values"], list(oracle.weighted_values(rays, exps)), "fan evalmap")

    return [(["fan", "evalmap", path, "--poly", text], _json(check))]


def _generators(rays):
    return [[w * d[i] for d, w in rays] for i in range(len(rays[0][0]))]


def fan_generators(inp):
    path, rays = inp.any_fan()

    def check(a):
        return _expect(a["data"], _generators(oracle.normal_fan(rays)), "generators")

    return [(["fan", "generators", path], _json(check))]


def fan_reconstruct(inp):
    _, rays = inp.any_fan()
    rays = oracle.normal_fan(rays)
    path = inp.write({"data": _generators(rays)})
    return [(["fan", "reconstruct", path], _json(lambda a: _expect(a, fan_json(rays), "reconstruct")))]


def fan_plot(inp):
    path, rays = inp.fan(2) if inp.rng.random() < 0.5 else inp.fixture()
    while len(rays[0][0]) != 2:
        path, rays = inp.fixture()

    def check(code, text):
        if code != 0 or not text.startswith("<svg") or not text.rstrip().endswith("</svg>"):
            return "fan plot did not write an SVG document"
        return _expect(text.count("<line"), len(rays), "plotted rays")

    return [(["fan", "plot", path], check)]


def _poly(inp, n, terms):
    """Terms on a strictly concave lift (every term a vertex), the lift's
    linear part, and the lift itself."""
    c, lift = concave_lift(inp.rng, n)
    exps = distinct_points(inp.rng, n, terms, 3)
    return [(u, lift(u)) for u in exps], c, lift, exps


def _point_text(p):
    return ",".join(str(x) for x in p)


def poly_eval(inp):
    n = inp.rng.randint(2, 4)
    terms, *_ = _poly(inp, n, 6)
    p = [Fraction(inp.rng.randint(-9, 9), inp.rng.randint(1, 4)) for _ in range(n)]

    def check(a):
        return _expect(Fraction(a["value"]), oracle.trop_eval(terms, p), "poly eval")

    return [(["poly", "eval", oracle.format_poly(terms, n), "--point=" + _point_text(p)], _json(check))]


def _germ_point(inp, terms, c):
    (u, _), (v, _) = inp.rng.sample(terms, 2)
    return [Fraction(x + y) - a for x, y, a in zip(u, v, c)]


def poly_initial(inp):
    n = inp.rng.randint(2, 4)
    terms, c, *_ = _poly(inp, n, 6)
    p = _germ_point(inp, terms, c)

    def check(a):
        top = oracle.argmax_exponents(terms, p)
        want = sorted(t for t in terms if t[0] in top)
        return _expect(sorted(oracle.parse_poly(a, n)), want, "initial form")

    return [(["poly", "initial", oracle.format_poly(terms, n), "--point=" + _point_text(p)], _json(check))]


def poly_germ(inp):
    n = inp.rng.randint(2, 4)
    terms, c, *_ = _poly(inp, n, 6)
    p = _germ_point(inp, terms, c)

    def check(a):
        return oracle.check_boolean_germ(terms, p, oracle.parse_poly(a["part"], n), Fraction(a["grade"]))

    return [(["poly", "germ", oracle.format_poly(terms, n), "--point=" + _point_text(p)], _json(check))]


def _eq(inp, n, size, equal):
    terms, _, lift, exps = _poly(inp, n, size)
    if equal:
        other = terms + [(m, (lift(u) + lift(v)) / 2) for m, u, v in midpoints(inp.rng, exps, 2)]
    else:
        (w,) = distinct_points(inp.rng, n, 1, 4, avoid=exps)
        other = terms + [(w, lift(w))]

    def check(a):
        if a["equal"] != equal:
            return f"poly eq says {a['equal']}"
        if equal:
            return None
        return oracle.check_separates(terms, other, [Fraction(x) for x in a["witness"]], n)

    return (["poly", "eq", oracle.format_poly(terms, n), oracle.format_poly(other, n),
             "--vars", str(n)], _json(check))


def _apply(T, d) -> tuple:
    return tuple(sum(t * x for t, x in zip(row, d)) for row in T)


def _morphism(inp):
    """(source rays, target rays, T): T maps a balanced fan onto the fan of
    its image directions."""
    n = inp.rng.randint(2, 3)
    rays = oracle.normal_fan(random_balanced_fan(inp.rng, n, n + 1, 1))
    T = random_unimodular(inp.rng, n)
    return rays, oracle.normal_fan([(_apply(T, d), w) for d, w in rays]), T


def morphism_check(inp):
    rays, image, T = _morphism(inp)
    valid = inp.rng.random() < 0.5
    target = image if valid else oracle.normal_fan(standard_rays(len(T), len(T) + 1))
    src = os.path.basename(inp.write(fan_json(rays)))
    path = inp.write({"matrix": T, "source": src, "target": fan_json(target)})

    def check(a):
        want = all(oracle.in_support(target, _apply(T, d)) for d, _ in rays)
        return _expect(a["valid"], want, "morphism check")

    return [(["morphism", "check", path], _json(check))]


def member(inp):
    path, rays = inp.fixture()
    return [_member(inp, path, oracle.normal_fan(rays))]


def _member(inp, path, rays):
    n = len(rays[0][0])
    exps = distinct_points(inp.rng, n, inp.rng.randint(1, 3), 2)
    values = list(oracle.weighted_values(rays, exps))
    is_member = inp.rng.random() < 0.7
    if not is_member:
        values[0] -= rays[0][1] * (sum(values) // rays[0][1] + 1)

    def check(a):
        if a["member"] != is_member:
            return f"member says {a['member']}"
        if not is_member:
            return None
        witness = oracle.parse_poly(a["witness"], n)
        return oracle.check_witness(rays, values, [u for u, _ in witness])

    return (["member", path, "--values=" + ",".join(map(str, values))], _json(check))


# ------------------------------------------------------------- sessions


def fan_session(inp):
    return fan_check(inp) + fan_smooth(inp) + fan_generators(inp) + fan_reconstruct(inp)


def poly_session(inp):
    return poly_eval(inp) + poly_initial(inp) + poly_germ(inp) + poly_eval(inp)


def morphism_session(inp):
    rays, image, T = _morphism(inp)
    n = len(T)
    src, tgt = inp.write(fan_json(rays)), inp.write(fan_json(image))
    mor = inp.write({"matrix": T, "source": os.path.basename(src), "target": os.path.basename(tgt)})
    q_terms, *_ = _poly(inp, n, 4)
    points = [[Fraction(inp.rng.randint(-6, 6), inp.rng.randint(1, 3)) for _ in range(n)]
              for _ in range(3)]

    def check_pullback(a):
        pulled = [(tuple(t["exp"]), Fraction(t["coeff"])) for t in a["terms"]]
        for p in points:
            if oracle.trop_eval(pulled, p) != oracle.trop_eval(q_terms, _apply(T, p)):
                return "pullback does not commute with evaluation"
        return None

    images = [[w * _apply(T, d)[j] for d, w in rays] for j in range(n)]
    spec = inp.write({"source": fan_json(image), "target": fan_json(rays), "images": images})

    def check_realize(a):
        for d, w in rays:
            g = [[w * x] for x in d]
            if oracle.matmul(a["matrix"], g) != oracle.matmul(T, g):
                return "realized matrix moves a generator"
        want_map = {_label(d): _label(oracle.primitive(_apply(T, d))) for d, _ in rays}
        return _expect(a["ray_map"], want_map, "ray map")

    return [
        (["morphism", "check", mor], _json(lambda a: _expect(a["valid"], True, "morphism check"))),
        (["morphism", "pullback", mor, "--poly", oracle.format_poly(q_terms, n)], _json(check_pullback)),
        (["morphism", "realize", spec], _json(check_realize)),
    ]


def lattice_session(inp):
    m, n = inp.rng.choice(((7, 7), (6, 8), (8, 6)))
    A = random_matrix(inp.rng, m, n)
    a_path = inp.write({"data": A})
    B = oracle.matmul(random_unimodular(inp.rng, m), A)
    b_path = inp.write({"rows": m, "cols": n, "data": B})

    def check_snf(a):
        P, D, Q = (a[k]["data"] for k in "PDQ")
        factors = [D[i][i] for i in range(min(m, n)) if D[i][i]]
        return oracle.check_snf(A, P, D, Q) or _expect(a["invariant_factors"], factors, "factors")

    def check_transport(a):
        T = a["T"]["data"]
        return oracle.check_transport(A, B, T) or _expect(a["det"], oracle.frac_det(T), "det")

    return [
        (["snf", a_path], _json(check_snf)),
        (["hnf", a_path], _json(lambda a: oracle.check_hnf(A, a["H"]["data"], a["U"]["data"]))),
        (["transport", a_path, b_path], _json(check_transport)),
    ]


def member_session(inp):
    path, rays = inp.fan(3)
    return [_member(inp, path, rays) for _ in range(5)]


def eq_session(inp):
    return [_eq(inp, 2, 5, False), _eq(inp, 2, 5, True), _eq(inp, 3, 4, True)]


# Nominal wall time of one timed pass plus the cold start after it, on a
# 2-vCPU host under load; run.py times round(seconds / PASS_SECONDS)
# passes, whatever the program's speed.
PASS_SECONDS = 2.0

# Size classes: (operations per pass, [session, ...]), sessions cycled.
CLASSES = [
    (45, [fan_check, fan_smooth, fan_evalmap, fan_generators, fan_reconstruct,
          fan_plot, poly_eval, poly_initial, poly_germ, morphism_check, member]),
    (75, [fan_session, poly_session, morphism_session]),
    (30, [lattice_session, member_session, eq_session]),
]


def build(rng: random.Random, workdir: str) -> list:
    inp = Inputs(rng, workdir)
    ops = []
    for count, sessions in CLASSES:
        for i in range(count):
            session = sessions[i % len(sessions)]
            calls = [((lambda argv=argv: capture(argv)), (lambda out, chk=chk: chk(*out)))
                     for argv, chk in session(inp)]
            ops.append(batch(session.__name__, calls))
    return ops
