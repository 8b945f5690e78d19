"""Fuzz ``cli.run`` with malformed files and text: whatever the input, no
exception escapes, the exit code is 0, 1 or 2, and standard output is one
JSON document (empty on a usage error, SVG from a successful ``fan plot``).

Sizes stay small (ambient dimension and variable count at most 4, a few
rays or terms, member search bound at most 2) so that no case runs a long
search."""

import copy
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropfan.cli import run

FIX = Path(__file__).resolve().parent.parent / "fixtures"
FANS = sorted(str(p) for p in FIX.glob("*.json"))

FIXTURES = {path: json.loads(Path(path).read_text()) for path in FANS}

SMALL_INT = st.integers(-3, 3)
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), SMALL_INT, st.floats(), st.text(max_size=3)),
    lambda kids: st.one_of(st.lists(kids, max_size=3), st.dictionaries(st.text(max_size=3), kids, max_size=3)),
    max_leaves=6,
)
MALFORMED = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.sampled_from([1.5, 2.0, -0.5, True, False, None, "", "a", "a\x00", "1.9", "2", "-1", [], {}]),
    st.integers(-(10**20), 10**20),
    JSON,
)


def _positions(obj, path=()):
    """Paths to every value nested inside obj, obj itself excluded."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _positions(value, path + (key,))


@st.composite
def corrupted(draw, valid):
    """A valid object with up to two values deleted or made malformed, or
    now and then arbitrary JSON."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON)
    obj = draw(valid)
    for _ in range(draw(st.integers(0, 2))):
        paths = list(_positions(obj))
        if not paths:
            break
        *head, last = draw(st.sampled_from(paths))
        parent = obj
        for key in head:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[last]
        else:
            parent[last] = draw(MALFORMED)
    return obj


@st.composite
def valid_fans(draw):
    n = draw(st.integers(1, 4))
    vec = st.lists(SMALL_INT, min_size=n, max_size=n)
    rays = [[draw(vec), draw(st.integers(1, 3))] for _ in range(draw(st.integers(1, 4)))]
    last = [-sum(d[i] * w for d, w in rays) for i in range(n)]
    if draw(st.booleans()) and any(last):  # balance it
        rays.append([last, 1])
    return {"ambient_dim": n, "rays": [{"direction": d, "weight": w} for d, w in rays]}


@st.composite
def matrix_data(draw, rows=None, cols=None):
    rows = rows or draw(st.integers(1, 3))
    cols = cols or draw(st.integers(1, 3))
    return [draw(st.lists(SMALL_INT, min_size=cols, max_size=cols)) for _ in range(rows)]


def valid_matrices():
    return matrix_data().map(lambda data: {"rows": len(data), "cols": len(data[0]), "data": data})


@st.composite
def valid_morphisms(draw):
    src, tgt = draw(st.sampled_from(FANS)), draw(st.sampled_from(FANS))
    m, n = FIXTURES[tgt]["ambient_dim"], FIXTURES[src]["ambient_dim"]
    refs = [src, tgt]
    for i in draw(st.sets(st.integers(0, 1))):
        refs[i] = copy.deepcopy(FIXTURES[refs[i]])  # inline instead of a path
    return {"matrix": draw(matrix_data(m, n)), "source": refs[0], "target": refs[1]}


@st.composite
def valid_homspecs(draw):
    src, tgt = draw(st.sampled_from(FANS)), draw(st.sampled_from(FANS))
    k = len(FIXTURES[tgt]["rays"])
    images = []
    for _ in range(FIXTURES[src]["ambient_dim"]):
        head = draw(st.lists(SMALL_INT, min_size=k - 1, max_size=k - 1))
        images.append(head + [-sum(head)])  # degree zero
    return {"source": src, "target": tgt, "images": images}


FACTORS = st.sampled_from(
    ["x", "y", "z", "w", "x1", "x3", "x^2", "y^-1", "x^", "x^1.5", "z^a", "^", "q", "",
     "0", "3", "-1/2", "1/0", "1.5", "-inf"]
)
TERMS = st.lists(FACTORS, min_size=1, max_size=3).map("*".join)
POLYS = st.lists(TERMS, min_size=1, max_size=4).map(" + ".join)
COORDS = st.sampled_from(["0", "1", "-2", "1/2", "1/0", "1.5", "nan", "inf", "a", "", " 3"])
POINTS = st.lists(COORDS, min_size=1, max_size=4).map(",".join)
VARS = st.sampled_from([[], ["--vars", "-3"], ["--vars", "0"], ["--vars", "2"], ["--vars", "4"],
                        ["--vars", "x"], ["--vars", "1.5"]])
VALUES = st.lists(st.sampled_from(["1", "0", "-1", "2", "-inf", "1.9", "a", "", " 2", "True"]),
                  min_size=1, max_size=4).map(",".join)
BOUNDS = st.sampled_from([[], ["--bound", "-1"], ["--bound", "0"], ["--bound", "2"],
                          ["--bound", "x"], ["--bound", "1.5"]])
ENV_BOUNDS = st.sampled_from(["2", "0", "-1", "abc", "1.5"])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def check(argv, env_bound="2"):
    out = io.StringIO()
    with mock.patch.dict(os.environ, {"TROPFAN_MEMBER_BOUND": env_bound}), \
            redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run(argv)
    text = out.getvalue()
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert text == "", argv
    elif code == 0 and argv[:2] == ["fan", "plot"]:
        assert text.startswith("<svg "), argv
    else:
        doc = json.loads(text)
        if code == 1:
            assert sorted(doc) == ["error", "message"], (argv, doc)


def write(workdir, name, obj) -> str:
    path = workdir / name
    path.write_text(json.dumps(obj))  # floats become NaN/Infinity tokens
    return str(path)


@settings(max_examples=150)
@given(fan=corrupted(valid_fans()), cmd=st.sampled_from(
    [["fan", "check"], ["fan", "smooth"], ["fan", "generators"], ["fan", "plot"],
     ["fan", "evalmap", "--poly", "0 + x"], ["member", "--values", "1,0,-1"]]))
def test_fan_files(workdir, fan, cmd):
    path = write(workdir, "fan.json", fan)
    check(cmd[:2] + [path] + cmd[2:])


@settings(max_examples=150)
@given(a=corrupted(valid_matrices()), b=corrupted(valid_matrices()),
       cmd=st.sampled_from(["snf", "hnf", "reconstruct", "transport"]))
def test_matrix_files(workdir, a, b, cmd):
    pa, pb = write(workdir, "a.json", a), write(workdir, "b.json", b)
    argv = {"reconstruct": ["fan", "reconstruct", pa], "transport": ["transport", pa, pb]}
    check(argv.get(cmd, [cmd, pa]))


@settings(max_examples=150)
@given(mor=corrupted(valid_morphisms()),
       cmd=st.sampled_from([["check"], ["pullback", "--poly", "0 + x"]]))
def test_morphism_files(workdir, mor, cmd):
    path = write(workdir, "mu.json", mor)
    check(["morphism", cmd[0], path] + cmd[1:])


@settings(max_examples=150)
@given(hs=corrupted(valid_homspecs()))
def test_homspec_files(workdir, hs):
    check(["morphism", "realize", write(workdir, "hs.json", hs)])


@settings(max_examples=150)
@given(cmd=st.sampled_from(["eval", "initial", "germ", "eq"]), poly=POLYS, other=POLYS,
       point=POINTS, nvars=VARS)
def test_poly_text(cmd, poly, other, point, nvars):
    if cmd == "eq":
        check(["poly", "eq", poly, other] + nvars)
    else:
        check(["poly", cmd, poly, "--point=" + point] + nvars)


@settings(max_examples=150)
@given(fan=st.sampled_from(FANS), values=VALUES, bound=BOUNDS, env_bound=ENV_BOUNDS)
def test_member_values(fan, values, bound, env_bound):
    check(["member", fan, "--values=" + values] + bound, env_bound)
