"""Strict integer input at the outside boundary: every loader accepts ints
and decimal-integer strings, and rejects floats, booleans, NaN and the
infinities with a structured error instead of truncating them."""

import json
import math
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import tropfan
from tropfan import (
    NEG_INF,
    BadParameters,
    DimensionMismatch,
    FanMorphism,
    IntMatrix,
    LaurentPoly,
    ParseError,
    Ray,
    RayFunction,
    WeightedFan,
    germ_localize,
    image_membership,
    lattice_solve,
    parse_point,
    parse_poly_text,
    poly_from_json,
    primitive,
    standard_model,
    support_contains,
)
from tropfan.cli import run
from tropfan.laurent import MAX_TEXT_VARS
from tropfan.semiring import as_index, as_int, as_ints, as_scaled, as_trop

ROOT = Path(__file__).resolve().parent.parent
FIX = ROOT / "fixtures"
INF = float("inf")


def invoke(capsys, *argv):
    code = run([str(a) for a in argv])
    return code, capsys.readouterr().out


def error_of(capsys, *argv):
    code, out = invoke(capsys, *argv)
    assert code == 1
    return json.loads(out)["error"]


class TestAsInt:
    @pytest.mark.parametrize("v, want", [(3, 3), (-12, -12), ("7", 7), ("-40", -40), (10**30, 10**30)])
    def test_accepts_ints_and_integer_strings(self, v, want):
        assert as_int(v) == want

    @pytest.mark.parametrize("v", [1.9, 2.0, math.nan, INF, -INF, True, False, None, [1], Fraction(1)])
    def test_type_errors(self, v):
        with pytest.raises(TypeError):
            as_int(v)

    @pytest.mark.parametrize("v", ["1.9", "abc", "", "inf", "NaN", "1/2"])
    def test_value_errors(self, v):
        with pytest.raises(ValueError):
            as_int(v)

    def test_as_trop_rejects_booleans(self):
        with pytest.raises(TypeError):
            as_trop(True)


class Index:
    """An integer-like object that is not an int, as a NumPy integer is."""

    def __init__(self, v):
        self.v = v

    def __index__(self):
        return self.v


class TestAsIndex:
    @pytest.mark.parametrize("v, want", [(3, 3), (-12, -12), (10**30, 10**30), (Index(5), 5)])
    def test_accepts_ints_and_index_objects(self, v, want):
        assert type(as_index(v)) is int and as_index(v) == want

    @pytest.mark.parametrize("v", ["7", 2.0, math.nan, -INF, True, False, None, Fraction(1), NEG_INF])
    def test_type_errors(self, v):
        # strings are outside text, read by as_int only
        with pytest.raises(TypeError):
            as_index(v)


def _fan(**ray):
    entry = {"direction": [1, 0], "weight": 1}
    entry.update(ray)
    return {"ambient_dim": 2, "rays": [entry, {"direction": [-1, 0], "weight": 1}]}


BAD_FANS = {
    "ambient_dim float": dict(_fan(), ambient_dim=2.7),
    "direction float": _fan(direction=[1.5, 0]),
    "weight float": _fan(weight=1.9),
    "weight bool": _fan(weight=True),
    "weight Infinity": _fan(weight=INF),
    "direction Infinity": _fan(direction=[INF, 0]),
}


class TestFanJson:
    @pytest.mark.parametrize("name", sorted(BAD_FANS))
    def test_library_rejects(self, name):
        with pytest.raises(ParseError):
            WeightedFan.from_json(BAD_FANS[name])

    @pytest.mark.parametrize("name", sorted(BAD_FANS))
    def test_cli_rejects(self, capsys, tmp_path, name):
        path = tmp_path / "fan.json"
        path.write_text(json.dumps(BAD_FANS[name]))  # writes Infinity/NaN tokens
        assert error_of(capsys, "fan", "check", path) == "parse_error"

    def test_integer_strings_still_accepted(self):
        X = WeightedFan.from_json(
            {"ambient_dim": "2", "rays": [{"direction": ["2", "0"], "weight": "1"},
                                          {"direction": [-1, 0], "weight": 2}]}
        )
        assert X == WeightedFan.build(2, [((1, 0), 2), ((-1, 0), 2)])


class TestMatrixJson:
    @pytest.mark.parametrize("field", [{"rows": INF}, {"rows": "a"}, {"rows": True}, {"cols": 2.0}])
    def test_bad_shape_fields(self, capsys, tmp_path, field):
        obj = dict({"data": [[-1, 1]]}, **field)
        with pytest.raises(ParseError):
            IntMatrix.from_json(obj)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(obj))
        assert error_of(capsys, "snf", path) == "parse_error"
        assert error_of(capsys, "fan", "reconstruct", path) == "parse_error"

    def test_integer_strings_still_accepted(self):
        m = IntMatrix.from_json({"rows": "1", "cols": 2, "data": [["-3", 4]]})
        assert m == IntMatrix.from_rows([[-3, 4]])


class TestPolyJson:
    @pytest.mark.parametrize(
        "obj",
        [
            {"vars": 1, "terms": [{"coeff": 0.1, "exp": [1]}]},
            {"vars": 1, "terms": [{"coeff": True, "exp": [1]}]},
            {"vars": 1, "terms": [{"coeff": "1/0", "exp": [1]}]},
            {"vars": 1, "terms": [{"coeff": 0, "exp": [1.9]}]},
            {"vars": 1, "terms": [{"coeff": 0, "exp": [INF]}]},
            {"vars": 1.5, "terms": [{"coeff": 0, "exp": [1]}]},
            # a -inf term's exponent is checked like any other term's
            {"vars": 1, "terms": [{"coeff": "-inf", "exp": [1.5, "x"]}, {"coeff": 0, "exp": [1]}]},
            {"vars": 1, "terms": [{"coeff": "-inf", "exp": [1, 2]}, {"coeff": 0, "exp": [1]}]},
        ],
    )
    def test_rejects(self, obj):
        with pytest.raises(ParseError):
            poly_from_json(obj)

    def test_integer_strings_still_accepted(self):
        P = poly_from_json({"vars": "1", "terms": [{"coeff": "1/2", "exp": ["2"]}, {"coeff": 3, "exp": [0]}]})
        assert P == LaurentPoly.make(1, [((2,), Fraction(1, 2)), ((0,), 3)])

    def test_exponent_notation_coefficient(self):
        # Fraction("1e1000000") used to build a million-digit coefficient
        start = time.perf_counter()
        with pytest.raises(ParseError, match="exponent notation"):
            poly_from_json({"vars": 1, "terms": [{"coeff": "1e1000000", "exp": [0]}]})
        assert time.perf_counter() - start < 1

    def test_bottom_term_is_dropped(self):
        P = poly_from_json({"vars": 1, "terms": [{"coeff": " -inf ", "exp": [2]}, {"coeff": 0, "exp": [1]}]})
        assert P == LaurentPoly.monomial(1, [1])


# Python caps the digits of an int read from a string (4,300 by default);
# where it does not, a 5,000-digit coefficient is a valid one.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not 0 < DIGIT_LIMIT < 5000, reason="no int digit limit below 5000")


class TestPolyText:
    @pytest.mark.parametrize("text", [
        "x^", "y^ ", "x*y^", "1/0 + x",
        pytest.param("1" * 5000, id="long-numerator", marks=needs_digit_limit),
        pytest.param("1/" + "1" * 5000, id="long-denominator", marks=needs_digit_limit),
        pytest.param("x" + "1" * 5000, id="long-variable-index"),
    ])
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_poly_text(text)

    def test_negative_variable_count(self, capsys):
        with pytest.raises(BadParameters):
            parse_poly_text("x", -3)
        assert error_of(capsys, "poly", "eval", "x", "--point", "1", "--vars", "-3") == "bad_parameters"

    def test_dangling_caret_through_cli(self, capsys):
        assert error_of(capsys, "poly", "eval", "x^", "--point", "1") == "parse_error"

    def test_long_variable_index_through_cli(self, capsys):
        assert error_of(capsys, "poly", "eval", "x" + "1" * 5000, "--point", "0") == "parse_error"

    def test_variable_index_above_the_limit(self, capsys):
        with pytest.raises(ParseError):
            parse_poly_text(f"x{MAX_TEXT_VARS + 1}")
        assert parse_poly_text(f"x{MAX_TEXT_VARS}").num_vars == MAX_TEXT_VARS
        assert error_of(capsys, "poly", "eval", "x1000000", "--point", "1") == "parse_error"

    def test_variable_count_above_the_limit(self, capsys):
        with pytest.raises(BadParameters):
            parse_poly_text("x", MAX_TEXT_VARS + 1)
        assert parse_poly_text("x", MAX_TEXT_VARS).num_vars == MAX_TEXT_VARS
        assert error_of(capsys, "poly", "eval", "x", "--point", "1", "--vars", "100000000") == "bad_parameters"


class TestPointText:
    """A coordinate is ``p``, ``p/q`` or a decimal.  Exponent notation is
    refused before any arithmetic: Fraction reads ``1e100000000`` in time
    that grows with the exponent."""

    @pytest.mark.parametrize("command", ["eval", "initial", "germ"])
    @pytest.mark.parametrize("point", ["1e5000", "1E5", "2.5e-3", "1e100000000", "0,1e5"])
    def test_exponent_notation_rejected(self, capsys, command, point):
        start = time.perf_counter()
        n = str(point.count(",") + 1)
        assert error_of(capsys, "poly", command, "0 + x", "--point=" + point, "--vars", n) == "parse_error"
        assert time.perf_counter() - start < 10
        with pytest.raises(ParseError, match="exponent notation"):
            parse_point(point)

    @pytest.mark.parametrize("point, want", [("1/2", Fraction(1, 2)), ("-3", Fraction(-3)),
                                             ("0.5", Fraction(1, 2)), (" 7/4 ", Fraction(7, 4))])
    def test_plain_coordinates_keep_their_value(self, capsys, point, want):
        assert parse_point(point) == (want,)
        code, out = invoke(capsys, "poly", "eval", "x", "--point=" + point)
        assert code == 0 and json.loads(out) == {"value": str(want)}

    @pytest.mark.parametrize("point", ["", " ", "\t "])
    def test_blank_text_is_the_point_with_no_coordinates(self, capsys, point):
        assert parse_point(point) == parse_point(point, 0) == ()
        with pytest.raises(ParseError, match="has 0 coordinates, expected 2"):
            parse_point(point, 2)
        for command, want in [("eval", {"value": "3"}), ("initial", "3"), ("germ", {"part": "0", "grade": "3"})]:
            code, out = invoke(capsys, "poly", command, "3", "--point=" + point, "--vars", "0")
            assert (code, json.loads(out)) == (0, want)
            for n in ("1", "2"):
                assert error_of(capsys, "poly", command, "3", "--point=" + point, "--vars", n) == "parse_error"


class TestOutputTooLarge:
    """An answer whose integers have more digits than Python converts to
    text ends in a structured error, with no partial output."""

    NINES = "9" * 4000

    @pytest.mark.skipif(not 0 < DIGIT_LIMIT < 7999, reason="no int digit limit below 7999")
    @pytest.mark.parametrize("pretty", [[], ["--pretty"]])
    def test_value_past_the_digit_limit(self, capsys, pretty):
        start = time.perf_counter()
        code, out = invoke(capsys, *pretty, "poly", "eval", "x^" + self.NINES, "--point", self.NINES)
        assert time.perf_counter() - start < 10
        assert code == 1
        assert json.loads(out)["error"] == "output_too_large"
        assert out.count("\n") == (1 if not pretty else 4)

    def test_printable_answer_of_the_same_size_class(self, capsys):
        code, out = invoke(capsys, "poly", "eval", "x^" + self.NINES[:2000], "--point", self.NINES[:2000])
        assert code == 0 and len(json.loads(out)["value"]) == 4000

    def test_other_value_errors_pass_out_unchanged(self, capsys, monkeypatch):
        # only the digit limit's ValueError becomes output_too_large; any
        # other is a fault of the library, raised as it is with no output
        error = ValueError("not the digit limit")

        def fail(*args):
            raise error

        monkeypatch.setattr(tropfan.laurent, "parse_poly_text", fail)
        with pytest.raises(ValueError) as info:
            run(["poly", "eval", "x", "--point", "1"])
        assert info.value is error
        assert capsys.readouterr().out == ""


class TestRayValues:
    L23 = standard_model(2, 3)

    def test_library_rejects_float_value(self):
        with pytest.raises(ParseError):
            RayFunction.from_json(self.L23, {"values": [1.9, 0, 0]})
        with pytest.raises(ParseError):
            RayFunction.from_json(self.L23, {"values": ["1", True, 0]})

    def test_integer_strings_still_accepted(self):
        G = RayFunction.from_json(self.L23, {"values": ["1", "0", 0]})
        assert G == RayFunction(self.L23, (1, 0, 0))

    def test_padded_bottom_text(self):
        # the bottom's text is read as poly_from_json reads it: surrounding whitespace ignored
        assert RayFunction.from_json(self.L23, {"values": [" -inf", "-inf ", "-inf"]}).is_bottom

    @pytest.mark.parametrize("values", [[" -inf", "1", 0], [0, 0, "-inf "]])
    def test_bottom_mixed_with_integers(self, values):
        with pytest.raises(ParseError, match="only allowed when every entry is -inf"):
            RayFunction.from_json(self.L23, {"values": values})

    @pytest.mark.parametrize("values", [(1.9, 0, 0), (1, 0.0, 0), (True, 0, 0), (0, 0, False)])
    def test_constructor_rejects_floats_and_booleans(self, values):
        with pytest.raises(TypeError):
            RayFunction(self.L23, values)

    def test_constructor_accepts_ints(self):
        assert RayFunction(self.L23, (1, -2, 10**30)).values == (1, -2, 10**30)

    def test_homspec_float_image(self, capsys, tmp_path):
        hs = tmp_path / "hs.json"
        hs.write_text(json.dumps({"source": str(FIX / "Y.json"), "target": str(FIX / "L23.json"),
                                  "images": [[-4, 3, 1], [-3, 1.9, 2]]}))
        assert error_of(capsys, "morphism", "realize", hs) == "parse_error"

    def test_homspec_images_not_a_list(self, capsys, tmp_path):
        hs = tmp_path / "hs.json"
        hs.write_text(json.dumps({"source": str(FIX / "Y.json"), "target": str(FIX / "L23.json"),
                                  "images": 5}))
        assert error_of(capsys, "morphism", "realize", hs) == "parse_error"


LINE = {"ambient_dim": 1, "rays": [{"direction": [1], "weight": 1}, {"direction": [-1], "weight": 1}]}


class TestVectorsAreArrays:
    """A vector in JSON is an array: a string is not read as its
    characters, nor an object as its keys."""

    L23 = standard_model(2, 3)

    @pytest.mark.parametrize("load", [
        lambda: IntMatrix.from_json({"data": ["12", "34"]}),
        lambda: IntMatrix.from_json({"data": [{"1": 0, "2": 0}]}),
        lambda: IntMatrix.from_json({"data": "2"}),
        lambda: WeightedFan.from_json(_fan(direction="10")),
        lambda: WeightedFan.from_json(_fan(direction={"1": 0, "0": 0})),
        lambda: poly_from_json({"vars": 2, "terms": [{"coeff": 0, "exp": "12"}]}),
        lambda: RayFunction.from_json(standard_model(2, 3), {"values": "000"}),
        lambda: RayFunction.from_json(standard_model(2, 3), {"values": {"0": 0, "1": 0, "2": 0}}),
    ], ids=["matrix rows as strings", "matrix row as object", "matrix as string", "direction as string",
            "direction as object", "exponent as string", "values as string", "values as object"])
    def test_library_rejects(self, load):
        with pytest.raises(ParseError):
            load()

    @pytest.mark.parametrize("v", ["12", {"1": 0, "2": 0}, ""])
    def test_as_ints_refuses_strings_and_objects(self, v):
        with pytest.raises(TypeError):
            as_ints(v, as_int)

    @pytest.mark.parametrize("v", ["12", {"1": 0, "2": 0}])
    def test_points_refuse_strings_and_objects(self, v):
        # a point is a sequence of rationals: "12" is not the point (1, 2)
        P = parse_poly_text("0 + x + 2*y")
        for call in (as_scaled, P.eval, P.initial_form, lambda p: germ_localize(P, p),
                     self.L23.ray_of, lambda p: support_contains(self.L23, p)):
            with pytest.raises(TypeError):
                call(v)

    @pytest.mark.parametrize("doc, argv", [
        ({"data": ["12", "34"]}, ["hnf"]),
        (_fan(direction="10"), ["fan", "check"]),
        (_fan(direction="10"), ["member", "--values", "1,-1"]),
        ({"matrix": "2", "source": LINE, "target": LINE}, ["morphism", "check"]),
        ({"source": LINE, "target": LINE, "images": ["00"]}, ["morphism", "realize"]),
    ], ids=["hnf", "fan check", "member", "morphism check", "morphism realize"])
    def test_cli_rejects(self, capsys, tmp_path, doc, argv):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        assert error_of(capsys, *argv, path) == "parse_error"

    @pytest.mark.parametrize("rays", [5, None])
    def test_ray_names_not_a_list(self, rays):
        with pytest.raises(ParseError):
            RayFunction.from_json(self.L23, {"values": [0, 0, 0], "rays": rays})


class TestTwoFanFiles:
    """A morphism or hom-spec file is read in one order: its three keys, in
    the order its message names them, then the source fan, the target fan
    and last the payload (matrix or images)."""

    BAD = {"ambient_dim": 1, "rays": [{"direction": ["x"], "weight": 1}]}
    BAD_FAN = "bad fan object: invalid literal for int() with base 10: 'x'"

    @pytest.mark.parametrize("doc, argv, message", [
        ({"source": BAD, "target": LINE}, ["morphism", "check"], "morphism file needs matrix/source/target: 'matrix'"),
        ({}, ["morphism", "check"], "morphism file needs matrix/source/target: 'matrix'"),
        ({"matrix": 5, "source": BAD, "target": LINE}, ["morphism", "check"], BAD_FAN),
        ({"matrix": 5, "source": LINE, "target": BAD}, ["morphism", "check"], BAD_FAN),
        ({"matrix": 5, "source": LINE, "target": LINE}, ["morphism", "check"],
         "bad matrix object: 'int' object is not iterable"),
        ({}, ["morphism", "realize"], "homspec file needs source/target/images: 'source'"),
        ({"source": BAD}, ["morphism", "realize"], "homspec file needs source/target/images: 'target'"),
        ({"source": BAD, "target": LINE}, ["morphism", "realize"], "homspec file needs source/target/images: 'images'"),
        ({"source": LINE, "target": BAD, "images": 5}, ["morphism", "realize"], BAD_FAN),
        ({"source": LINE, "target": LINE, "images": 5}, ["morphism", "realize"],
         "homspec file needs source/target/images: 'int' object is not iterable"),
    ])
    def test_first_fault_in_reading_order(self, capsys, tmp_path, doc, argv, message):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        code, out = invoke(capsys, *argv, path)
        assert (code, json.loads(out)) == (1, {"error": "parse_error", "message": message})


class TestMemberBound:
    def test_negative_bound_flag(self, capsys):
        assert error_of(capsys, "member", FIX / "Y.json", "--values", "1,0,-1", "--bound", "-1") == "bad_parameters"

    def test_negative_bound_library(self):
        X = standard_model(2, 3)
        with pytest.raises(BadParameters):
            image_membership(X, RayFunction(X, (1, 0, 0)), bound=-1)

    @pytest.mark.parametrize("bound", [1.5, True, False, 2.0, Fraction(3)])
    @pytest.mark.parametrize("fan, values", [
        (standard_model(2, 3), (1, 0, 0)),
        (WeightedFan.build(2, [((0, 1), 1), ((0, -1), 1)]), (1, -1)),
    ])
    def test_inexact_bound_library(self, fan, values, bound):
        # 1.5 and True used to be accepted, and a float failed inside range()
        with pytest.raises(TypeError, match="search bound is an integer"):
            image_membership(fan, RayFunction(fan, values), bound=bound)

    @pytest.mark.parametrize("env, code", [("abc", "parse_error"), ("1.5", "parse_error"), ("-1", "bad_parameters")])
    def test_bad_environment_bound(self, capsys, monkeypatch, env, code):
        monkeypatch.setenv("TROPFAN_MEMBER_BOUND", env)
        assert error_of(capsys, "member", FIX / "Y.json", "--values", "1,0,-1") == code


class TestUnreadableFiles:
    def test_undecodable_bytes(self, capsys, tmp_path):
        path = tmp_path / "bin.json"
        path.write_bytes(b"\xff\xfe\x00")
        assert error_of(capsys, "fan", "check", path) == "parse_error"

    def test_nul_in_path(self, capsys):
        assert error_of(capsys, "fan", "check", "fan\x00.json") == "parse_error"


class TestLibraryConstructors:
    def test_float_exponent(self):
        with pytest.raises(TypeError):
            LaurentPoly.make(1, [((1.5,), 0)])
        with pytest.raises(TypeError):
            LaurentPoly.monomial(2, (1.0, 0))

    @pytest.mark.parametrize("c", [0.5, True, "1/2"])
    def test_direct_construction_rejects_inexact_coefficients(self, c):
        # a float used to be kept and evaluated in floating point
        with pytest.raises(TypeError):
            LaurentPoly(1, (((1,), c),))

    def test_float_direction_and_weight(self):
        with pytest.raises(TypeError):
            primitive((1.5, 0))
        with pytest.raises(TypeError):
            Ray((1.0, 0), 1)
        with pytest.raises(TypeError):
            WeightedFan.build(1, [((1,), 1.5), ((-1,), 1)])

    def test_boolean_weight(self):
        with pytest.raises(BadParameters):
            Ray((1, 0), True)

    # Each of these used to be accepted: True read as 1, and a float or bool
    # variable count or ambient dimension stored, which to_json then wrote
    # as 1.0 or true for the JSON loaders to reject.
    NON_INTEGERS = {
        "primitive True": lambda: primitive((True, 0)),
        "ray direction True": lambda: Ray((True, 0), 1),
        "build weight True": lambda: WeightedFan.build(1, [((1,), True), ((-1,), 1)]),
        "build ambient_dim float": lambda: WeightedFan.build(1.0, [((1,), 1), ((-1,), 1)]),
        "standard_model True": lambda: standard_model(True, 2),
        "direct fan ambient_dim True": lambda: WeightedFan(True, (Ray((1,), 1),)),
        "make exponent True": lambda: LaurentPoly.make(1, [((True,), 0)]),
        "make exponent True after 1": lambda: LaurentPoly.make(1, [((1,), 0), ((True,), 1)]),
        # (1.0,) and (Fraction(1),) equal (1,) and hash the same, so make must
        # refuse them before it merges terms by exponent
        "make exponent float before 1": lambda: LaurentPoly.make(1, [((1.0,), 1), ((1,), 0)]),
        "make exponent float after 1": lambda: LaurentPoly.make(1, [((1,), 0), ((1.0,), 1)]),
        "make exponent Fraction before 1": lambda: LaurentPoly.make(1, [((Fraction(1),), 1), ((1,), 0)]),
        "make exponent Fraction after 1": lambda: LaurentPoly.make(1, [((1,), 0), ((Fraction(1),), 1)]),
        "make vars True": lambda: LaurentPoly.make(True, [((1,), 0)]),
        "direct vars float": lambda: LaurentPoly(1.0, ()),
        "direct exponent float": lambda: LaurentPoly(1, (((1.5,), Fraction(0)),)),
        "direct exponent True": lambda: LaurentPoly(1, (((True,), Fraction(0)),)),
        "coeff exponent True": lambda: LaurentPoly.monomial(1, (1,)).coeff((True,)),
        "power True": lambda: LaurentPoly.monomial(1, (1,)) ** True,
        "identity True": lambda: IntMatrix.identity(True),
        # these went round as_index: True was read as 1, or a float, str or
        # Fraction failed inside range, list repetition or a comparison
        "standard_model r True": lambda: standard_model(2, True),
        "standard_model n float": lambda: standard_model(2.0, 2),
        "standard_model r Fraction": lambda: standard_model(2, Fraction(2)),
        "standard_model n str": lambda: standard_model("2", 2),
        "parse_point vars True": lambda: parse_point("1", True),
        "parse_point vars float": lambda: parse_point("1", 1.0),
        "parse_poly_text vars float": lambda: parse_poly_text("x1", 1.0),
        "parse_poly_text vars str": lambda: parse_poly_text("x1", "1"),
        "parse_poly_text vars True": lambda: parse_poly_text("-inf", True),
        "col True": lambda: IntMatrix.identity(2).col(True),
        "col float": lambda: IntMatrix.identity(2).col(1.0),
    }

    @pytest.mark.parametrize("name", sorted(NON_INTEGERS))
    def test_non_integers_rejected(self, name):
        with pytest.raises(TypeError):
            self.NON_INTEGERS[name]()

    @pytest.mark.parametrize("v", [(0.5, 0), (True, 0), (Fraction(1), 0), "10"])
    def test_apply_takes_integer_vectors(self, v):
        # apply used to return floats or Fractions, and True as 1
        T = IntMatrix.identity(2)
        mu = FanMorphism(standard_model(2, 3), standard_model(2, 3), T)
        with pytest.raises(TypeError):
            T.apply(v)
        with pytest.raises(TypeError):
            mu.apply(v)
        assert T.apply((Index(2), 1)) == mu.apply((2, 1)) == (2, 1)

    @pytest.mark.parametrize("rows", [[[True]], [[1, 0], [0, False]]])
    def test_matrix_entries(self, rows):
        # from_rows read True as 1 while the constructor rejected it
        with pytest.raises(BadParameters, match="non-integer matrix entry"):
            IntMatrix.from_rows(rows)
        with pytest.raises(BadParameters, match="non-integer matrix entry"):
            IntMatrix(tuple(map(tuple, rows)))

    def test_index_objects_stored_as_ints(self):
        X = WeightedFan.build(Index(1), [((Index(2),), Index(1)), ((-1,), 1)])
        assert X == WeightedFan.build(1, [((1,), 2), ((-1,), 1)])
        assert type(X.ambient_dim) is int
        P = LaurentPoly(Index(1), (((Index(2),), Fraction(0)),))
        assert P == LaurentPoly.make(1, [((2,), 0)]) and type(P.terms[0][0][0]) is int
        assert IntMatrix(((Index(3),),)).data == ((3,),)
        assert RayFunction(standard_model(2, 3), (Index(1), 0, 0)).values == (1, 0, 0)
        assert lattice_solve(IntMatrix.from_rows([[2]]), [Index(4)]) == (2,)
        # the JSON loaders read decimal strings into plain ints too
        X = WeightedFan.from_json({"ambient_dim": "1", "rays": [{"direction": ["2"], "weight": "1"},
                                                                {"direction": [-1], "weight": 1}]})
        assert {type(x) for ray in X.rays for x in (*ray.direction, ray.weight)} | {type(X.ambient_dim)} == {int}
        assert {type(x) for x in IntMatrix.from_json({"data": [["3", 1]]}).data[0]} == {int}
        P = poly_from_json({"vars": "1", "terms": [{"coeff": "0", "exp": ["2"]}]})
        assert type(P.num_vars) is int and type(P.terms[0][0][0]) is int
        G = RayFunction.from_json(standard_model(2, 3), {"values": ["1", "0", -1]})
        assert G.values == (1, 0, -1) and {type(v) for v in G.values} == {int}

    def test_make_refuses_exponent_notation(self):
        with pytest.raises(ValueError, match="exponent notation"):
            LaurentPoly.make(1, [((0,), "1e3")])

    @pytest.mark.parametrize("exp", [(1,), (1, 0, 0)])
    def test_coeff_exponent_length(self, exp):
        # both used to answer -inf
        with pytest.raises(DimensionMismatch):
            LaurentPoly.monomial(2, (1, 0)).coeff(exp)

    def test_ray_weight_index_object(self):
        # Ray refused a weight with __index__ that WeightedFan.build accepts
        ray = Ray((1,), Index(2))
        assert ray.weight == 2 and type(ray.weight) is int
        X = WeightedFan.build(1, [((1,), Index(1)), ((-1,), 1)])
        assert X == WeightedFan(1, (Ray((-1,), 1), Ray((1,), Index(1))))

    @pytest.mark.parametrize("w", [True, False, 1.0, 2.5, Fraction(1), "1", 0, -2, Index(0)])
    def test_ray_weight_message(self, w):
        with pytest.raises(BadParameters, match=f"^weight must be a positive integer, got {re.escape(repr(w))}$"):
            Ray((1,), w)

    @pytest.mark.parametrize("v", [(0.1, 0), (0.0, 0), (1.0, 0.0), (True, 0), (NEG_INF, 0), (-INF, 0), (0, math.nan)])
    def test_support_contains_rejects_inexact_vectors(self, v):
        # (0.1, 0) used to be read as Fraction(0.1) and answered True; -inf
        # must stay a TypeError rather than fail on a missing attribute
        with pytest.raises(TypeError):
            support_contains(standard_model(2, 3), v)

    @pytest.mark.parametrize("b", [[2.9], [2.0], [True], [Fraction(2)]])
    def test_lattice_solve_rhs(self, b):
        # 2.9 used to be truncated to 2, answering (1,)
        with pytest.raises(TypeError):
            lattice_solve(IntMatrix.from_rows([[2]]), b)

    def test_lattice_solve_integer_rhs(self):
        A = IntMatrix.from_rows([[2, 0], [0, 3]])
        assert lattice_solve(A, [4, -9]) == (2, -3)
        assert lattice_solve(A, (10**30, 3)) == (10**30 // 2, 1)
        assert lattice_solve(A, [3, 0]) is None


class TestBottomPointCoordinate:
    """A point lies in Q^n: -inf as a coordinate is a TypeError, raised on
    purpose rather than by the arithmetic."""

    P = parse_poly_text("1 + x + 2*y")

    @pytest.mark.parametrize("name", ["eval", "initial_form", "shift", "germ_localize", "germ_safe_radius"])
    @pytest.mark.parametrize("point", [(NEG_INF, 0), (0, NEG_INF)])
    def test_rejected(self, name, point):
        call = getattr(self.P, name, None) or (lambda p: getattr(tropfan, name)(self.P, p))
        with pytest.raises(TypeError, match="-inf is not a point coordinate"):
            call(point)

    def test_rejected_by_the_bottom_polynomial(self):
        with pytest.raises(TypeError, match="-inf is not a point coordinate"):
            LaurentPoly.zero(2).eval((NEG_INF, 0))
