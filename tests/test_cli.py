import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from tropfan import IntMatrix, WeightedFan, det, invariant_factors, laurent
from tropfan.cli import run

ROOT = Path(__file__).resolve().parent.parent
FIX = ROOT / "fixtures"


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGoldens:
    def test_smooth_L23(self, capsys):
        code, out = invoke(capsys, "fan", "smooth", str(FIX / "L23.json"))
        assert code == 0
        assert out == '{"smooth": true}\n'

    def test_smooth_Y(self, capsys):
        code, out = invoke(capsys, "fan", "smooth", str(FIX / "Y.json"))
        assert code == 0
        assert out == '{"smooth": false, "reason": "lattice index 5"}\n'

    def test_smooth_Z(self, capsys):
        code, out = invoke(capsys, "fan", "smooth", str(FIX / "Z.json"))
        assert code == 0
        assert out == '{"smooth": false, "reason": "rank 2 < 3"}\n'

    def test_smooth_L22_L34(self, capsys):
        for name in ("L22", "L34"):
            code, out = invoke(capsys, "fan", "smooth", str(FIX / name) + ".json")
            assert (code, out) == (0, '{"smooth": true}\n')

    def test_poly_initial(self, capsys):
        code, out = invoke(
            capsys, "poly", "initial", "--point", "0,0", "1 + 3*x^1 + 2*y^1 + 3*x^1*y^1"
        )
        assert code == 0
        assert out == '"3*x + 3*x*y"\n'

    def test_fan_check(self, capsys):
        code, out = invoke(capsys, "fan", "check", str(FIX / "Y.json"))
        assert code == 0
        assert json.loads(out) == {
            "ambient_dim": 2,
            "rays": ["(-4,-3)", "(1,2)", "(3,1)"],
            "weights": [1, 1, 1],
            "balanced": True,
            "realizable": True,
        }

    def test_fan_generators(self, capsys):
        code, out = invoke(capsys, "fan", "generators", str(FIX / "Y.json"))
        assert code == 0
        assert out == '{"rows": 2, "cols": 3, "data": [[-4, 1, 3], [-3, 2, 1]]}\n'

    def test_fan_evalmap(self, capsys):
        code, out = invoke(
            capsys, "fan", "evalmap", str(FIX / "L23.json"), "--poly", "0 + x + y"
        )
        assert code == 0
        assert out == '{"rays": ["(-1,-1)", "(0,1)", "(1,0)"], "values": [0, 1, 1]}\n'

    def test_output_is_stable(self, capsys):
        a = invoke(capsys, "fan", "smooth", str(FIX / "Y.json"))
        b = invoke(capsys, "fan", "smooth", str(FIX / "Y.json"))
        assert a == b


class TestRoundTrips:
    def test_reconstruct(self, capsys, tmp_path):
        mfile = tmp_path / "gen.json"
        mfile.write_text('{"data": [[-4, 1, 3], [-3, 2, 1]]}')
        code, out = invoke(capsys, "fan", "reconstruct", str(mfile))
        assert code == 0
        assert json.loads(out) == json.loads((FIX / "Y.json").read_text())

    def test_snf_contract_through_cli(self, capsys, tmp_path):
        mfile = tmp_path / "m.json"
        mfile.write_text('{"data": [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]}')
        code, out = invoke(capsys, "snf", str(mfile))
        assert code == 0
        doc = json.loads(out)
        P = IntMatrix.from_json(doc["P"])
        D = IntMatrix.from_json(doc["D"])
        Q = IntMatrix.from_json(doc["Q"])
        A = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert (P @ A @ Q) == D
        assert doc["invariant_factors"] == [2, 2, 156]
        assert abs(det(P)) == 1 and abs(det(Q)) == 1

    def test_hnf_through_cli(self, capsys, tmp_path):
        mfile = tmp_path / "m.json"
        mfile.write_text('{"data": [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]}')
        code, out = invoke(capsys, "hnf", str(mfile))
        assert code == 0
        doc = json.loads(out)
        assert doc["H"]["data"] == [[2, 0, 0], [0, 6, 0], [22, 12, 52]]

    def test_transport_through_cli(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"data": [[1, 0], [0, 1], [0, 0]]}')
        b.write_text('{"data": [[0, 1], [1, 0], [0, 0]]}')
        code, out = invoke(capsys, "transport", str(a), str(b))
        assert code == 0
        doc = json.loads(out)
        T = IntMatrix.from_json(doc["T"])
        assert (T @ IntMatrix.from_rows([[1, 0], [0, 1], [0, 0]])).data == (
            (0, 1),
            (1, 0),
            (0, 0),
        )
        assert doc["det"] in (1, -1)


class TestPoly:
    def test_eval(self, capsys):
        code, out = invoke(capsys, "poly", "eval", "1 + 3*x + 2*y + 3*x*y", "--point", "1/2,-1")
        assert (code, out) == (0, '{"value": "7/2"}\n')

    def test_eval_bottom(self, capsys):
        # leading-dash polynomials go after the "--" separator
        code, out = invoke(capsys, "poly", "eval", "--point", "0", "--vars", "1", "--", "-inf")
        assert (code, out) == (0, '{"value": "-inf"}\n')

    def test_eq_with_witness(self, capsys):
        code, out = invoke(capsys, "poly", "eq", "0 + 1*x + 0*x^2", "0 + 0*x^2")
        assert code == 0
        doc = json.loads(out)
        assert doc["equal"] is False and len(doc["witness"]) == 1

    def test_eq_true(self, capsys):
        code, out = invoke(capsys, "poly", "eq", "0 + 1*x + 2*x^2", "0 + 2*x^2")
        assert (code, out) == (0, '{"equal": true}\n')

    @pytest.mark.parametrize("vars_", [[], ["--vars", "2"]])
    @pytest.mark.parametrize("left, right", [("x", "x + y"), ("x + y", "x")])
    def test_eq_parses_each_side_once(self, capsys, monkeypatch, vars_, left, right):
        # without --vars the sides count 1 and 2 variables; the smaller one
        # is padded with zeros rather than parsed again
        calls = []
        parse = laurent.parse_poly_text

        def counted(*args):
            calls.append(args)
            return parse(*args)

        monkeypatch.setattr(laurent, "parse_poly_text", counted)
        code, out = invoke(capsys, "poly", "eq", left, right, *vars_)
        assert (code, out) == (0, '{"equal": false, "witness": ["-1", "0"]}\n')
        assert len(calls) == 2

    def test_germ(self, capsys):
        code, out = invoke(capsys, "poly", "germ", "1 + 3*x + 2*y + 3*x*y", "--point", "0,0")
        assert (code, out) == (0, '{"part": "x + x*y", "grade": "3"}\n')


class TestMorphismCommands:
    def _write(self, tmp_path, rel_fans=False):
        mu = tmp_path / "mu.json"
        if rel_fans:
            import shutil

            shutil.copy(FIX / "L23.json", tmp_path / "L23.json")
            shutil.copy(FIX / "Y.json", tmp_path / "Y.json")
            src, tgt = "L23.json", "Y.json"
        else:
            src, tgt = str(FIX / "L23.json"), str(FIX / "Y.json")
        mu.write_text(
            json.dumps({"matrix": [[1, 3], [2, 1]], "source": src, "target": tgt})
        )
        return mu

    def test_check(self, capsys, tmp_path):
        mu = self._write(tmp_path)
        code, out = invoke(capsys, "morphism", "check", str(mu))
        assert (code, out) == (0, '{"valid": true}\n')

    def test_check_relative_fan_paths(self, capsys, tmp_path):
        mu = self._write(tmp_path, rel_fans=True)
        code, out = invoke(capsys, "morphism", "check", str(mu))
        assert (code, out) == (0, '{"valid": true}\n')

    def test_check_inline_fans(self, capsys, tmp_path):
        mu = tmp_path / "mu.json"
        fan = json.loads((FIX / "L23.json").read_text())
        mu.write_text(json.dumps({"matrix": [[1, 0], [0, 1]], "source": fan, "target": fan}))
        code, out = invoke(capsys, "morphism", "check", str(mu))
        assert (code, out) == (0, '{"valid": true}\n')

    def test_pullback(self, capsys, tmp_path):
        mu = self._write(tmp_path)
        code, out = invoke(capsys, "morphism", "pullback", str(mu), "--poly", "0 + x")
        assert code == 0
        assert json.loads(out) == {
            "vars": 2,
            "terms": [{"coeff": "0", "exp": [0, 0]}, {"coeff": "0", "exp": [1, 3]}],
        }

    def test_realize(self, capsys, tmp_path):
        hs = tmp_path / "hs.json"
        hs.write_text(
            json.dumps(
                {
                    "source": str(FIX / "Y.json"),
                    "target": str(FIX / "L23.json"),
                    "images": [[-4, 3, 1], [-3, 1, 2]],
                }
            )
        )
        code, out = invoke(capsys, "morphism", "realize", str(hs))
        assert code == 0
        doc = json.loads(out)
        assert doc["matrix"] == [[1, 3], [2, 1]]
        assert doc["ray_map"] == {"(-1,-1)": "(-4,-3)", "(0,1)": "(3,1)", "(1,0)": "(1,2)"}


class TestFanCheck:
    # the exact bytes `fan check` prints; realizable is balanced for a loaded fan
    EXPECTED = {
        "L22": '{"ambient_dim": 2, "rays": ["(-1,0)", "(1,0)"], "weights": [1, 1], '
               '"balanced": true, "realizable": true}\n',
        "L23": '{"ambient_dim": 2, "rays": ["(-1,-1)", "(0,1)", "(1,0)"], "weights": [1, 1, 1], '
               '"balanced": true, "realizable": true}\n',
        "L34": '{"ambient_dim": 3, "rays": ["(-1,-1,-1)", "(0,0,1)", "(0,1,0)", "(1,0,0)"], '
               '"weights": [1, 1, 1, 1], "balanced": true, "realizable": true}\n',
        "Y": '{"ambient_dim": 2, "rays": ["(-4,-3)", "(1,2)", "(3,1)"], "weights": [1, 1, 1], '
             '"balanced": true, "realizable": true}\n',
        "Z": '{"ambient_dim": 2, "rays": ["(-1,0)", "(0,-1)", "(0,1)", "(1,0)"], "weights": [1, 1, 1, 1], '
             '"balanced": true, "realizable": true}\n',
        "unbalanced": '{"ambient_dim": 2, "rays": ["(-1,-1)", "(0,1)", "(1,0)"], "weights": [1, 3, 2], '
                      '"balanced": false, "realizable": false, "defect": [1, 2]}\n',
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_builds_the_fan_once(self, capsys, monkeypatch, tmp_path, name):
        path = FIX / f"{name}.json"
        if name == "unbalanced":
            path = tmp_path / "f.json"
            path.write_text(json.dumps({"ambient_dim": 2, "rays": [
                {"direction": [2, 0], "weight": 1}, {"direction": [0, 1], "weight": 3},
                {"direction": [-1, -1], "weight": 1}]}))
        builds = []
        build = WeightedFan.build.__func__
        monkeypatch.setattr(WeightedFan, "build", classmethod(lambda cls, *a: builds.append(a) or build(cls, *a)))
        assert invoke(capsys, "fan", "check", str(path)) == (0, self.EXPECTED[name])
        assert len(builds) == 1


class TestMember:
    def test_member_true(self, capsys):
        code, out = invoke(capsys, "member", str(FIX / "L23.json"), "--values", "1,0,0")
        assert code == 0
        doc = json.loads(out)
        assert doc["member"] is True and doc["witness"]

    def test_member_false(self, capsys):
        code, out = invoke(capsys, "member", str(FIX / "Y.json"), "--values", "1,0,-1")
        assert (code, out) == (0, '{"member": false}\n')

    def test_bound_flag_and_env(self, capsys, monkeypatch, tmp_path):
        fan = tmp_path / "f.json"
        fan.write_text(
            json.dumps(
                {"ambient_dim": 1, "rays": [{"direction": [-1], "weight": 1}, {"direction": [1], "weight": 1}]}
            )
        )
        # both are accepted and checked, and neither changes the answer
        expected = '{"member": true, "witness": "x^-100"}\n'
        assert invoke(capsys, "member", str(fan), "--values=100,-100", "--bound", "10") == (0, expected)
        monkeypatch.setenv("TROPFAN_MEMBER_BOUND", "200")
        assert invoke(capsys, "member", str(fan), "--values=100,-100") == (0, expected)

    def test_padded_bottom_values(self, capsys):
        expected = '{"member": true, "witness": "-inf"}\n'
        assert invoke(capsys, "member", str(FIX / "L23.json"), "--values= -inf, -inf, -inf") == (0, expected)

    def test_padded_bottom_image_is_read_as_bottom(self, capsys, tmp_path):
        # padded -inf is the bottom function, whose degree is -inf, not 0
        hs = tmp_path / "hs.json"
        hs.write_text(json.dumps({"source": str(FIX / "L22.json"), "target": str(FIX / "L23.json"),
                                  "images": [[" -inf", "-inf ", "-inf"], [0, 0, 0]]}))
        code, out = invoke(capsys, "morphism", "realize", str(hs))
        assert (code, json.loads(out)) == (1, {"error": "bad_parameters",
                                               "message": "generator images must have degree 0"})


class TestPlotAndErrors:
    def test_plot_svg(self, capsys):
        code, out = invoke(capsys, "fan", "plot", str(FIX / "L23.json"))
        assert code == 0
        assert out.startswith("<svg ") and out.rstrip().endswith("</svg>")
        assert out.count("<line") == 3

    def test_plot_direction_beyond_float_range(self, capsys, tmp_path):
        # 10**400 + 1 has no float; the ray is drawn as (1, 0) would be
        fan = tmp_path / "f.json"
        fan.write_text(json.dumps({"ambient_dim": 2, "rays": [
            {"direction": [10**400 + 1, 1], "weight": 1}, {"direction": [-1, 0], "weight": 1}]}))
        code, out = invoke(capsys, "fan", "plot", str(fan))
        assert code == 0
        assert '<line x1="200.00" y1="200.00" x2="350.00" y2="200.00"' in out
        assert '<line x1="200.00" y1="200.00" x2="50.00" y2="200.00"' in out

    def test_plot_rejects_3d(self, capsys):
        code, out = invoke(capsys, "fan", "plot", str(FIX / "L34.json"))
        assert code == 1
        assert json.loads(out)["error"] == "dimension_mismatch"

    def test_missing_file_is_domain_error(self, capsys):
        code, out = invoke(capsys, "fan", "smooth", "no-such-file.json")
        assert code == 1
        assert json.loads(out)["error"] == "parse_error"

    def test_usage_error_exits_2(self, capsys):
        assert run(["fan"]) == 2
        assert run(["no-such-command"]) == 2
        assert run([]) == 2

    def test_pretty(self, capsys):
        code, out = invoke(capsys, "--pretty", "fan", "smooth", str(FIX / "Y.json"))
        assert code == 0
        assert out == '{\n  "smooth": false,\n  "reason": "lattice index 5"\n}\n'

    def test_unbalanced_fan_smooth_reports_error(self, capsys, tmp_path):
        fan = tmp_path / "f.json"
        fan.write_text(
            json.dumps(
                {"ambient_dim": 2, "rays": [{"direction": [1, 0], "weight": 1}, {"direction": [0, 1], "weight": 1}]}
            )
        )
        code, out = invoke(capsys, "fan", "smooth", str(fan))
        assert code == 1
        assert json.loads(out)["error"] == "not_balanced"


class TestConsoleEntry:
    """``python -m tropfan.cli`` through :func:`tropfan.cli.main`."""

    def module(self, tmp_path, stdout):
        mfile = tmp_path / "m.json"
        rng = random.Random(12)
        mfile.write_text(json.dumps({"data": [[rng.randint(-9, 9) for _ in range(12)] for _ in range(12)]}))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "tropfan.cli", "--pretty", "snf", str(mfile)],
            stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60,
        )

    def test_writes_the_document(self, tmp_path):
        proc = self.module(tmp_path, subprocess.PIPE)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert len(json.loads(proc.stdout)["invariant_factors"]) == 12

    def test_closed_pipe_exits_1_silently(self, tmp_path):
        # The read end is closed before the command starts, as when
        # ``| head`` has already exited: every write fails with EPIPE.
        r, w = os.pipe()
        os.close(r)
        try:
            proc = self.module(tmp_path, w)
        finally:
            os.close(w)
        assert (proc.returncode, proc.stderr) == (1, b"")
