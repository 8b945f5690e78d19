"""Batch command-line front end.

Every subcommand reads JSON files and/or inline text arguments, writes a
single JSON document to standard output (``fan plot`` writes SVG instead)
and exits 0.  Domain failures, and answers too long to print
(``output_too_large``), print ``{"error": code, "message": ...}`` and exit
1; argparse usage problems exit 2.  Output is deterministic:
rays are always in the fan's sorted order and key order is fixed.

A request that starts with a subcommand (``poly eval ...``) is parsed by
that subcommand's own parser; any other argv (``--pretty`` first, ``-h``
above a subcommand, an unknown command, a stray argument) by the full
parser.  Output, usage text and exit codes are the same either way.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import tropfan

from .errors import DimensionMismatch, ParseError, TropfanError, malformed
from .semiring import NEG_INF, as_int, as_tuple


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bad JSON, undecodable bytes, a NUL in the path, or nesting too deep
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


# The helpers and handlers below reach the library's other modules as
# attributes of the package, which imports each on first use, so that a
# request loads only the modules it uses.


def _load_fan(path: str) -> tropfan.fan.WeightedFan:
    return tropfan.fan.WeightedFan.from_json(_load_json(path))


def _fan_ref(ref, base_dir: str) -> tropfan.fan.WeightedFan:
    """A fan given either inline or as a path relative to the referring file."""
    if isinstance(ref, dict):
        return tropfan.fan.WeightedFan.from_json(ref)
    if isinstance(ref, str):
        return _load_fan(os.path.join(base_dir, ref))  # an absolute ref stays as it is
    raise ParseError("fan reference must be a path or an inline fan object")


def _load_matrix(path: str) -> tropfan.intlat.IntMatrix:
    return tropfan.intlat.IntMatrix.from_json(_load_json(path))


def _dumps(obj, pretty: bool) -> str:
    return json.dumps(obj, indent=2 if pretty else None)


# ---------------------------------------------------------------- fan


def _cmd_fan_check(args) -> dict:
    X = _load_fan(args.fan)
    balanced = tropfan.fan.check_balancing(X)
    out = {
        "ambient_dim": X.ambient_dim,
        "rays": X.ray_labels(),
        "weights": [r.weight for r in X.rays],
        "balanced": balanced,
        # a loaded fan's generators rebuild that fan, so they are realizable iff balanced
        "realizable": balanced,
    }
    if not balanced:
        out["defect"] = [sum(row) for row in tropfan.evalmap.generator_matrix(X).data]
    return out


def _cmd_fan_smooth(args) -> dict:
    report = tropfan.evalmap.is_smooth(_load_fan(args.fan))
    if report.smooth:
        return {"smooth": True}
    return {"smooth": False, "reason": report.reason}


def _cmd_fan_evalmap(args) -> dict:
    X = _load_fan(args.fan)
    f = tropfan.laurent.parse_poly_text(args.poly, X.ambient_dim)
    return tropfan.evalmap.eval_map(X, f).to_json()


def _cmd_fan_generators(args) -> dict:
    return tropfan.evalmap.generator_matrix(_load_fan(args.fan)).to_json()


def _cmd_fan_reconstruct(args) -> dict:
    return tropfan.evalmap.reconstruct_fan(_load_matrix(args.matrix)).to_json()


def _cmd_fan_plot(args) -> str:
    X = _load_fan(args.fan)
    if X.ambient_dim != 2:
        raise DimensionMismatch("plotting is only available for 2-dimensional fans")
    size, cx, cy, scale = 400, 200.0, 200.0, 150.0
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="black"/>',
    ]
    for ray in X.rays:
        # exact int / int division first: a coordinate past float range
        # would overflow math.hypot
        top = max(map(abs, ray.direction))
        dx, dy = (x / top for x in ray.direction)
        norm = math.hypot(dx, dy)
        # unit-length segment; SVG's y axis points down
        ex, ey = cx + scale * dx / norm, cy - scale * dy / norm
        lines.append(
            f'<line x1="{cx:.2f}" y1="{cy:.2f}" x2="{ex:.2f}" y2="{ey:.2f}" '
            f'stroke="black" stroke-width="1.5"/>'
        )
        lx, ly = cx + 1.12 * scale * dx / norm, cy - 1.12 * scale * dy / norm
        lines.append(
            f'<text x="{lx:.2f}" y="{ly:.2f}" font-size="12" text-anchor="middle" '
            f'dominant-baseline="middle">{ray.weight}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines)


# ---------------------------------------------------------------- poly


def _poly_at_point(args) -> tuple[tropfan.laurent.LaurentPoly, tuple]:
    """The polynomial and the point of ``poly eval``, ``initial`` and ``germ``."""
    P = tropfan.laurent.parse_poly_text(args.poly, args.vars)
    return P, tropfan.laurent.parse_point(args.point, P.num_vars)


def _cmd_poly_eval(args) -> dict:
    P, p = _poly_at_point(args)
    return {"value": str(P.eval(p))}


def _cmd_poly_initial(args) -> str:
    P, p = _poly_at_point(args)
    return tropfan.laurent.poly_to_text(P.initial_form(p))


def _cmd_poly_eq(args) -> dict:
    P = tropfan.laurent.parse_poly_text(args.left, args.vars)
    Q = tropfan.laurent.parse_poly_text(args.right, args.vars)
    if P.num_vars != Q.num_vars:
        # pad the smaller side's exponents with zeros, which keeps lex order
        n = max(P.num_vars, Q.num_vars)
        P, Q = (
            tropfan.laurent.LaurentPoly(n, tuple((u + (0,) * (n - R.num_vars), c) for u, c in R.terms))
            for R in (P, Q)
        )
    w = tropfan.laurent.fn_witness(P, Q)  # None exactly when fn_eq
    if w is None:
        return {"equal": True}
    return {"equal": False, "witness": [str(c) for c in w]}


def _cmd_poly_germ(args) -> dict:
    P, p = _poly_at_point(args)
    g = tropfan.laurent.germ_localize(P, p)
    part = str(NEG_INF) if g.is_bottom else tropfan.laurent.poly_to_text(g.part.poly)
    return {"part": part, "grade": str(g.grade)}


# ------------------------------------------------------------ morphism


def _load_fan_file(path: str, kind: str, *keys: str) -> list:
    """The entries ``keys`` of a morphism or hom-spec file, looked up in order, with
    "source" and "target" loaded as fans: inline, or paths relative to the file."""
    obj = _load_json(path)
    with malformed(f"{kind} file needs {'/'.join(keys)}"):
        entries = [obj[key] for key in keys]
    base = os.path.dirname(os.path.abspath(path))
    return [_fan_ref(e, base) if key in ("source", "target") else e for key, e in zip(keys, entries)]


def _load_morphism(path: str) -> tuple[tropfan.fan.WeightedFan, tropfan.fan.WeightedFan, tropfan.intlat.IntMatrix]:
    """The source fan, target fan and matrix of a morphism file."""
    matrix, X, Y = _load_fan_file(path, "morphism", "matrix", "source", "target")
    return X, Y, tropfan.intlat.IntMatrix.from_json({"data": matrix})


def _cmd_morphism_check(args) -> dict:
    X, Y, T = _load_morphism(args.morphism)
    return {"valid": tropfan.morphism.validate_morphism(T, X, Y)}


def _cmd_morphism_pullback(args) -> dict:
    mu = tropfan.morphism.FanMorphism(*_load_morphism(args.morphism))
    Q = tropfan.laurent.parse_poly_text(args.poly, mu.target.ambient_dim)
    return tropfan.laurent.poly_to_json(tropfan.morphism.pullback_poly(mu, Q))


def _cmd_morphism_realize(args) -> dict:
    src, tgt, images = _load_fan_file(args.homspec, "homspec", "source", "target", "images")
    with malformed("homspec file needs source/target/images"):
        images = as_tuple(images)
    images = tuple(tropfan.evalmap.RayFunction.from_json(tgt, {"values": vals}) for vals in images)
    h = tropfan.morphism.HomSpec(src, tgt, images)
    mu = tropfan.morphism.realize_morphism(h)
    return {
        "matrix": [list(r) for r in mu.matrix.data],
        "ray_map": tropfan.morphism.extract_ray_map(mu),
    }


# ------------------------------------------------------------- lattice


def _cmd_snf(args) -> dict:
    P, D, Q = tropfan.intlat.snf(_load_matrix(args.matrix))
    return {
        "P": P.to_json(),
        "D": D.to_json(),
        "Q": Q.to_json(),
        "invariant_factors": list(tropfan.intlat.invariant_factors(D)),
    }


def _cmd_hnf(args) -> dict:
    H, U = tropfan.intlat.hnf(_load_matrix(args.matrix))
    return {"H": H.to_json(), "U": U.to_json()}


def _cmd_transport(args) -> dict:
    T = tropfan.intlat.unimodular_transport(_load_matrix(args.a), _load_matrix(args.b))
    return {"T": T.to_json(), "det": tropfan.intlat.det(T)}


# -------------------------------------------------------------- member


def _cmd_member(args) -> dict:
    X = _load_fan(args.fan)
    G = tropfan.evalmap.RayFunction.from_json(X, {"values": args.values.split(",")})
    bound = args.bound
    if bound is None:
        with malformed("bad TROPFAN_MEMBER_BOUND"):
            bound = as_int(os.environ.get("TROPFAN_MEMBER_BOUND", tropfan.evalmap.DEFAULT_MEMBER_BOUND))
    witness = tropfan.evalmap.image_membership(X, G, bound=bound)
    if witness is None:
        return {"member": False}
    return {"member": True, "witness": tropfan.laurent.poly_to_text(witness)}


# ------------------------------------------------------------- wiring


@functools.cache  # built once per process; parsing leaves it unchanged
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The full parser, and the table of subcommands: for each command path,
    ``("snf",)`` or ``("poly", "eval")`` say, that subcommand's own parser
    and the namespace that the full parser's nested dispatch hands it."""
    # the help shows the module docstring less its last paragraph, on parsing
    top = argparse.ArgumentParser(prog="tropfan", description=__doc__ and __doc__.rpartition("\n\n")[0])
    top.add_argument("--pretty", action="store_true", help="indent JSON output")
    leaves = {}

    def group(parser, path, start):
        """The adder of the subcommands below path to parser.  The nested
        dispatch has set start by then, and names the subcommand it takes
        in ``command`` at the top, ``<group>_command`` below a group."""
        dest = "_".join((*path, "command"))
        subs = parser.add_subparsers(dest=dest, required=True)

        def add(name, fn=None, *positionals, raw=False, **kwargs):
            """The parser of the leaf name, taking positionals first and
            answered by fn(args), printed as JSON or, when raw, as it is;
            without fn, the adder of the subcommands of the group name."""
            p, here = subs.add_parser(name, **kwargs), {**start, dest: name}
            if fn is None:
                return group(p, (*path, name), here)
            for arg in positionals:
                p.add_argument(arg)
            p.set_defaults(fn=fn, raw=raw)
            leaves[(*path, name)] = p, here
            return p

        return add

    add = group(top, (), {"pretty": False})
    fan = add("fan", help="weighted-fan operations")
    fan("check", _cmd_fan_check, "fan", help="balancing and realizability diagnostics")
    fan("smooth", _cmd_fan_smooth, "fan", help="decide smoothness at the origin")
    p = fan("evalmap", _cmd_fan_evalmap, "fan", help="weighted evaluation of a polynomial")
    p.add_argument("--poly", required=True, help="polynomial in text form")
    fan("generators", _cmd_fan_generators, "fan", help="generator matrix, one column per ray")
    fan("reconstruct", _cmd_fan_reconstruct, "matrix", help="fan from a realizable matrix")
    fan("plot", _cmd_fan_plot, "fan", raw=True, help="SVG drawing of a 2-dimensional fan")

    poly = add("poly", help="Laurent polynomial operations")
    at_point = argparse.ArgumentParser(add_help=False)
    at_point.add_argument("poly")
    at_point.add_argument("--point", required=True)
    at_point.add_argument("--vars", type=as_int)
    poly("eval", _cmd_poly_eval, help="value at a rational point", parents=[at_point])
    poly("initial", _cmd_poly_initial, help="initial form at a rational point", parents=[at_point])
    p = poly("eq", _cmd_poly_eq, "left", "right", help="equality as functions, with witness")
    p.add_argument("--vars", type=as_int)
    poly("germ", _cmd_poly_germ, help="local germ at a rational point", parents=[at_point])

    mor = add("morphism", help="fan morphism operations")
    mor("check", _cmd_morphism_check, "morphism", help="support preservation of a matrix")
    p = mor("pullback", _cmd_morphism_pullback, "morphism", help="pull a polynomial back along a morphism")
    p.add_argument("--poly", required=True)
    mor("realize", _cmd_morphism_realize, "homspec", help="fan morphism from generator images")

    add("snf", _cmd_snf, "matrix", help="Smith normal form with transforms")
    add("hnf", _cmd_hnf, "matrix", help="column Hermite normal form")
    add("transport", _cmd_transport, "a", "b", help="unimodular T with T.A = B")
    p = add("member", _cmd_member, "fan", help="is a ray function a weighted evaluation?")
    p.add_argument("--values", required=True, help="comma-separated values, one per sorted ray")
    p.add_argument("--bound", type=as_int, default=None, help="checked, then ignored: the search needs no box")

    return top, leaves


def _parse(argv) -> argparse.Namespace:
    """argv parsed by its subcommand's own parser when it starts with a
    subcommand and holds nothing that parser leaves over, else by the full
    parser; the namespace, output, usage text and exit codes are the same."""
    parser, leaves = _build_parser()
    path = tuple(argv[:1]) if tuple(argv[:1]) in leaves else tuple(argv[:2])
    # The full parser scans every argument for its own options, and to it
    # "--=..." is ambiguous (--help or --pretty): leave that to it.
    if path in leaves and not any(str(a).startswith("--=") for a in argv):
        leaf, start = leaves[path]
        args, extras = leaf.parse_known_args(argv[len(path):], argparse.Namespace(**start))
        if not extras:  # nesting reports extras from the full parser
            return args
    return parser.parse_args(argv)


def run(argv=None) -> int:
    """Answer one request, ``sys.argv[1:]`` when argv is None, and return
    its exit code.  The request is parsed by its subcommand's own parser,
    or by the full parser for any other argv, with the same output, usage
    text and exit codes either way (see the module docstring)."""
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        result = args.fn(args)
        out = result if args.raw else _dumps(result, args.pretty)
    except TropfanError as exc:
        print(_dumps({"error": exc.code, "message": str(exc)}, args.pretty))
        return 1
    except ValueError as exc:
        # An answer with an integer past sys.get_int_max_str_digits() has
        # no decimal text; the output is written whole or not at all.
        if "integer string conversion" not in str(exc):
            raise
        print(_dumps({"error": "output_too_large", "message": str(exc)}, args.pretty))
        return 1
    print(out)
    return 0


def main():
    """The console entry point: :func:`run` on ``sys.argv``, ending quietly
    with exit 1 when the reader of stdout goes away (``tropfan ... | head``)."""
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull, so that the flush at interpreter exit
        # does not fail on the closed pipe a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
