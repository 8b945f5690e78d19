#!/usr/bin/env python3
"""Time one-shot requests from a cold interpreter.

Each request runs in a fresh ``python -S -I`` process, which reads no
``site`` and no environment: the wall time from start to exit is what a
single ``tropfan ...`` call costs, start-up included.  The processes write
no bytecode (``-B``), so each one compiles the library's modules that it
imports, as on a host that sets ``PYTHONDONTWRITEBYTECODE``; a checkout
that holds a ``__pycache__`` from elsewhere is timed reading it.  With ``--against``,
the processes alternate between this checkout and another one, request by
request, so that both see the same moments of a shared host, and each
request's line says in how many of the pairs this checkout was faster.

    python3 scripts/cold_start.py -n 15 --against ../parent

The last line of standard output is one JSON object holding every time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cli(*argv) -> str:
    """The code of one command-line request."""
    return f"from tropfan import cli; sys.exit(cli.run({list(argv)!r}))"


def requests(matrix: str) -> dict:
    """Each request's name and code; the code runs in the checkout's root."""
    return {
        "import tropfan": "import tropfan",
        "poly eval": cli("poly", "eval", "x + 1/2*y", "--point", "1,2"),
        "fan smooth": cli("fan", "smooth", "fixtures/Y.json"),
        "member": cli("member", "fixtures/Y.json", "--values", "0,0,0"),
        "snf": cli("snf", matrix),
    }


def command(root: str, code: str) -> list:
    """A fresh interpreter running code on root's sources.  -I ignores
    PYTHONPATH, so the code puts the checkout's src on the path itself."""
    path = os.path.join(root, "src")
    return [sys.executable, "-S", "-I", "-B", "-c", f"import sys; sys.path.insert(0, {path!r}); {code}"]


def cold_run(root: str, code: str) -> float:
    """Seconds from starting a fresh interpreter on code to its exit."""
    start = time.perf_counter()
    proc = subprocess.run(command(root, code), cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"cold_start.py: {code!r} failed in {root} (exit {proc.returncode}): {proc.stderr.strip()}")
    return elapsed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-n", type=int, default=15, help="processes per request and checkout")
    ap.add_argument("--against", help="another checkout to alternate with")
    cfg = ap.parse_args()
    if cfg.n < 1:
        ap.error(f"-n must be at least 1, got {cfg.n}")
    roots = {"this": HERE}
    if cfg.against is not None:
        roots["against"] = os.path.abspath(cfg.against)
        if not os.path.isfile(os.path.join(roots["against"], "src", "tropfan", "__init__.py")):
            ap.error(f"no tropfan sources under {roots['against']}/src")

    with tempfile.TemporaryDirectory() as tmp:
        # one matrix for both checkouts: this one's generators of the fixture fan
        matrix = os.path.join(tmp, "M.json")
        with open(matrix, "w") as fh:
            subprocess.run(command(HERE, cli("fan", "generators", "fixtures/Y.json")), cwd=HERE, stdout=fh,
                           check=True, timeout=60)
        times = {}
        for name, code in requests(matrix).items():
            times[name] = {side: [] for side in roots}
            for i in range(cfg.n):
                # alternate which checkout goes first
                for side in (list(roots) if i % 2 == 0 else list(roots)[::-1]):
                    times[name][side].append(cold_run(roots[side], code))

    print(f"{'request':<16}" + "".join(f"{side + ' (ms)':>16}" for side in roots)
          + ("     this faster" if "against" in roots else ""))
    for name, sides in times.items():
        line = f"{name:<16}" + "".join(f"{statistics.median(ts) * 1e3:>16.1f}" for ts in sides.values())
        if "against" in roots:
            wins = sum(a < b for a, b in zip(sides["this"], sides["against"]))
            line += f"{wins:>9} of {cfg.n}"
        print(line)
    print(json.dumps({"n": cfg.n, "roots": roots, "seconds": times}))


if __name__ == "__main__":
    main()
