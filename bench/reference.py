#!/usr/bin/env python3
"""Reference figures for the pathological cases kept out of the timed
workloads.  Each case runs once, in its own interpreter, under a timeout
that is recorded with the result rather than hidden.

    python3 bench/reference.py [--timeout 300]
"""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

CASES = {
    "canonicalize-32-terms-n4":
        "canonicalize of 32 terms on a strictly concave lift in 4 variables (Fourier-Motzkin)",
    "membership-2-rays-n5-bound16":
        "image_membership, rays +-e5 of weight 2 in n=5, values 1,1, bound=16",
    "membership-non-spanning-n4":
        "image_membership, rays +-e4 of weight 2 in n=4, values 1,1, default bound 64",
}


def _case(name: str) -> str:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from tropfan import errors, evalmap, fan, laurent

    import wl_canon

    if name == "canonicalize-32-terms-n4":
        rng = random.Random(name)
        _, lift = wl_canon.concave_lift(rng, 4)
        P = laurent.LaurentPoly.make(4, [(u, lift(u)) for u in wl_canon.distinct_points(rng, 4, 32, 2)])
        return f"{len(laurent.canonicalize(P).terms)} of 32 terms kept"
    n = 5 if name == "membership-2-rays-n5-bound16" else 4
    e = tuple(int(i == n - 1) for i in range(n))
    X = fan.WeightedFan.build(n, [(e, 2), (tuple(-x for x in e), 2)])
    try:
        bound = 16 if n == 5 else 64  # 64 is the default
        answer = evalmap.image_membership(X, evalmap.RayFunction(X, (1, 1)), bound=bound)
    except errors.Inconclusive:
        return "Inconclusive"
    return "member" if answer is not None else "non-member"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--timeout", type=float, default=300)
    parser.add_argument("--case", choices=sorted(CASES), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.case:
        start = time.perf_counter()
        outcome = _case(args.case)
        print(f"{time.perf_counter() - start:.1f} s, {outcome}")
        return
    print(f"| case | result (timeout {args.timeout:g} s) |")
    print("|---|---|")
    for name, what in CASES.items():
        argv = [sys.executable, os.path.abspath(__file__), "--case", name]
        try:
            done = subprocess.run(argv, capture_output=True, text=True, timeout=args.timeout,
                                  env=dict(os.environ, PYTHONHASHSEED="0"), check=True)
            result = done.stdout.strip()
        except subprocess.TimeoutExpired:
            result = f"did not finish within {args.timeout:g} s"
        print(f"| {what} | {result} |", flush=True)


if __name__ == "__main__":
    main()
