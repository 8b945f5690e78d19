#!/usr/bin/env python3
"""Survey how often random balanced fans are smooth at the origin, and
which obstruction rules the failures.

Samples balanced one-dimensional weighted fans in a range of ambient
dimensions, runs the smoothness test on each, and tallies the reported
reasons (weight > 1, generator rank deficit, lattice index > 1).  The
standard models are checked first as a sanity row.
"""

import argparse
import random
from collections import Counter

from tropfan import BadParameters, is_smooth, standard_model, WeightedFan

DIMS = (2, 3, 4)
MAX_RAYS = 6


def random_balanced_fan(rng, n, max_rays, max_weight):
    """Draw k-1 random weighted directions and close up with minus the sum.

    Retries until the closing vector is nonzero and primitive directions
    stay distinct; weights are re-randomized each attempt.
    """
    while True:
        k = rng.randint(2, max_rays)
        items = []
        total = [0] * n
        for _ in range(k - 1):
            v = [rng.randint(-4, 4) for _ in range(n)]
            if not any(v):
                continue
            w = rng.randint(1, max_weight)
            items.append((v, w))
            total = [t + w * x for t, x in zip(total, v)]
        if not items or not any(total):
            continue
        items.append(([-t for t in total], 1))
        try:
            return WeightedFan.build(n, items)
        except BadParameters:  # two rays with one direction
            continue


def classify(reason: str) -> str:
    if reason.startswith("weight"):
        return "weight > 1"
    if reason.startswith("rank"):
        return "rank deficit"
    return "lattice index"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--trials", type=int, default=400)
    ap.add_argument("--max-weight", type=int, default=3)
    cfg = ap.parse_args()
    if cfg.trials < 1:
        ap.error(f"--trials must be at least 1, got {cfg.trials}")
    if cfg.max_weight < 1:
        ap.error(f"--max-weight must be at least 1, got {cfg.max_weight}")

    print("standard models (all expected smooth):")
    for n in range(1, 5):
        verdicts = [is_smooth(standard_model(n, r)).smooth for r in range(2, n + 2)]
        print(f"  n={n}: {'all smooth' if all(verdicts) else 'FAILURE'}")

    rng = random.Random(cfg.seed)
    for n in DIMS:
        tally = Counter()
        for _ in range(cfg.trials):
            X = random_balanced_fan(rng, n, MAX_RAYS, cfg.max_weight)
            rep = is_smooth(X)
            tally["smooth" if rep.smooth else classify(rep.reason)] += 1
        print(f"\nambient dimension {n} ({cfg.trials} fans, weights <= {cfg.max_weight}):")
        for key in ("smooth", "weight > 1", "rank deficit", "lattice index"):
            if tally[key]:
                print(f"  {key:14s} {tally[key]:4d}  ({100.0 * tally[key] / cfg.trials:.1f}%)")


if __name__ == "__main__":
    main()
