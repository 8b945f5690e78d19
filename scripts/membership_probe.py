#!/usr/bin/env python3
"""Probe the image of the weighted evaluation map on a fixed fan.

Draws random integer ray functions of nonnegative degree and asks the
membership decision procedure for each: member (with a verified witness
polynomial) or proven non-member.
"""

import argparse
import json
import random
from collections import Counter

from tropfan import (
    RayFunction,
    TropfanError,
    WeightedFan,
    eval_map,
    image_membership,
    standard_model,
)


def load_fan(ap, cfg) -> WeightedFan:
    """The fan asked for; one that cannot be read or built is a usage error."""
    try:
        if cfg.fan:
            with open(cfg.fan) as fh:
                return WeightedFan.from_json(json.load(fh))
        return standard_model(cfg.n, cfg.r)
    except (OSError, ValueError, TropfanError) as exc:
        ap.error(str(exc))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--trials", type=int, default=300)
    ap.add_argument("--span", type=int, default=8, help="values drawn from [-span, span]")
    ap.add_argument("--fan", default="", help="path to a fan JSON file; default the standard model L_{n,r}")
    ap.add_argument("-n", type=int, default=2)
    ap.add_argument("-r", type=int, default=3)
    cfg = ap.parse_args()
    if cfg.trials < 1:
        ap.error(f"--trials must be at least 1, got {cfg.trials}")
    if cfg.span < 0:
        ap.error(f"--span must be at least 0, got {cfg.span}")

    X = load_fan(ap, cfg)
    rng = random.Random(cfg.seed)
    k = len(X.rays)
    tally = Counter()
    witness_terms = []
    for _ in range(cfg.trials):
        vals = [rng.randint(-cfg.span, cfg.span) for _ in range(k)]
        if sum(vals) < 0:
            vals[rng.randrange(k)] -= sum(vals)  # lift to degree >= 0
        G = RayFunction(X, tuple(vals))
        w = image_membership(X, G)
        if w is None:
            tally["non-member"] += 1
        else:
            if eval_map(X, w) != G:
                raise AssertionError("the witness must evaluate to the sampled function")
            tally["member"] += 1
            witness_terms.append(len(w.terms))

    print(f"fan: {cfg.fan or f'L_{{{cfg.n},{cfg.r}}}'}  rays={k}")
    print(f"degree >= 0 samples: {cfg.trials}")
    for key in ("member", "non-member"):
        print(f"  {key:12s} {tally[key]:5d}  ({100.0 * tally[key] / cfg.trials:.1f}%)")
    if witness_terms:
        print(
            f"  witness terms: min={min(witness_terms)} "
            f"max={max(witness_terms)} "
            f"mean={sum(witness_terms) / len(witness_terms):.2f}"
        )


if __name__ == "__main__":
    main()
