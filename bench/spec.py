"""The fixed description of the benchmark, written to BENCHMARK.json by
``python3 bench/run.py --write-spec``."""

from __future__ import annotations

import json

RUN_SECONDS = 24

WORKLOADS = [
    ("canon", "canonical forms, fn_eq/fn_witness and germ arithmetic in 2-5 variables: "
              "_lp.find_point on both engines, intlat idle; where an LP-engine change must show"),
    ("member", "image_membership on L_{n,r} and random balanced fans in n=2-4: many small "
               "integer_point_search enumerations plus laurent.eval; guards the shared elimination chain"),
    ("lattice", "snf/hnf/lattice_solve/det/transport on matrices up to 24x24, is_smooth and the "
                "morphism round trip: intlat only, _lp idle, so an LP change should not move it"),
    ("cli", "in-process cli.run over every subcommand on fixtures and small generated files: the "
            "text/JSON boundary and the fan and morphism layers, little solver work"),
]

# (name, unit, better, bound as a share of the parent's median)
# Bounds: timings are taken at the yardstick's nominal speed (run.py), and
# ten seeded runs of them spread a few per cent (README.md, "Run-to-run
# spread"), well inside 20 %; setup_s, a median of cold interpreter starts,
# spreads most and gets the largest bound.
END_TO_END = [
    ("ops_per_s", "1/s", "higher", 0.2),
    ("latency_p50_ms", "ms", "lower", 0.2),
    ("latency_tail_ms", "ms", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
]

# (name, unit, better)
PER_LAYER = [
    ("lp.find_point.calls", "count", "lower"),
    ("lp.find_point.self_ms", "ms", "lower"),
    ("lp.find_point.low_dim.self_ms", "ms", "lower"),
    ("lp.find_point.high_dim.self_ms", "ms", "lower"),
    ("lp.find_point.constraints_mean", "count", "lower"),
    ("lp.integer_point_search.calls", "count", "lower"),
    ("lp.integer_point_search.self_ms", "ms", "lower"),
    ("lp.integer_point_search.truncated", "count", "lower"),
    ("laurent.canonicalize.calls", "count", "lower"),
    ("laurent.canonicalize.self_ms", "ms", "lower"),
    ("laurent.fn_eq.self_ms", "ms", "lower"),
    ("laurent.fn_witness.self_ms", "ms", "lower"),
    ("laurent.germ_localize.self_ms", "ms", "lower"),
    ("laurent.eval.calls", "count", "lower"),
    ("laurent.eval.self_ms", "ms", "lower"),
    ("laurent.text.self_ms", "ms", "lower"),
    ("intlat.snf.self_ms", "ms", "lower"),
    ("intlat.hnf.self_ms", "ms", "lower"),
    ("intlat.lattice_solve.calls", "count", "lower"),
    ("intlat.lattice_solve.self_ms", "ms", "lower"),
    ("intlat.det.self_ms", "ms", "lower"),
    ("intlat.transport.self_ms", "ms", "lower"),
    ("intlat.max_entry_bits", "bits", "lower"),
    ("evalmap.image_membership.calls", "count", "lower"),
    ("evalmap.image_membership.self_ms", "ms", "lower"),
    ("evalmap.eval_map.self_ms", "ms", "lower"),
    ("evalmap.is_smooth.self_ms", "ms", "lower"),
    ("fan.build.self_ms", "ms", "lower"),
    ("fan.support_contains.calls", "count", "lower"),
    ("morphism.validate.self_ms", "ms", "lower"),
    ("morphism.pullback.self_ms", "ms", "lower"),
    ("morphism.realize.self_ms", "ms", "lower"),
    ("cli.run.self_ms", "ms", "lower"),
    ("cli.bytes_out", "bytes", "lower"),
    ("trace.layers_self_ms", "ms", "lower"),
    ("trace.wall_ms", "ms", "lower"),
    ("trace.ops_per_s", "1/s", "higher"),
]


def benchmark_json() -> str:
    spec = {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    return json.dumps(spec, indent=2) + "\n"
