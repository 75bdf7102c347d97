"""Run ``repro serve`` with its batched-sweep and PoA entry points traced.

    python3 perfbench/serve_traced.py OUT.json serve --port 0 --instance ...

Arguments after ``OUT.json`` go to the ``repro`` command line. When the
server shuts down, ``OUT.json`` receives the per-call durations of
every batched distance sweep, the PoA time per request and the wrap
targets that no longer exist.
"""

from __future__ import annotations

import json
import os
import sys

import harness

os.environ.update(harness.THREAD_ENV)
sys.path.insert(0, str(harness.SRC))

from tracer import Tracer  # noqa: E402

TARGETS = {
    "repro.core.distance_cache:DistanceCache.batch_query": "batched",
    "repro.core.distance_cache:WeightedDistanceCache.batch_query": "batched",
    "repro.analysis.poa:optimal_diameter_bounds": "poa.bounds",
    "repro.analysis.poa:poa_interval": "poa.interval",
}
#: metric -> the span names it needs
SOURCES = {"query.batched_ms": ["batched"], "poa.interval_ms": ["poa.bounds", "poa.interval"]}


def main(argv: "list[str]") -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    for target, name in TARGETS.items():
        tracer.install(target, name)
    from repro.cli import main as repro_main

    try:
        code = repro_main(cli_args)
    finally:
        tracer.uninstall()
        gone = {TARGETS[t] for t in tracer.absent}
        poa_calls = tracer.calls["poa.interval"]
        poa_ns = tracer.self_ns["poa.bounds"] + tracer.self_ns["poa.interval"]
        with open(out_path, "w") as fh:
            json.dump(
                {
                    "absent_targets": tracer.absent,
                    "absent_metrics": [m for m, src in SOURCES.items() if gone & set(src)],
                    "batched_ms": tracer.durations_ms("batched"),
                    "batched_calls": tracer.calls["batched"],
                    "poa_requests": poa_calls,
                    "poa_ms_per_request": poa_ns / 1e6 / poa_calls if poa_calls else 0.0,
                },
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
