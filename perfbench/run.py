"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload census-sym --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. ``--trace 0`` measures the end-to-end metrics with no
instrumentation; ``--trace 1`` is a separate run that wraps each
layer's entry points and reports the per-layer metrics plus the
tracing overhead. Metric names and units come from ``BENCHMARK.json``;
``layers.json`` says what each one measures and what it should move.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. Lines before it, starting
with ``#``, record the host and the details behind the numbers.
"""

from __future__ import annotations

import os

import harness

os.environ.update(harness.THREAD_ENV)  # before numpy loads anywhere

import argparse
import json
import math
import sys
import time

WORKLOADS = ("census-sym", "census-eval", "dynamics", "serve-mix")
SETUP_LAUNCHES = 5
#: reported in place of a percentile that falls on a failed request
FAILED_MS = 1e12


def note(label: str, payload) -> None:
    print(f"# {label} {json.dumps(payload, sort_keys=True)}", flush=True)


def _finite(value) -> float:
    """Failed requests count as infinite latency; JSON needs a number."""
    value = float(value)
    return value if math.isfinite(value) else FAILED_MS


def _workload(name: str, seed: int):
    if name == "dynamics":
        import dynamics

        return dynamics.Dynamics(seed), dynamics.setup_code()
    import census

    return census.Census(name, seed), census.setup_code(name)


def run_batch(name: str, seed: int, seconds: float) -> dict:
    work, code = _workload(name, seed)
    setups = harness.launch_ready_s(code, SETUP_LAUNCHES)
    loop = harness.OpLoop(work.op, work.check)
    times = loop.run(seconds)
    note("ops", {"workload": name, "what": work.describe(), "count": len(times),
                 "op_ms": [round(t * 1e3, 3) for t in times],
                 "setup_s": [round(t, 4) for t in setups]})
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            "setup_s": harness.median(setups),
            "peak_rss_mb": harness.peak_rss_mb(),
            "op_p50_ms": harness.median(times) * 1e3,
        },
    }


def run_batch_traced(name: str, seed: int, seconds: float) -> dict:
    import layers
    from tracer import Tracer

    work, _ = _workload(name, seed)
    tracer = Tracer(child_dir=str(harness.fresh_dir("spans")))
    loop = harness.OpLoop(work.op, work.check)
    loop.run_checked()  # warm-up
    plain: "list[float]" = []
    traced: "list[float]" = []
    per_op_counts: "list[dict]" = []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        plain.append(loop.run_checked())
        before = layers.snapshot(tracer)
        layers.install(tracer)
        try:
            traced.append(loop.run_checked())
        finally:
            tracer.uninstall()
        tracer.merge_children()
        after = layers.snapshot(tracer)
        per_op_counts.append({k: after[k] - before[k] for k in after})
    exact = {k: v for k, v in per_op_counts[0].items() if k not in work.timing_dependent}
    repeat_ok = all({k: c[k] for k in exact} == exact for c in per_op_counts)
    metrics = layers.per_op(tracer, len(traced))
    metrics["trace.overhead_ratio"] = harness.median(traced) / harness.median(plain)
    absent = layers.absent_metrics(tracer)
    tracer.dump(harness.OUT / f"trace-{name}-{seed}.json")
    note("deterministic", exact)
    note("timing_dependent", {k: [c[k] for c in per_op_counts] for k in work.timing_dependent})
    note("trace", {"workload": name, "traced_ops": len(traced), "plain_ops": len(plain),
                   "counts_repeat_across_ops": repeat_ok,
                   "absent_targets": tracer.absent, "absent_metrics": absent})
    split = {k: round(v, 3) for k, v in metrics.items() if k.endswith("_ms") and v}
    mean_ms = sum(traced) / len(traced) * 1e3
    note("split_ms_per_op", dict(split, traced_op_mean_ms=round(mean_ms, 3)))
    return {
        "attempted": loop.attempted + 1,
        "failed": loop.failed + (0 if repeat_ok else 1),
        "metrics": metrics,
        "absent": absent,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no library sources at {harness.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    harness.OUT.mkdir(exist_ok=True)
    meta = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    note("env", dict(harness.host_info(), workload=args.workload, seed=args.seed,
                     seconds=args.seconds, trace=args.trace))

    if args.workload == "serve-mix":
        import serve_mix

        result = serve_mix.run(args.seed, args.seconds, bool(args.trace))
        note("serve", result["notes"])
    elif args.trace:
        result = run_batch_traced(args.workload, args.seed, args.seconds)
    else:
        result = run_batch(args.workload, args.seed, args.seconds)

    if args.trace:
        names = {m["name"]: m["unit"] for m in meta["per_layer"]}
    else:
        names = {m["name"]: m["unit"] for m in meta["end_to_end"]}
    values = result["metrics"]
    missing = [k for k in names if k not in values and k not in result.get("absent", ())]
    if missing:
        # Metrics of another workload's layers read 0 here.
        note("not_exercised", missing)
    metrics = {k: {"value": _finite(values.get(k, 0.0)), "unit": u} for k, u in names.items()}
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
