"""Command-line interface: ``repro-bbncg`` / ``python -m repro``.

Subcommands
-----------
``list``
    Show every registered experiment id with its description.
``run <id> [<id> ...] [--workers N] [--symmetry/--no-symmetry] [--weighted] [--checkpoint-dir DIR] [--resume] [--sample N]``
    Regenerate specific Table 1 cells / figures and print the reports.
    ``--workers`` shards supporting experiments (e.g. the exact census)
    across processes; ``--symmetry`` toggles census orbit pruning;
    ``--weighted`` appends the Section 6 weighted weak-equilibrium
    census battery; ``--checkpoint-dir DIR`` journals census shard
    progress through the fault-tolerant work-stealing runtime and
    ``--resume`` continues an interrupted run from those journals;
    ``--sample N`` (with ``--seed S`` and ``--confidence C``) appends a
    Monte Carlo sampled census per census instance — equilibrium-count
    and PoA estimates with Wilson / bootstrap confidence intervals.
    Flags are forwarded only to experiments whose signature takes them.
``all``
    Regenerate everything (the full paper reproduction).
``pool gc --dir DIR [--budget BYTES]``
    Maintain a ``serve --pool-dir`` store: reap temp files of dead writers,
    quarantine corrupt matrix files, rebuild the LRU index, and enforce
    the byte budget.
``export <spec> --json out.json [--dot out.dot]``
    Build one of the paper's constructions and save it. Specs:
    ``fig1``, ``spider:<k>``, ``binary-tree:<depth>``,
    ``overlap:<t>,<k>``, or ``thm2.3:<b1,b2,...>``.
``serve [--port N | --stdio] [--instance NAME=SPEC ...] [--pool-dir DIR]``
    Long-lived equilibrium query service (newline-delimited JSON over
    TCP or stdio; see :mod:`repro.serve`). Serves distance /
    social-cost / deviation-verdict / best-response / weighted-swap /
    PoA queries over shared instances built from ``export``-style
    specs (default: one ``fig1`` instance). Concurrent same-instance
    requests coalesce for ``--batch-window-ms`` into one batched
    multi-source sweep; every answer is bit-identical to the direct
    library call. ``--pool-dir`` cold-starts instances by attaching
    persisted distance matrices (zero rebuilds) when present.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback

from .errors import ExperimentError
from .experiments.runner import REGISTRY, list_experiments, run_experiment

__all__ = ["main", "build_parser", "build_construction"]


def build_construction(spec: str):
    """Resolve an ``export`` spec string to a realization graph."""
    from .constructions import (
        binary_tree_equilibrium,
        construct_equilibrium,
        overlap_graph_equilibrium,
        spider_equilibrium,
    )
    from .experiments.figures import FIGURE1_BUDGETS

    name, _, args = spec.partition(":")
    try:
        if name == "fig1":
            return construct_equilibrium(list(FIGURE1_BUDGETS)).graph
        if name == "spider":
            return spider_equilibrium(int(args)).graph
        if name == "binary-tree":
            return binary_tree_equilibrium(int(args)).graph
        if name == "overlap":
            t, k = (int(x) for x in args.split(","))
            return overlap_graph_equilibrium(t, k).graph
        if name == "thm2.3":
            budgets = [int(x) for x in args.split(",")]
            return construct_equilibrium(budgets).graph
    except (ValueError, TypeError) as exc:
        raise ExperimentError(f"bad construction arguments in {spec!r}: {exc}") from exc
    raise ExperimentError(
        f"unknown construction {name!r}; use fig1 / spider:<k> / "
        "binary-tree:<depth> / overlap:<t>,<k> / thm2.3:<b1,b2,...>"
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-bbncg",
        description="Reproduce 'On a Bounded Budget Network Creation Game' (SPAA 2011)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_p = sub.add_parser("run", help="run one or more experiments by id")
    run_p.add_argument("ids", nargs="+", metavar="ID", help="experiment ids (see 'list')")
    run_p.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="process shards for experiments that support them (census kernel)",
    )
    run_p.add_argument(
        "--symmetry",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="census orbit pruning (bit-identical results either way)",
    )
    run_p.add_argument(
        "--weighted",
        action="store_true",
        default=None,
        help="census: append the Section 6 weighted weak-equilibrium battery",
    )
    run_p.add_argument(
        "--checkpoint-dir",
        dest="checkpoint_dir",
        default=None,
        metavar="DIR",
        help="census: journal shard progress under DIR (fault-tolerant "
        "work-stealing runtime; one subdirectory per scan) so an "
        "interrupted run can be continued with --resume",
    )
    run_p.add_argument(
        "--resume",
        action="store_true",
        default=None,
        help="census: continue an interrupted --checkpoint-dir run from "
        "its journals (bit-identical to an uninterrupted run)",
    )
    run_p.add_argument(
        "--sample",
        dest="samples",
        type=int,
        default=None,
        metavar="N",
        help="census: append a Monte Carlo sampled census of N profiles "
        "per instance/version (stratified rank draws; equilibrium-count "
        "and PoA estimates with confidence intervals)",
    )
    run_p.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="S",
        help="seed of the --sample rank draws and bootstrap resamples "
        "(default 0; same seed => bit-identical estimates at any "
        "worker count)",
    )
    run_p.add_argument(
        "--confidence",
        type=float,
        default=None,
        metavar="C",
        help="confidence level of the --sample intervals (default 0.95)",
    )
    sub.add_parser("all", help="run every experiment")
    pool_p = sub.add_parser("pool", help="maintain an on-disk matrix pool store")
    pool_sub = pool_p.add_subparsers(dest="pool_command", required=True)
    gc_p = pool_sub.add_parser(
        "gc",
        help="reap dead writers' temp files, quarantine corrupt matrix "
        "files, rebuild the index, enforce the byte budget",
    )
    gc_p.add_argument(
        "--dir",
        dest="pool_dir",
        required=True,
        metavar="DIR",
        help="the pool store directory (as passed to serve --pool-dir)",
    )
    gc_p.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="BYTES",
        help="byte budget to enforce (default: the store's default budget)",
    )
    serve_p = sub.add_parser(
        "serve",
        help="serve equilibrium queries over shared instances (NDJSON over "
        "TCP or stdio; batched, bit-identical to direct library calls)",
    )
    serve_p.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_p.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port; 0 picks an ephemeral port and prints it (default 0)",
    )
    serve_p.add_argument(
        "--stdio",
        action="store_true",
        help="serve newline-delimited JSON over stdin/stdout instead of TCP",
    )
    serve_p.add_argument(
        "--instance",
        dest="instances",
        action="append",
        default=None,
        metavar="NAME=SPEC",
        help="serve this construction under NAME (export-style SPEC; "
        "repeatable; a bare SPEC names itself; default: fig1)",
    )
    serve_p.add_argument(
        "--pool-dir",
        dest="pool_dir",
        default=None,
        metavar="DIR",
        help="cold-start instances by attaching persisted distance matrices "
        "from this on-disk pool store when present (zero rebuilds)",
    )
    serve_p.add_argument(
        "--batch-window-ms",
        dest="batch_window_ms",
        type=float,
        default=2.0,
        metavar="MS",
        help="micro-batching window: concurrent same-instance requests "
        "arriving within MS coalesce into one batched sweep (default 2.0)",
    )
    serve_p.add_argument(
        "--max-batch",
        dest="max_batch",
        type=int,
        default=64,
        metavar="K",
        help="cap on requests coalesced into one batch (default 64)",
    )
    serve_p.add_argument(
        "--version",
        choices=("sum", "max"),
        default="sum",
        help="default cost version for deviation/best-response queries "
        "(per-request 'version' field overrides; default sum)",
    )
    exp_p = sub.add_parser("export", help="build a construction and save it")
    exp_p.add_argument("spec", help="fig1 | spider:<k> | binary-tree:<d> | overlap:<t>,<k> | thm2.3:<b,...>")
    exp_p.add_argument("--json", dest="json_path", help="write the realization as JSON")
    exp_p.add_argument("--dot", dest="dot_path", help="write Graphviz DOT")
    return parser


def _run_and_print(experiment_id: str, **overrides) -> int:
    start = time.perf_counter()
    try:
        report = run_experiment(experiment_id, **overrides)
    except Exception as exc:  # surface the failure but keep going in batches
        # The full traceback, not just str(exc): batch runs (`run a b c`,
        # `all`) keep going after a failure, and a bare message masks
        # which layer actually raised.
        traceback.print_exc(file=sys.stderr)
        print(f"!! {experiment_id} failed: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - start
    print(report.format())
    print(f"(elapsed: {elapsed:.1f}s)")
    print()
    return 0


def main(argv: "list[str] | None" = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for key, desc in list_experiments():
            print(f"{key:18s} {desc}")
        return 0
    if args.command == "run":
        if args.resume and not args.checkpoint_dir:
            print("!! --resume requires --checkpoint-dir", file=sys.stderr)
            return 2
        return max(
            _run_and_print(
                i,
                workers=args.workers,
                symmetry=args.symmetry,
                weighted=args.weighted,
                checkpoint_dir=args.checkpoint_dir,
                resume=args.resume,
                samples=args.samples,
                seed=args.seed,
                confidence=args.confidence,
            )
            for i in args.ids
        )
    if args.command == "all":
        return max(_run_and_print(key) for key in REGISTRY)
    if args.command == "pool":
        import os

        from .core.pool_store import PoolStore
        from .errors import PoolError

        if not os.path.isdir(args.pool_dir):
            # PoolStore would happily create the directory, turning a
            # typo'd --dir into a "successful" gc of an empty store.
            print(
                f"!! pool gc failed: no store directory at {args.pool_dir!r}",
                file=sys.stderr,
            )
            return 1
        try:
            store = (
                PoolStore(args.pool_dir)
                if args.budget is None
                else PoolStore(args.pool_dir, byte_budget=args.budget)
            )
            stats = store.gc(byte_budget=args.budget)
        except (PoolError, OSError) as exc:
            print(f"!! pool gc failed: {exc}", file=sys.stderr)
            return 1
        print(
            f"pool {args.pool_dir}: {stats['files']} files, "
            f"{stats['bytes']} bytes after gc "
            f"(reaped {stats['removed_tmp']} temp, "
            f"quarantined {stats['removed_corrupt']} corrupt, "
            f"evicted {stats['evicted']})"
        )
        return 0
    if args.command == "serve":
        from .serve import run_cli as serve_run_cli

        return serve_run_cli(args)
    if args.command == "export":
        try:
            graph = build_construction(args.spec)
        except Exception as exc:
            print(f"!! export failed: {exc}", file=sys.stderr)
            return 1
        from .graphs.render import degree_summary, to_dot
        from .io import save_realization

        print(degree_summary(graph))
        if args.json_path:
            save_realization(graph, args.json_path)
            print(f"wrote {args.json_path}")
        if args.dot_path:
            import pathlib

            pathlib.Path(args.dot_path).write_text(to_dot(graph) + "\n")
            print(f"wrote {args.dot_path}")
        if not args.json_path and not args.dot_path:
            from .graphs.render import adjacency_table

            if graph.n <= 40:
                print(adjacency_table(graph))
        return 0
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
