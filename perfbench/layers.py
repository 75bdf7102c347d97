"""Per-layer metrics of the in-process workloads (census-*, dynamics).

``install`` wraps each layer's entry point (see ``SPANS``) and the
counting hooks; ``per_op`` turns the tracer's aggregates over ``ops``
traced ops into the metrics ``layers.json`` names. Times are span
*self* times, so the ``*_ms`` layers of one op add up to (about) the
op. ``DETERMINISTIC`` lists the counts that must repeat exactly from
op to op, except those a workload names ``timing_dependent``.
"""

from __future__ import annotations

from pathlib import Path

#: wrap target -> span name
SPANS = {
    "repro.core.enumeration:_census_shard": "shard",
    "repro.core.enumeration:_OrbitKeys.advance_block": "orbit_advance",
    "repro.core.isomorphism:BudgetStabilizerChain.minimal_images": "chain_recheck",
    "repro.graphs.digraph:OwnedDigraph.set_strategy": "materialise",
    "repro.graphs.digraph:OwnedDigraph.add_arc": "materialise",
    "repro.graphs.digraph:OwnedDigraph.remove_arc": "materialise",
    "repro.core.distance_cache:DistanceCache.base": "sync",
    "repro.core.distance_cache:DistanceCache.player": "player",
    "repro.core.distance_cache:DistanceCache.environment": "environment",
    "repro.core.deviations:is_equilibrium": "equilibrium",
    "repro.core.deviations:screen_best_responders": "lemma_screen",
    "repro.core.deviations:satisfies_lemma_2_2": "lemma_screen",
    "repro.core.best_response:BestResponseEnvironment.exact": "br_exact",
    "repro.core.best_response:BestResponseEnvironment.best_swap": "br_swap",
    "repro.parallel.runtime:run_shards": "runtime",
    "repro.core.dynamics:best_response_dynamics": "dynamics",
}

ENGINE_KEYS = ("rebuilds", "deltas", "pendant_fixes", "region_repairs", "rows_recomputed")

DETERMINISTIC = (
    "calls:orbit_advance",
    "calls:equilibrium",
    "chain_rows",
    "canonical",
    "past_screen",
    "eq_players",
    "evaluated",
    "records",
    "journal_bytes",
    "workers_spawned",
    "moves",
    "rounds",
) + tuple(f"engine.{k}" for k in ENGINE_KEYS)


def _add_engine(tracer, stats) -> None:
    for k in ENGINE_KEYS:
        tracer.counts[f"engine.{k}"] += int(stats[k])


def _on_cache_init(tracer, args, kwargs, out) -> None:
    tracer.held.append(args[0])


def _on_shard(tracer, args, kwargs, out) -> None:
    for cache in tracer.held:
        _add_engine(tracer, cache.stats())
    tracer.held.clear()


def _on_dynamics(tracer, args, kwargs, out) -> None:
    tracer.held.clear()  # counted from the result's engine_stats instead
    tracer.counts["moves"] += len(out.moves)
    tracer.counts["rounds"] += out.rounds
    if out.engine_stats is not None:
        _add_engine(tracer, out.engine_stats)


def _on_equilibrium(tracer, args, kwargs, out) -> None:
    tracer.counts["eq_players"] += args[0].n


def _on_best_response(tracer, args, kwargs, out) -> None:
    tracer.counts["past_screen"] += 1


def _on_orbit_sizes(tracer, args, kwargs, out) -> None:
    tracer.counts["chain_rows"] += int(out.size)
    tracer.counts["canonical"] += int((out > 0).sum())


def _on_exact(tracer, args, kwargs, out) -> None:
    tracer.counts["evaluated"] += int(out[2])


def _on_runtime(tracer, args, kwargs, out) -> None:
    from repro.core.checkpoint import replay_journal

    tracer.counts["workers_spawned"] += int(out.stats["workers_spawned"])
    for journal in sorted(Path(kwargs["checkpoint_dir"]).glob("*.journal")):
        replay = replay_journal(journal)
        tracer.counts["records"] += len(replay.records)
        tracer.counts["journal_bytes"] += replay.good_bytes


HOOKS = {
    "repro.core.distance_cache:DistanceCache.__init__": _on_cache_init,
    "repro.core.deviations:is_best_response": _on_best_response,
    "repro.core.enumeration:_OrbitKeys._exact_orbit_sizes": _on_orbit_sizes,
}
SPAN_HOOKS = {
    "repro.core.enumeration:_census_shard": _on_shard,
    "repro.core.dynamics:best_response_dynamics": _on_dynamics,
    "repro.core.deviations:is_equilibrium": _on_equilibrium,
    "repro.core.best_response:BestResponseEnvironment.exact": _on_exact,
    "repro.parallel.runtime:run_shards": _on_runtime,
}

#: metric -> the span names / hook targets it is computed from
SOURCES = {
    "enumeration.walk_self_ms": ["shard"],
    "enumeration.orbit_advance_ms": ["orbit_advance"],
    "enumeration.orbit_blocks": ["orbit_advance"],
    "isomorphism.chain_recheck_ms": ["chain_recheck"],
    "isomorphism.chain_rows": ["repro.core.enumeration:_OrbitKeys._exact_orbit_sizes"],
    "isomorphism.canonical_per_row": ["repro.core.enumeration:_OrbitKeys._exact_orbit_sizes"],
    "digraph.materialise_ms": ["materialise"],
    "distance_cache.sync_ms": ["sync"],
    "deviations.equilibrium_ms": ["equilibrium"],
    "deviations.lemma_screen_ms": ["lemma_screen"],
    "deviations.exact_frac": ["equilibrium", "repro.core.deviations:is_best_response"],
    "best_response.exact_ms": ["br_exact"],
    "best_response.evaluated": ["br_exact"],
    "runtime.overhead_ms": ["runtime", "shard"],
    "runtime.workers_spawned": ["runtime"],
    "checkpoint.records": ["runtime"],
    "checkpoint.journal_bytes": ["runtime"],
    "dynamics.self_ms": ["dynamics"],
    "dynamics.moves": ["dynamics"],
    "dynamics.rounds": ["dynamics"],
    "distance_cache.player_ms": ["player"],
    "distance_cache.environment_ms": ["environment"],
    "best_response.swap_ms": ["br_swap"],
}
#: engine counters come from either the census shard or the dynamics run
for _k in ENGINE_KEYS:
    SOURCES[f"engine.{_k}"] = ["shard", "dynamics"]


def install(tracer) -> None:
    for target, span in SPANS.items():
        tracer.install(target, span, SPAN_HOOKS.get(target))
    for target, hook in HOOKS.items():
        tracer.install(target, None, hook)


def absent_metrics(tracer) -> "list[str]":
    """Metrics whose entry point is gone (any source target absent)."""
    gone_spans = {SPANS[t] for t in tracer.absent if t in SPANS}
    gone = set(tracer.absent) | gone_spans
    out = []
    for metric, sources in SOURCES.items():
        missing = [s for s in sources if s in gone]
        if missing and (not metric.startswith("engine.") or missing == sources):
            out.append(metric)
    return out


def snapshot(tracer) -> dict:
    """The deterministic counts accumulated so far."""
    out = {}
    for key in DETERMINISTIC:
        if key.startswith("calls:"):
            out[key] = int(tracer.calls[key[6:]])
        else:
            out[key] = int(tracer.counts[key])
    return out


def per_op(tracer, ops: int) -> dict:
    ms = lambda span: tracer.self_ns[span] / 1e6 / ops  # noqa: E731
    c = lambda key: tracer.counts[key] / ops  # noqa: E731
    runtime_ms = 0.0
    if tracer.calls["runtime"]:
        runtime_ms = (tracer.total_ns["runtime"] - tracer.total_ns["shard"]) / 1e6 / ops
    rows = tracer.counts["chain_rows"]
    players = tracer.counts["eq_players"]
    out = {
        "enumeration.walk_self_ms": ms("shard"),
        "enumeration.orbit_advance_ms": ms("orbit_advance"),
        "enumeration.orbit_blocks": tracer.calls["orbit_advance"] / ops,
        "isomorphism.chain_recheck_ms": ms("chain_recheck"),
        "isomorphism.chain_rows": c("chain_rows"),
        "isomorphism.canonical_per_row": tracer.counts["canonical"] / rows if rows else 0.0,
        "digraph.materialise_ms": ms("materialise"),
        "distance_cache.sync_ms": ms("sync"),
        "deviations.equilibrium_ms": ms("equilibrium"),
        "deviations.lemma_screen_ms": ms("lemma_screen"),
        "deviations.exact_frac": tracer.counts["past_screen"] / players if players else 0.0,
        "best_response.exact_ms": ms("br_exact"),
        "best_response.evaluated": c("evaluated"),
        "runtime.overhead_ms": runtime_ms,
        "runtime.workers_spawned": c("workers_spawned"),
        "checkpoint.records": c("records"),
        "checkpoint.journal_bytes": c("journal_bytes"),
        "dynamics.self_ms": ms("dynamics"),
        "dynamics.moves": c("moves"),
        "dynamics.rounds": c("rounds"),
        "distance_cache.player_ms": ms("player"),
        "distance_cache.environment_ms": ms("environment"),
        "best_response.swap_ms": ms("br_swap"),
    }
    for k in ENGINE_KEYS:
        out[f"engine.{k}"] = c(f"engine.{k}")
    return out
