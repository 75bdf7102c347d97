"""Shared-instance registry with ``--pool-dir`` cold starts.

Each served instance owns one realization graph plus the caches every
query rides on: a unit :class:`~repro.core.DistanceCache` (built
eagerly) and a weighted realization / cache pair (built on first
weighted query).  When a pool-store directory is supplied and holds a
matrix published (:meth:`~repro.core.pool_store.PoolStore.publish`)
under the graph's :func:`~repro.core.pool_store.census_graph_digest`,
the unit cache cold-starts by attaching it copy-on-write — zero
rebuilds; otherwise it starts in lazy-rows mode and settles rows on
demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.distance_cache import DistanceCache, WeightedDistanceCache
from ..core.pool_store import PoolStore, census_graph_digest
from ..errors import ExperimentError
from ..graphs.digraph import OwnedDigraph
from ..graphs.engine import DistanceEngine

__all__ = ["InstanceRegistry", "ServedInstance"]


@dataclass
class ServedInstance:
    """One graph plus the caches its queries share."""

    name: str
    graph: OwnedDigraph
    cache: DistanceCache
    source: str  # "disk" (pool-store attach) | "lazy" (cold, rows on demand)
    _weighted: "tuple | None" = field(default=None, repr=False)

    def weighted(self):
        """The unit-weight realization and its cache, built on first use.

        ``WeightedRealization.unit`` copies the graph, so the weighted
        cache is keyed to the realization's own copy — weighted answers
        are still bit-identical to unit ones on unit weights.
        """
        if self._weighted is None:
            from ..analysis.weighted import WeightedRealization

            wr = WeightedRealization.unit(self.graph)
            self._weighted = (wr, WeightedDistanceCache(wr.graph, rows="lazy"))
        return self._weighted

    def info(self) -> dict:
        engine = self.cache.base()
        return {
            "name": self.name,
            "n": self.graph.n,
            "source": self.source,
            "engine_mode": "lazy" if engine.lazy else "full",
            "rebuilds": int(engine.stats["rebuilds"]),
        }


def _build_instance(name: str, graph: OwnedDigraph, store: "PoolStore | None") -> ServedInstance:
    cache = None
    source = "lazy"
    if store is not None:
        handle = store.lookup(census_graph_digest(graph))
        if handle is not None:
            views = handle.attach()
            engine = DistanceEngine.from_snapshot(
                graph.undirected_csr(),
                views["D"],
                inf=int(views["inf"][0]),
                dirty_fraction="adaptive",
            )
            cache = DistanceCache(graph, base_engine=engine)
            source = "disk"
    if cache is None:
        cache = DistanceCache(graph, rows="lazy")
    return ServedInstance(name=name, graph=graph, cache=cache, source=source)


class InstanceRegistry:
    """Named instances the server answers over; first one is the default."""

    def __init__(self, instances: "dict[str, ServedInstance]") -> None:
        if not instances:
            raise ExperimentError("serve needs at least one instance")
        self._instances = dict(instances)
        self._default = next(iter(self._instances))

    @classmethod
    def from_specs(
        cls, specs: "list[str]", *, pool_dir: "str | None" = None
    ) -> "InstanceRegistry":
        """Build from CLI ``--instance NAME=SPEC`` strings.

        A bare ``SPEC`` (no ``=``) names itself.  Specs are the same
        construction strings as ``export`` (``fig1``, ``spider:<k>``,
        ...).  With ``pool_dir``, each instance tries a pool-store
        matrix attach before falling back to a lazy cold start.
        """
        from ..cli import build_construction

        store = PoolStore(pool_dir) if pool_dir is not None else None
        instances: "dict[str, ServedInstance]" = {}
        for raw in specs:
            name, eq, spec = raw.partition("=")
            if not eq:
                name, spec = raw, raw
            if not name or not spec:
                raise ExperimentError(f"bad --instance {raw!r}; use NAME=SPEC")
            if name in instances:
                raise ExperimentError(f"duplicate instance name {name!r}")
            instances[name] = _build_instance(name, build_construction(spec), store)
        return cls(instances)

    @classmethod
    def from_graphs(
        cls, graphs: "dict[str, OwnedDigraph]", *, pool_dir: "str | None" = None
    ) -> "InstanceRegistry":
        """Build directly from graphs (library / test entry point)."""
        store = PoolStore(pool_dir) if pool_dir is not None else None
        return cls(
            {name: _build_instance(name, g, store) for name, g in graphs.items()}
        )

    @property
    def default(self) -> str:
        return self._default

    def names(self) -> "list[str]":
        return list(self._instances)

    def get(self, name: "str | None") -> ServedInstance:
        """Resolve a request's instance field; ``None`` means the default."""
        return self._instances[self._default if name is None else name]

    def info(self) -> "list[dict]":
        return [inst.info() for inst in self._instances.values()]
