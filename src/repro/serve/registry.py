"""Shared-instance registry.

Each served instance owns one realization graph plus the caches every
query rides on: a :class:`~repro.core.DistanceCache` over the graph
(built eagerly) and a unit-weight realization with its own
:class:`~repro.core.DistanceCache` (built on first weighted query).
Both caches cold-start in lazy-rows mode and settle rows on demand; a
query that needs the whole matrix (social cost, PoA) promotes the
graph cache's base engine to full mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.distance_cache import DistanceCache
from ..errors import ExperimentError
from ..graphs.digraph import OwnedDigraph

__all__ = ["InstanceRegistry", "ServedInstance"]


@dataclass
class ServedInstance:
    """One graph plus the caches its queries share."""

    name: str
    graph: OwnedDigraph
    cache: DistanceCache
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
            self._weighted = (wr, DistanceCache(wr.graph, rows="lazy"))
        return self._weighted

    def info(self) -> dict:
        engine = self.cache.base()
        return {
            "name": self.name,
            "n": self.graph.n,
            "engine_mode": "lazy" if engine.lazy else "full",
            "rebuilds": int(engine.stats["rebuilds"]),
        }


def _build_instance(name: str, graph: OwnedDigraph) -> ServedInstance:
    return ServedInstance(
        name=name, graph=graph, cache=DistanceCache(graph, rows="lazy")
    )


class InstanceRegistry:
    """Named instances the server answers over; first one is the default."""

    def __init__(self, instances: "dict[str, ServedInstance]") -> None:
        if not instances:
            raise ExperimentError("serve needs at least one instance")
        self._instances = dict(instances)
        self._default = next(iter(self._instances))

    @classmethod
    def from_specs(cls, specs: "list[str]") -> "InstanceRegistry":
        """Build from CLI ``--instance NAME=SPEC`` strings.

        A bare ``SPEC`` (no ``=``) names itself.  Specs are the same
        construction strings as ``export`` (``fig1``, ``spider:<k>``,
        ...).
        """
        from ..cli import build_construction

        instances: "dict[str, ServedInstance]" = {}
        for raw in specs:
            name, eq, spec = raw.partition("=")
            if not eq:
                name, spec = raw, raw
            if not name or not spec:
                raise ExperimentError(f"bad --instance {raw!r}; use NAME=SPEC")
            if name in instances:
                raise ExperimentError(f"duplicate instance name {name!r}")
            instances[name] = _build_instance(name, build_construction(spec))
        return cls(instances)

    @classmethod
    def from_graphs(cls, graphs: "dict[str, OwnedDigraph]") -> "InstanceRegistry":
        """Build directly from graphs (library / test entry point)."""
        return cls({name: _build_instance(name, g) for name, g in graphs.items()})

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
