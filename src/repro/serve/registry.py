"""Shared-instance registry.

Each served instance owns one realization graph and one
:class:`~repro.core.DistanceCache` over it, which freezes the graph:
served instances never change, so every engine the cache builds stays
exact for the server's life. The cache cold-starts in lazy-rows mode
and settles rows on demand; a query that needs the whole matrix
(social cost, PoA) promotes its base engine to full mode. Weighted
queries run on a unit-weight realization that shares the same frozen
graph and the same engines, because vertex weights never enter
distances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..core.distance_cache import DistanceCache
from ..errors import ExperimentError
from ..graphs.digraph import OwnedDigraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.weighted import WeightedRealization

__all__ = ["InstanceRegistry", "ServedInstance"]


@dataclass
class ServedInstance:
    """One graph plus the caches its queries share."""

    name: str
    graph: OwnedDigraph
    cache: DistanceCache
    _weighted: "WeightedRealization | None" = field(default=None, repr=False)

    def weighted(self):
        """The unit-weight realization over the frozen graph, built on
        first use."""
        if self._weighted is None:
            from ..analysis.weighted import WeightedRealization

            self._weighted = WeightedRealization(
                graph=self.graph, weights=np.ones(self.graph.n, dtype=np.int64)
            )
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
