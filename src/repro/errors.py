"""Exception hierarchy for the ``repro`` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "StaleDistanceError",
    "VertexError",
    "ArcError",
    "GameError",
    "BudgetError",
    "StrategyError",
    "ConstructionError",
    "DynamicsError",
    "OptimizationError",
    "ExperimentError",
    "CheckpointError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(ReproError):
    """Raised for invalid graph operations or malformed graph inputs."""


class StaleDistanceError(GraphError):
    """Raised when a distance view is read after its engine moved on.

    A :class:`~repro.graphs.engine.DistanceEngine` bumps its epoch on
    every rebuild; consumers that captured an earlier epoch
    get this error instead of silently reading distances of a substrate
    that no longer exists.
    """


class VertexError(GraphError):
    """Raised when a vertex index is out of range or otherwise invalid."""

    def __init__(self, vertex: int, n: int, message: str | None = None) -> None:
        self.vertex = vertex
        self.n = n
        if message is None:
            message = f"vertex {vertex!r} is not in range [0, {n})"
        super().__init__(message)


class ArcError(GraphError):
    """Raised for invalid arc operations (missing arc, self-loop, duplicate)."""


class GameError(ReproError):
    """Raised for invalid game specifications or operations."""


class BudgetError(GameError):
    """Raised when a budget vector violates the model constraints.

    The paper requires ``0 <= b_i < n`` for every player ``i``.
    """


class StrategyError(GameError):
    """Raised when a strategy violates the rules of the game.

    A valid strategy for player ``i`` is a subset of the other players of
    size exactly ``b_i``.
    """


class ConstructionError(ReproError):
    """Raised when an equilibrium construction receives unusable parameters."""


class DynamicsError(ReproError):
    """Raised for invalid best-response dynamics configurations."""


class OptimizationError(ReproError):
    """Raised for invalid k-center / k-median solver inputs."""


class ExperimentError(ReproError):
    """Raised when an experiment is misconfigured or its id is unknown."""


class CheckpointError(ReproError):
    """Raised for invalid checkpoint journals, manifests or resume requests.

    Torn or corrupt journal *tails* are not errors — replay degrades to
    the last good record by design. This error covers misuse: resuming
    against a missing/mismatched manifest, or malformed journal paths.
    """
