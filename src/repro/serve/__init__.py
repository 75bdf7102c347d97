"""Equilibrium-as-a-service: an async batched query server.

Long-lived query service over one or more shared game instances,
exposing the library's equilibrium primitives — pairwise distances,
social cost, deviation verdicts, exact best responses, weighted swap
checks, and PoA intervals — without paying a fresh
``DistanceCache`` build per question.

Wire protocol
-------------
Newline-delimited JSON over TCP (``repro-bbncg serve --port N``) or
stdio (``--stdio``).  One request object per line::

    {"id": 7, "op": "distance", "instance": "fig1", "u": 0, "v": 9}

``op`` is one of the control operations ``ping`` / ``instances`` /
``stats`` / ``shutdown`` or the query operations ``distance`` /
``social_cost`` / ``deviation`` / ``best_response`` /
``weighted_swap`` / ``poa``.  Every response echoes the request ``id``
(responses may arrive out of order; match by ``id``)::

    {"id": 7, "ok": true, "result": {"distance": 3},
     "meta": {"queue_wait_ms": 0.4, "batch_size": 3,
              "settled_fraction": 0.18, "engine_mode": "lazy"}}

Failures carry ``"ok": false`` and an ``error`` object with a stable
``code`` (``bad-json`` / ``bad-request`` / ``unknown-op`` /
``unknown-instance`` / ``query-error`` / ``internal-error``, or
``too-large`` for a TCP line over 64 KiB, which is skipped).
Exact fractions (PoA bounds) are encoded as ``"p/q"`` strings.

Micro-batching window
---------------------
Concurrent same-instance requests are coalesced by a per-instance
collector: the first arrival opens a window (default 2 ms,
``--batch-window-ms``), and everything that lands inside it — up to
``--max-batch`` — executes as one batch on that instance's single
affinity thread.  Distance questions in a batch of two or more are
answered by ONE batched multi-source sweep
(:meth:`repro.core.DistanceCache.batch_query`, backed by
:func:`repro.graphs.query.batched_pair_distances`); a singleton batch
falls through to the bidirectional point kernel.  ``meta`` reports the
per-request queue wait, the batch size it rode in, the settled
fraction of the instance's distance engine, and the engine mode.

Bit-identity contract
---------------------
Every served answer is bit-identical to the corresponding direct
library call on the same instance — including disconnected-pair
``Cinf`` sentinels, exact ``Fraction`` PoA endpoints, and best-response
strategy sets.  Batching, the affinity executor, and the lazy-rows
cold start (rows settled on demand, promoted to a full matrix once
enough are hot) are pure execution-plan choices; they never change a
payload byte.
"""

from .dispatcher import MicroBatchDispatcher
from .protocol import (
    CONTROL_OPS,
    PROTOCOL_VERSION,
    QUERY_OPS,
    ProtocolError,
    Request,
    encode_response,
    error_response,
    fraction_str,
    ok_response,
    parse_request,
)
from .registry import InstanceRegistry, ServedInstance
from .server import QueryServer, run_cli

__all__ = [
    "CONTROL_OPS",
    "InstanceRegistry",
    "MicroBatchDispatcher",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QUERY_OPS",
    "QueryServer",
    "Request",
    "ServedInstance",
    "encode_response",
    "error_response",
    "fraction_str",
    "ok_response",
    "parse_request",
    "run_cli",
]
