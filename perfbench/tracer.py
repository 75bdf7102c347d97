"""In-memory span tracer that wraps the library's entry points by name.

A *target* is ``"module:attr.path"`` (e.g.
``"repro.core.enumeration:_OrbitKeys.advance_block"``). Installing a
target replaces the attribute with a wrapper that opens a span around
each call; a function imported into other ``repro`` modules with
``from x import f`` is replaced there too. A target that no longer
resolves (a later change removed it) is recorded in ``absent`` and
skipped, never raised.

Spans nest on a per-thread stack: a span's *self* time is its duration minus the
time its child spans cover. Records ``(name_id, parent, start, end)``
stay in memory and are written out once, by :meth:`Tracer.dump`.

A forked worker inherits the installed wrappers. Its tracer state is
reset at fork; each time its outermost wrapped call returns it rewrites
``spans-<pid>.json`` in ``child_dir`` and the parent folds those files
in with :meth:`Tracer.merge_children`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from array import array
from collections import Counter
from pathlib import Path

_now = time.perf_counter_ns


class Tracer:
    def __init__(self, child_dir: "str | None" = None) -> None:
        self.pid = os.getpid()
        self.child_dir = child_dir
        self.is_child = False
        self.absent: "list[str]" = []
        self._installed: "list[tuple[object, str, object]]" = []
        self._names: "list[str]" = []
        self._ids: "dict[str, int]" = {}
        self.clear()
        os.register_at_fork(after_in_child=self._after_fork)

    # -- aggregates -----------------------------------------------------
    def clear(self) -> None:
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: objects a hook keeps until a later hook reads them
        self.held: list = []
        self.records = array("q")
        # Per thread: [record index, start, child_ns] of each open span.
        self._stacks: "dict[int, list[list[int]]]" = {}
        self._lock = threading.Lock()

    def _stack(self) -> "list[list[int]]":
        return self._stacks.setdefault(threading.get_ident(), [])

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.is_child = True
        self.clear()

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self._names)
            self._names.append(name)
        return i

    def enter(self, name: str) -> None:
        stack = self._stack()
        with self._lock:
            parent = stack[-1][0] if stack else -1
            idx = len(self.records) // 4
            self.records.extend((self._id(name), parent, 0, 0))
        stack.append([idx, _now(), 0])

    def exit(self) -> None:
        end = _now()
        stack = self._stack()
        idx, start, child = stack.pop()
        dur = end - start
        if stack:
            stack[-1][2] += dur
        with self._lock:
            name = self._names[self.records[4 * idx]]
            self.records[4 * idx + 2] = start
            self.records[4 * idx + 3] = end
            self.total_ns[name] += dur
            self.self_ns[name] += dur - child
            self.calls[name] += 1

    def durations_ms(self, name: str) -> "list[float]":
        """Per-call durations of every recorded span called ``name``."""
        nid = self._ids.get(name)
        r = self.records
        return [
            (r[i + 3] - r[i + 2]) / 1e6
            for i in range(0, len(r), 4)
            if r[i] == nid and r[i + 3]
        ]

    # -- child processes ------------------------------------------------
    def _write_child(self) -> None:
        path = Path(self.child_dir) / f"spans-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(
            json.dumps(
                {
                    "total_ns": self.total_ns,
                    "self_ns": self.self_ns,
                    "calls": self.calls,
                    "counts": self.counts,
                }
            )
        )
        os.replace(tmp, path)

    def merge_children(self) -> int:
        """Fold and delete every child span file; returns how many."""
        if self.child_dir is None:
            return 0
        files = sorted(Path(self.child_dir).glob("spans-*.json"))
        for path in files:
            data = json.loads(path.read_text())
            for key in ("total_ns", "self_ns", "calls", "counts"):
                getattr(self, key).update(data[key])
            path.unlink()
        return len(files)

    # -- installing wrappers --------------------------------------------
    def _resolve(self, target: str):
        mod_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(mod_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            return None
        return owner, attr, raw

    def install(self, target: str, name: "str | None", on_result=None) -> bool:
        """Wrap ``target``: a span called ``name`` (``None``: no span),
        then ``on_result(tracer, args, kwargs, result)`` after the call."""
        found = self._resolve(target)
        if found is None:
            if target not in self.absent:
                self.absent.append(target)
            return False
        owner, attr, fn = found
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is not None:
                tracer.enter(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.exit()
            else:
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(tracer, args, kwargs, out)
            if tracer.is_child and tracer.child_dir and not tracer._stack():
                tracer._write_child()
            return out

        sites = [owner]
        if not isinstance(owner, type):
            sites += [
                m
                for key, m in list(sys.modules.items())
                if key.split(".")[0] == "repro"
                and m is not owner
                and getattr(m, attr, None) is fn
            ]
        for site in sites:
            self._installed.append((site, attr, fn))
            setattr(site, attr, wrapper)
        return True

    def uninstall(self) -> None:
        for site, attr, fn in reversed(self._installed):
            setattr(site, attr, fn)
        self._installed.clear()

    # -- output ---------------------------------------------------------
    def dump(self, path: "str | os.PathLike") -> None:
        """Write every span record as ``name, parent, start_ns, end_ns``."""
        r = self.records
        rows = [
            [self._names[r[i]], r[i + 1], r[i + 2], r[i + 3]]
            for i in range(0, len(r), 4)
        ]
        Path(path).write_text(json.dumps({"absent": self.absent, "spans": rows}))
