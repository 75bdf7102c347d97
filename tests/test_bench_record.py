"""The benchmark suite writes run output under ``.bench_out/`` only.

``benchmarks/conftest.py`` is loaded from its file (its module name
would clash with this suite's ``conftest``) and its merge helper is
driven against a temporary root holding a baseline file.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

_BENCH_CONFTEST = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"


def _bench_conftest():
    spec = importlib.util.spec_from_file_location("bench_conftest", _BENCH_CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_record_writes_under_bench_out_and_keeps_baseline(tmp_path):
    mod = _bench_conftest()
    assert mod.REPO_ROOT == _BENCH_CONFTEST.parent.parent
    baseline = tmp_path / "BENCH_demo.json"
    baseline.write_text('{"old": {"s": 1.0}}\n')
    before = baseline.read_bytes()

    path = mod.merge_bench_record(tmp_path, "demo", "first", {"s": 0.5})
    mod.merge_bench_record(tmp_path, "demo", "second", {"s": 0.25})

    assert path == tmp_path / ".bench_out" / "BENCH_demo.json"
    assert json.loads(path.read_text()) == {"first": {"s": 0.5}, "second": {"s": 0.25}}
    assert baseline.read_bytes() == before
