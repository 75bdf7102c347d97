"""Benchmark-suite configuration.

Every benchmark regenerates one artefact of the paper (a Table 1 cell,
a figure, or an ablation) and *asserts the paper's claim* about it, so
``pytest benchmarks/ --benchmark-only`` is simultaneously a performance
run and a reproduction run.

Bench modules that keep numbers declare ``BENCH_NAME`` and record
through the ``bench_record`` fixture, which merges into
``.bench_out/BENCH_<name>.json``. A run never rewrites the tracked
``BENCH_<name>.json`` baselines at the repo root; refreshing a baseline
is a deliberate copy from ``.bench_out/``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

#: Repository root: the tracked baselines live here, run output below it.
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Directory (under a root) that bench runs write their numbers to.
BENCH_OUT = ".bench_out"


def merge_bench_record(root: Path, name: str, key: str, payload: dict) -> Path:
    """Merge ``{key: payload}`` into ``root/.bench_out/BENCH_<name>.json``.

    Other keys already in the file are kept, so the benchmarks of one
    module accumulate into one file. Returns the path written.
    """
    path = Path(root) / BENCH_OUT / f"BENCH_{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            data = {}
    data[key] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


@pytest.fixture
def bench_record(request):
    """``bench_record(key, payload)`` for the calling module's ``BENCH_NAME``."""
    name = request.module.BENCH_NAME

    def record(key: str, payload: dict) -> None:
        merge_bench_record(REPO_ROOT, name, key, payload)

    return record


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "paper_artifact(name): which table/figure a benchmark regenerates"
    )
