"""Assert that the deterministic per-layer counts repeat across traced runs.

    python3 perfbench/check_repeat.py --workload census-eval --seed 3 --seconds 10

Runs ``run.py --trace 1`` twice with the same seed and compares the
``# deterministic`` lines (per-op counts: equilibrium checks, chain
rows, ``evaluated``, journal records, dynamics moves, engine counters
where the engine is not timing-adaptive). serve-mix has no such counts:
its batching depends on timing. Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def counts(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"traced run failed:\n{proc.stderr}")
    for line in proc.stdout.splitlines():
        if line.startswith("# deterministic "):
            return json.loads(line[len("# deterministic "):])
    raise SystemExit("traced run printed no deterministic counts")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("census-sym", "census-eval", "dynamics"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    first = counts(args.workload, args.seed, args.seconds)
    second = counts(args.workload, args.seed, args.seconds)
    diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
    print(json.dumps({"workload": args.workload, "counts": first, "differ": diff}))
    return 1 if diff or first.keys() != second.keys() else 0


if __name__ == "__main__":
    sys.exit(main())
