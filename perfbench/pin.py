"""Regenerate ``pins.json``: the digest of every workload's warm-up cell
and of every timed cell of the default workload seed.

Run from the repository root, only after a change meant to alter the
program's outputs::

    python3 perfbench/pin.py

The digests come from the measured worker processes themselves, so they
are made in exactly the environment the benchmark runs in.
"""

from __future__ import annotations

import json
import sys
import time

import run

#: Workload seed whose timed cells have pinned digests.
DEFAULT_SEED = 1


def main() -> int:
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    deadline = time.monotonic() + 20 * run.BUDGET_S
    pins: dict[str, str] = {}
    for name in run.WORKLOADS:
        record = run.run_worker(
            [
                "--workload", name,
                "--seed", str(DEFAULT_SEED),
                "--seconds", str(float(seconds)),
            ],
            deadline,
        )
        for cell in [record["warmup"], *record["cells"]]:
            if cell["digest"] is None:
                print(f"{cell['key']}: {cell['error']}", file=sys.stderr)
                return 1
            pins[cell["key"]] = cell["digest"]
            print(f"{cell['key']}: {cell['digest']}")
    (run.BENCH / "pins.json").write_text(
        json.dumps(pins, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
