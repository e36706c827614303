"""Steady benchmark of the SID reproduction, in host-speed-normalised seconds.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 12 --trace 0

Workloads: ``paper_sweep``, ``chaos_soak``, ``long_watch`` (see
``workloads.py``).  Every measured process is a fresh interpreter with
BLAS/OpenMP pinned to one thread.  With ``--trace 0`` the launcher sets
up three times (two set-up-only processes plus the measured one) and
reports the end-to-end metrics; with ``--trace 1`` it runs the cells
untraced, then traced, and reports the per-layer metrics.  Human-readable
lines (raw seconds among them) come first; the last line of standard
output is the JSON result.  Spans of a traced run are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("paper_sweep", "chaos_soak", "long_watch")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Wall-clock budget of one invocation, all child processes included.
BUDGET_S = 170.0

#: Thread pins, set before numpy loads in every measured process.
THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "BLIS_NUM_THREADS",
    )
}


class BenchError(RuntimeError):
    """A measured process failed; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # glibc's mmap threshold moves: it rises after the first large free,
    # after which whether a freed trace array stays resident depends on
    # heap layout.  Fixed thresholds (arrays below 32 MiB live on the
    # heap, which is never trimmed) match the default's steady state, so
    # timings do not move (a 128 KiB threshold made cells ~1.6x slower),
    # and cut how often peak RSS jumps by one trace set (~12-14 MiB)
    # between identical runs; address-space randomisation still tips it
    # now and then.
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(256 << 20)
    return env


def run_worker(argv: list[str], deadline: float) -> dict[str, Any]:
    """Run one measured process to completion; its JSON record."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *argv],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {argv} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {argv} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_s(record: dict[str, Any]) -> float:
    return sum(step["norm_s"] for step in record["setup"])


def run_s(record: dict[str, Any]) -> float:
    return sum(cell["norm_s"] for cell in record["cells"])


def failed_keys(record: dict[str, Any]) -> list[str]:
    return [c["key"] for c in record["cells"] if c["error"] is not None]


def report(record: dict[str, Any], label: str) -> None:
    """Human-readable lines; raw seconds are shown, never compared."""
    cells = record["cells"]
    raw = sum(c["raw_s"] for c in cells)
    probe = sum(c["probe_s"] for c in cells)
    steps = "  ".join(
        f"{s['step']} {s['raw_s']:.3f}/{s['norm_s']:.3f}" for s in record["setup"]
    )
    print(f"[{label}] setup raw/norm s: {steps}")
    if cells:
        print(
            f"[{label}] {len(cells)} cells: run raw {raw:.3f} s, norm "
            f"{run_s(record):.3f} s; cell p50 raw "
            f"{statistics.median(c['raw_s'] for c in cells):.4f} s, norm "
            f"{statistics.median(c['norm_s'] for c in cells):.4f} s; "
            f"probes {probe / raw:.1%} of cell time"
        )
        print(
            f"[{label}] failed_cells {len(failed_keys(record))} of "
            f"{len(cells)} attempted; run_digest {record['run_digest']}"
        )
    warm = record["warmup"]
    if warm["error"] is not None:
        print(f"[{label}] warm-up {warm['key']}: {warm['error']}", file=sys.stderr)
    for cell in cells:
        if cell["error"] is not None:
            print(f"[{label}] FAILED {cell['key']}: {cell['error']}", file=sys.stderr)


def with_units(values: dict[str, float], declared: list[dict[str, Any]]) -> dict[str, Any]:
    """``values`` as result metrics, with the units ``BENCHMARK.json``
    declares; the two must name the same metrics."""
    if set(values) != {m["name"] for m in declared}:
        raise BenchError(
            f"measured metrics {sorted(values)} differ from the declared "
            f"{sorted(m['name'] for m in declared)}"
        )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def end_to_end(
    common: list[str], deadline: float, declared: list[dict[str, Any]]
) -> dict[str, Any]:
    setups = [
        run_worker(common + ["--setup-only"], deadline) for _ in range(SETUP_REPS - 1)
    ]
    main_rec = run_worker(common, deadline)
    for i, rec in enumerate(setups):
        report(rec, f"setup {i + 1}")
    report(main_rec, "run")
    cells = main_rec["cells"]
    failed = len(failed_keys(main_rec))
    warm_ok = all(r["warmup"]["error"] is None for r in setups + [main_rec])
    values = {
        "setup_s": statistics.median(setup_s(r) for r in setups + [main_rec]),
        "run_s": run_s(main_rec),
        "cell_p50_s": statistics.median(c["norm_s"] for c in cells),
        "peak_rss_mb": main_rec["peak_rss_mb"],
    }
    return {
        "correct": failed == 0 and warm_ok,
        "attempted": len(cells),
        "failed": failed,
        "metrics": with_units(values, declared),
    }


def per_layer(
    args: argparse.Namespace,
    common: list[str],
    deadline: float,
    declared: list[dict[str, Any]],
) -> dict[str, Any]:
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    base = run_worker(common, deadline)
    traced = run_worker(common + ["--trace", "--spans", str(spans)], deadline)
    report(base, "untraced")
    report(traced, "traced")
    print(f"[traced] spans written to {spans.relative_to(ROOT)}")
    # Tracing must never change outputs: traced digests equal untraced.
    mismatched = [
        t["key"]
        for b, t in zip(base["cells"], traced["cells"])
        if b["digest"] != t["digest"] or b["key"] != t["key"]
    ]
    for key in mismatched:
        print(f"[traced] digest differs from untraced: {key}", file=sys.stderr)
    failed = set(failed_keys(base)) | set(failed_keys(traced)) | set(mismatched)
    warm_ok = base["warmup"]["error"] is None and traced["warmup"]["error"] is None
    layers = dict(traced["layers"])
    layers["trace.overhead"] = run_s(traced) / run_s(base)
    return {
        "correct": not failed
        and warm_ok
        and len(base["cells"]) == len(traced["cells"]),
        "attempted": len(traced["cells"]),
        "failed": len(failed),
        "metrics": with_units(layers, declared),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    # The build: byte-compile the program and the benchmark up front so
    # no measured process pays (or skips) compilation by accident.
    if not compileall.compile_dir(SRC, quiet=2) or not compileall.compile_dir(
        BENCH, quiet=2, maxlevels=0
    ):
        print("byte-compilation failed", file=sys.stderr)
        return 2
    common = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}"
    )
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        if args.trace:
            result = per_layer(args, common, deadline, spec["per_layer"])
        else:
            result = end_to_end(common, deadline, spec["end_to_end"])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
