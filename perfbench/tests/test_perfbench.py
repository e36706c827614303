"""Self-tests of the benchmark's own machinery.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import sys
import threading
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402


def quiet_clock(ref_s: float = 1.0) -> speed.SpeedClock:
    return speed.SpeedClock(ref_s=ref_s, thread_check=lambda: None)


# ----------------------------------------------------------------------
# Normalisation arithmetic
# ----------------------------------------------------------------------
def test_slow_probes_scale_a_span_down():
    clock = quiet_clock(ref_s=1.0)
    clock.add_point(0.0, 0.0, 2.0)
    clock.add_point(10.0, 0.0, 2.0)
    assert clock.span(1.0, 5.0) == pytest.approx(2.0)


def test_fast_probes_scale_a_span_up():
    clock = quiet_clock(ref_s=1.0)
    clock.add_point(0.0, 0.0, 0.5)
    clock.add_point(10.0, 0.0, 0.5)
    assert clock.span(1.0, 5.0) == pytest.approx(8.0)


def test_span_uses_mean_of_bracketing_probes():
    clock = quiet_clock(ref_s=1.0)
    clock.add_point(0.0, 0.0, 1.0)
    clock.add_point(4.0, 0.0, 3.0)
    clock.add_point(6.0, 0.0, 3.0)
    # [0, 4] runs at ref / mean(1, 3) = 0.5; [4, 6] at ref / 3.
    assert clock.span(0.0, 6.0) == pytest.approx(4 * 0.5 + 2 / 3)


def test_probe_time_is_excluded():
    clock = quiet_clock(ref_s=1.0)
    clock.add_point(0.0, 0.0, 1.0)
    clock.add_point(2.0, 1.0, 1.0)  # a tick probe occupying [2, 3]
    clock.add_point(5.0, 0.0, 1.0)
    assert clock.span(0.0, 5.0) == pytest.approx(4.0)
    assert clock.probe_seconds(0.0, 5.0) == pytest.approx(1.0)


def test_unbracketed_time_is_rejected():
    clock = quiet_clock()
    clock.add_point(1.0, 0.0, 1.0)
    clock.add_point(2.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        clock.span(0.5, 1.5)
    with pytest.raises(ValueError):
        clock.span(1.5, 2.5)


def test_real_probes_give_positive_spans():
    clock = quiet_clock(ref_s=speed.REF_PROBE_S)
    clock.mark()
    a = speed.time.perf_counter()
    sum(range(10_000))
    b = speed.time.perf_counter()
    clock.mark()
    assert clock.span(a, b) > 0


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
def test_self_time_of_nested_spans(monkeypatch):
    # cell [0, 10] > A [1, 4] > B [2, 3]; cell > C [5, 6]
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
    monkeypatch.setattr(spans, "_clock", lambda: next(ticks))
    tr = spans.SpanTracer()
    cell = tr.open_cell()
    a = tr.open("A")
    b = tr.open("B")
    tr.close(b)
    tr.close(a)
    c = tr.open("C")
    tr.close(c)
    tr.close(cell)
    dur = tr.durations(lambda t: t)
    np.testing.assert_allclose(dur, [10.0, 3.0, 1.0, 1.0])
    own = tr.self_times(dur)
    np.testing.assert_allclose(own, [6.0, 2.0, 1.0, 1.0])
    assert own.sum() == pytest.approx(dur[0])
    assert list(tr.cell) == [0, 0, 0, 0]


def test_install_wraps_every_binding(monkeypatch):
    home = types.ModuleType("benchfake_home")
    user = types.ModuleType("benchfake_user")

    def kernel(x: int) -> int:
        return 2 * x

    home.kernel = kernel
    user.kernel = kernel  # as after ``from benchfake_home import kernel``
    monkeypatch.setitem(sys.modules, "benchfake_home", home)
    monkeypatch.setitem(sys.modules, "benchfake_user", user)
    seen: list[int] = []
    tr = spans.SpanTracer()
    spans.install(
        tr,
        [spans.EntryPoint(home, "kernel", lambda t, a, k, r: seen.append(r))],
        module_prefixes=("benchfake",),
    )
    assert user.kernel(3) == 6 and home.kernel(4) == 8
    assert tr.names == ["kernel", "kernel"] and seen == [6, 8]


def test_moved_entry_point_fails_loudly():
    with pytest.raises(AttributeError):
        spans.install(spans.SpanTracer(), [spans.EntryPoint(speed, "no_such_kernel")])


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FakeCell:
    key: str
    run: Callable[[], Any]
    digest: Callable[[Any], str] = lambda out: f"d{out}"
    check: Callable[[Any], None] = lambda out: None


def test_matching_digest_passes():
    rec = worker.run_cell(FakeCell("c", lambda: 42), quiet_clock(), {"c": "d42"})
    assert rec.error is None and rec.digest == "d42"


def test_corrupted_digest_yields_a_failed_cell():
    rec = worker.run_cell(FakeCell("c", lambda: 42), quiet_clock(), {"c": "d41"})
    assert rec.error is not None and "pinned" in rec.error


def test_raising_or_invalid_cell_is_a_failed_cell():
    def boom() -> int:
        raise RuntimeError("kaput")

    def reject(out: Any) -> None:
        raise ValueError("bad output")

    rec = worker.run_cell(FakeCell("c", boom), quiet_clock(), {})
    assert rec.error == "RuntimeError: kaput" and rec.digest is None
    rec = worker.run_cell(FakeCell("c", lambda: 1, check=reject), quiet_clock(), {})
    assert rec.error == "ValueError: bad output"


# ----------------------------------------------------------------------
# Thread guard
# ----------------------------------------------------------------------
def test_thread_guard_reads_the_status_file(tmp_path):
    status = tmp_path / "status"
    status.write_text("Name:\tpython3\nThreads:\t1\n")
    speed.check_single_thread(str(status))
    status.write_text("Name:\tpython3\nThreads:\t2\n")
    with pytest.raises(speed.ThreadGuardError):
        speed.check_single_thread(str(status))


def test_thread_guard_trips_when_a_thread_runs():
    before = speed.thread_count()
    release = threading.Event()
    t = threading.Thread(target=release.wait, daemon=True)
    t.start()
    try:
        assert speed.thread_count() == before + 1
        with pytest.raises(speed.ThreadGuardError):
            speed.SpeedClock().mark()
    finally:
        release.set()
        t.join(timeout=5)
    assert not t.is_alive()


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def test_cell_lists_are_seeded_and_avoid_the_warmup_seed():
    import workloads

    for w in workloads.WORKLOADS.values():
        a = [c.key for c in w.cells(3, 12)]
        assert a == [c.key for c in w.cells(3, 12)]
        assert a != [c.key for c in w.cells(4, 12)]
        assert not any(f"seed={workloads.WARMUP_SEED} " in k + " " for k in a)


def test_paper_cells_keep_every_offline_run(monkeypatch):
    import workloads
    from repro.analysis import experiments
    from repro.scenario import runner

    # The traced run rebinds the runner module's function; paper cells
    # must reach it (and keep its result) through the experiments module.
    monkeypatch.setattr(runner, "run_offline_scenario", lambda seed: f"run{seed}")

    def two_runs() -> str:
        experiments.run_offline_scenario(1)
        experiments.run_offline_scenario(2)
        return "artefact"

    assert workloads._run_paper(two_runs) == ("artefact", ["run1", "run2"])
    assert workloads._run_paper(lambda: "none") == ("none", [])


def test_every_warmup_digest_is_pinned():
    import workloads

    pins = json.loads(worker.PINS_PATH.read_text())
    for w in workloads.WORKLOADS.values():
        assert w.warmup().key in pins
