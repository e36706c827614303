"""Tests for the shared value types."""

from __future__ import annotations

import numpy as np
import pytest

from repro.types import AccelTrace, Position, TimeWindow


class TestPosition:
    def test_distance(self):
        assert Position(0, 0).distance_to(Position(3, 4)) == 5.0

    def test_offset(self):
        assert Position(1, 2).offset(3, -2) == Position(4, 0)

    def test_iter_unpacking(self):
        x, y = Position(1.5, 2.5)
        assert (x, y) == (1.5, 2.5)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Position(0, 0).x = 1.0  # type: ignore[misc]


class TestTimeWindow:
    def test_duration(self):
        assert TimeWindow(1.0, 3.5).duration == 2.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TimeWindow(2.0, 1.0)

    def test_contains_half_open(self):
        w = TimeWindow(1.0, 2.0)
        assert w.contains(1.0)
        assert w.contains(1.999)
        assert not w.contains(2.0)


class TestAccelTrace:
    def _trace(self, n=100, rate=50.0):
        z = np.full(n, 1024, dtype=np.int64)
        return AccelTrace(
            t0=10.0,
            rate_hz=rate,
            x=np.zeros(n, dtype=np.int64),
            y=np.zeros(n, dtype=np.int64),
            z=z,
        )

    def test_len_and_duration(self):
        tr = self._trace(250)
        assert len(tr) == 250
        assert tr.duration == 5.0

    def test_times_start_at_t0(self):
        tr = self._trace()
        assert tr.times[0] == 10.0
        assert np.isclose(tr.times[1] - tr.times[0], 0.02)

    def test_mismatched_axes_rejected(self):
        with pytest.raises(ValueError):
            AccelTrace(0.0, 50.0, np.zeros(3), np.zeros(4), np.zeros(3))
        with pytest.raises(ValueError, match="length"):
            AccelTrace(0.0, 50.0, np.zeros(4), np.zeros(4), np.zeros(3))

    def test_z_only_trace(self):
        tr = AccelTrace(0.0, 50.0, None, None, np.zeros(150))
        assert tr.x is None and tr.y is None
        assert len(tr) == 150
        assert tr.duration == 3.0

    def test_one_horizontal_axis_rejected(self):
        with pytest.raises(ValueError, match="together"):
            AccelTrace(0.0, 50.0, np.zeros(3), None, np.zeros(3))
        with pytest.raises(ValueError, match="together"):
            AccelTrace(0.0, 50.0, None, np.zeros(3), np.zeros(3))

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            AccelTrace(0.0, 0.0, np.zeros(3), np.zeros(3), np.zeros(3))
