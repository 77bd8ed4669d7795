"""Self-checks of the drift normalizer.  Run with: python3 -m pytest bench"""

import gc
import statistics
from array import array
from time import perf_counter

import drift


def _clock(calls, nominal_s=1.0):
    """A clock with hand-made reference calls given as (start, end)."""
    clock = drift.DriftClock(nominal_s)
    clock.starts = array("d", [s for s, e in calls])
    clock.ends = array("d", [e for s, e in calls])
    return clock


def test_reference_loop_allocates_no_tracked_objects():
    drift.reference_loop()
    gc.disable()
    try:
        before = gc.get_count()[0]
        drift.reference_loop()
        after = gc.get_count()[0]
    finally:
        gc.enable()
    assert after == before


def test_reference_time_is_excluded_and_intervals_add_up():
    # calls of nominal length 1 every 10 s: no slowdown
    clock = _clock([(10.0 * k, 10.0 * k + 1) for k in range(6)])
    assert clock.interval(0.0, 51.0) == 45.0  # 51 s of wall, 6 s of it reference
    assert clock.interval(3.0, 4.0) == 1.0
    assert clock.interval(10.2, 10.8) == 0.0  # inside a reference call
    a, b, c = 2.5, 23.75, 47.0
    assert abs(clock.interval(a, c) - clock.interval(a, b) - clock.interval(b, c)) < 1e-12


def test_slow_host_is_scaled_back():
    fast = _clock([(10.0 * k, 10.0 * k + 1) for k in range(6)])
    slow = _clock([(20.0 * k, 20.0 * k + 2) for k in range(6)])  # everything 2x slower
    assert slow.interval(0.0, 102.0) == fast.interval(0.0, 51.0)
    # beyond the last call the last slowdown holds
    assert slow.interval(102.0, 122.0) == 10.0


def _synthetic_work():
    """Fixed string, hashing and float work, about 1 s, whose garbage is
    all freed by reference counting."""
    acc = 0.0
    for i in range(3000000):
        acc += (hash(str(i)) & 0xFF) * 0.5
    return acc


def test_synthetic_workload_comes_out_steady():
    clock = drift.DriftClock(1.0)
    clock.sample(5)
    clock.nominal_s = clock.raw_reference_s()
    clock.start()
    try:
        marks = []
        for _ in range(6):
            a = perf_counter()
            _synthetic_work()
            marks.append((a, perf_counter()))
        clock.sample(3)
    finally:
        clock.stop()
    normalized = [clock.interval(a, b) for a, b in marks]
    q1, _, q3 = statistics.quantiles(normalized, n=4)
    # 1 s chunks see about 50 reference calls each; whole benchmark passes
    # are 5-10 s long and come out several times steadier than this bound.
    assert (q3 - q1) / statistics.median(normalized) < 0.1, normalized
