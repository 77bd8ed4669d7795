"""Drift-normalized timing.

Host speed on a small shared machine drifts by tens of percent within
seconds, and process time drifts with it, so neither clock alone gives
repeatable numbers.  A DriftClock interleaves a fixed pure-Python
reference loop with the timed work: an interval timer (SIGALRM) runs the
loop about every 20 ms.  The loop allocates no GC-tracked objects, so it
does not shift when the collector runs inside the measured program.

The loop hashes keys and probes two prebuilt dicts, as the library's memo
tables and orbit sets do.  On a 2-core shared host that tracked the
library's slowdown (repeat passes within 1-4%) far better than a plain
integer loop (5-9%), which stays in L1 and misses the contention for
caches and memory that slows the library most.  Adding table-backed
method calls, like the library's F_q arithmetic, tracked worse.
"""

import random
import signal
import statistics
from array import array
from bisect import bisect_right
from time import perf_counter

TICK_S = 0.02
SMOOTH = 2  # slowdown at a call is the median over calls k-SMOOTH..k+SMOOTH

_TABLE = 4000
_LOOKUPS = 6000
_INT_KEYS = [(i * 2654435761) % (1 << 31) for i in range(_TABLE)]
_TUPLE_KEYS = [(i, i * 7 % 1000, i * 13 % 97) for i in range(_TABLE)]
_INT_TABLE = {k: i for i, k in enumerate(_INT_KEYS)}
_TUPLE_TABLE = {k: i for i, k in enumerate(_TUPLE_KEYS)}
_ORDER = [random.Random(20170425).randrange(_TABLE) for _ in range(_LOOKUPS)]


def reference_loop():
    """Fixed dict probes over prebuilt keys; only untracked ints are made."""
    s = 0
    int_table, tuple_table = _INT_TABLE, _TUPLE_TABLE
    int_keys, tuple_keys = _INT_KEYS, _TUPLE_KEYS
    for j in _ORDER:
        s += int_table[int_keys[j]] + tuple_table[tuple_keys[j]]
    return s


class DriftClock:
    """Runs the reference loop on a timer and converts wall intervals to
    reference seconds.  `nominal_s` is the reference call's duration on the
    machine the benchmark was calibrated on."""

    def __init__(self, nominal_s):
        self.nominal_s = nominal_s
        self.starts = array("d")
        self.ends = array("d")
        self._knots = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sample(self, calls=1):
        """Run the reference loop directly; used where no work is timed."""
        for _ in range(calls):
            self._tick(None, None)

    # --- conversion -----------------------------------------------------

    def raw_reference_s(self):
        """Median wall duration of one reference call (raw host speed)."""
        return statistics.median(e - s for s, e in zip(self.starts, self.ends))

    def _slowdowns(self):
        durs = [e - s for s, e in zip(self.starts, self.ends)]
        n = len(durs)
        out = []
        for k in range(n):
            window = durs[max(0, k - SMOOTH): k + SMOOTH + 1]
            out.append(statistics.median(window) / self.nominal_s)
        return out

    def knots(self):
        """Piecewise-linear map wall time -> reference seconds, as
        (times, values) with a knot at the start and end of every call."""
        if self._knots is not None:
            return self._knots
        if not self.starts:
            raise RuntimeError("no reference samples were taken")
        r = self._slowdowns()
        ts, ws = [], []
        w = 0.0
        for k, (s, e) in enumerate(zip(self.starts, self.ends)):
            if k:
                gap = s - self.ends[k - 1]
                w += gap / ((r[k - 1] + r[k]) / 2)
            ts.append(s)
            ws.append(w)
            ts.append(e)
            ws.append(w)
        self._knots = (ts, ws, r[0], r[-1])
        return self._knots

    def at(self, t):
        """Cumulative reference seconds at wall time t."""
        ts, ws, r_first, r_last = self.knots()
        i = bisect_right(ts, t)
        if i == 0:
            return ws[0] - (ts[0] - t) / r_first
        if i == len(ts):
            return ws[-1] + (t - ts[-1]) / r_last
        t0, t1 = ts[i - 1], ts[i]
        w0, w1 = ws[i - 1], ws[i]
        if w1 == w0:
            return w0  # inside a reference call
        return w0 + (w1 - w0) * (t - t0) / (t1 - t0)

    def interval(self, t0, t1):
        """Reference seconds of work between wall times t0 and t1."""
        return self.at(t1) - self.at(t0)

    def many(self, times):
        """Vectorized `at` for large span tables (used by the traced run)."""
        import numpy as np

        ts, ws, r_first, r_last = self.knots()
        big = 1e6
        xt = np.concatenate(([ts[0] - big], ts, [ts[-1] + big]))
        xw = np.concatenate(([ws[0] - big / r_first], ws, [ws[-1] + big / r_last]))
        return np.interp(np.frombuffer(times, dtype=np.float64), xt, xw)
