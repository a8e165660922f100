"""Host-speed monitor: scales the benchmark's times to a reference host.

Other tenants of a shared host slow every process on it, in bursts of
seconds and in phases of minutes: a fixed loop's time swings by 1.5x
from one second to the next, and a fixed solve ranged over 0.97-1.91 s
within 90 s.  The slowdown lengthens CPU time as much as wall time and
is mostly host-wide: two processes timing the loop side by side, one
per core, read slowdowns whose one-second means correlated at 0.99.
Not always: once, three solve_default runs in a row read 45% slow
while the probes saw nothing, so a severe phase can be under-corrected.

So a sidecar process (:class:`HostMonitor`) times a short fixed
numpy-and-Python loop in its own CPU time every ``PROBE_EVERY_S``, all
through set-up and measurement.  CPU time leaves out the time the probe
waits while the benchmark's own processes run, so the probe reads the
host's speed even when the workload keeps every core busy.  A time
measured from ``t0`` to ``t1`` is divided by the host's slowdown over
that span (:meth:`SpeedLog.slowdown`; a rate is multiplied by it): that
is what it would have read on the reference host.  The loop is part of the
benchmark, not of the library, so no change to the program moves it;
only the host's speed does.

    python3 perfbench/hostspeed.py FILE   # the sidecar; appends "t probe_s" lines
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: cpu_probe() on the 2-core host the bounds were set on, idle, at its
#: fastest.
CPU_PROBE_REF_S = 0.0068
#: Seconds between probes.  The scheduler at times runs the sidecar on
#: the core an in-process solve is using: at one probe per 0.1 s a
#: solve spent 11% of its wall time off the CPU, against 1% without the
#: sidecar.
PROBE_EVERY_S = 0.2
#: Probes a slowdown is averaged over at least; a shorter span is
#: widened around its middle to the nearest this many.
MIN_PROBES = 5

_rng = np.random.default_rng(0)
_A = _rng.random(50_000)
_IDX = _rng.integers(0, 50_000, 50_000)


def cpu_probe() -> float:
    """This thread's CPU seconds for the fixed loop."""
    t0 = time.thread_time()
    for k in range(50):
        b = _A[_IDX] * 1.0001 + 0.5
        np.maximum(b, 0.7, out=b)
        np.sort(b[:2000])
        d = {i: i * k for i in range(300)}
        sum(d.values())
    return time.thread_time() - t0


class SpeedLog:
    """Probe readings as the host's speed over time, relative to the
    reference host."""

    def __init__(self, probes: list[tuple[float, float]]):
        probes = sorted(probes)
        self.t = np.array([t for t, _p in probes])
        speed = CPU_PROBE_REF_S / np.array([p for _t, p in probes])
        self.cum = np.concatenate([[0.0], np.cumsum(speed)])

    def slowdown(self, t0: float, t1: float) -> float:
        """How much slower than the reference host the host ran from
        ``t0`` to ``t1``: divide a time by it, multiply a rate.

        Work done is the integral of speed over time, so this is the
        harmonic mean of the probes' slowdowns, not their mean: a span
        half at full speed and half at half speed does 3/4 of the
        reference work."""
        lo, hi = np.searchsorted(self.t, t0, "left"), np.searchsorted(self.t, t1, "right")
        if hi - lo < MIN_PROBES:
            k = min(MIN_PROBES, len(self.t))
            if k == 0:
                raise RuntimeError("no host probes")
            mid = int(np.searchsorted(self.t, (t0 + t1) / 2))
            hi = min(len(self.t), max(mid + k // 2 + 1, k))
            lo = hi - k
        return (hi - lo) / (self.cum[hi] - self.cum[lo])


class HostMonitor:
    """The probing sidecar.  Times are ``time.monotonic()`` readings,
    which every process on the host shares."""

    def __init__(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.unlink(missing_ok=True)
        self.path = path
        self.proc = subprocess.Popen([sys.executable, __file__, str(path)])
        try:
            deadline = time.monotonic() + 60.0
            while not self._probes():
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("host monitor did not start")
                time.sleep(PROBE_EVERY_S)
        except BaseException:
            self.close()
            raise

    def _probes(self) -> list[tuple[float, float]]:
        if not self.path.exists():
            return []
        lines = self.path.read_text().splitlines()
        return [(float(t), float(p)) for t, p in (ln.split() for ln in lines if ln.endswith("\t"))]

    def speeds(self) -> SpeedLog:
        """The probes so far."""
        return SpeedLog(self._probes())

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.path.unlink(missing_ok=True)

    def __enter__(self) -> HostMonitor:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def main(path: str) -> None:
    parent = os.getppid()
    with open(path, "a") as fh:
        while os.getppid() == parent:  # ends with the benchmark
            time.sleep(PROBE_EVERY_S)
            t = time.monotonic()
            probe = cpu_probe()
            # the tab ends a complete line; a reader may see a partial one
            fh.write(f"{(t + time.monotonic()) / 2:.6f} {probe:.9f}\t\n")
            fh.flush()


if __name__ == "__main__":
    main(sys.argv[1])
