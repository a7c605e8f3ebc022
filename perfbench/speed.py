"""Machine-speed gauge for reference-speed timings.

On a shared host the processor's speed can change by up to a factor of two
within seconds (seen on a 2-vCPU Intel Xeon virtual machine), because other
tenants share it.  Raw wall times then vary more between runs than any
regression worth catching.  So the benchmark times a short fixed pure-Python
kernel before a command, every PERIOD_S seconds while it runs (from a SIGALRM
handler, in the same process and thread) and after it, and reports

    reference seconds = wall seconds * mean(REFERENCE_KERNEL_S / kernel time)

that is, the time the command would take on a machine that runs the kernel in
REFERENCE_KERNEL_S.  The kernel is the benchmark's own code, so no change to
cycproj changes its speed.  The time spent in the kernel is taken out of the
wall time, and raw wall times are kept in the detail record.
"""

from __future__ import annotations

import signal
import statistics
import time

REFERENCE_KERNEL_S = 0.003  # a constant; it sets the unit, not the comparison
PERIOD_S = 0.2

# sparse-polynomial evaluation and small-tuple churn, in the style of
# cycproj's pure-Python kernels
_TERMS = tuple(((i % 5, (i * 3) % 5), 1.0 + 0.1 * i) for i in range(12))
_POINTS = tuple((0.1 * k, 0.2 - 0.03 * k) for k in range(50))
_REPS = 30


def _kernel() -> list:
    out = []
    for _ in range(_REPS):
        for x0, x1 in _POINTS:
            total = 0.0
            for (e0, e1), c in _TERMS:
                t = c
                if e0:
                    t *= x0**e0
                if e1:
                    t *= x1**e1
                total += t
            out.append((total, x0, x1))
    return out


def _kernel_seconds() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def speed_factor(samples: int = 5) -> float:
    """Mean of REFERENCE_KERNEL_S / kernel time over ``samples`` timings."""
    return statistics.fmean(REFERENCE_KERNEL_S / _kernel_seconds() for _ in range(samples))


class _Sampler:
    def __init__(self):
        self.factors = []
        self.spent = 0.0

    def sample(self, *_signal_args):
        dt = _kernel_seconds()
        self.factors.append(REFERENCE_KERNEL_S / dt)
        self.spent += dt


def timed(fn):
    """Run ``fn()``; return (its result, wall seconds, reference seconds).

    The wall seconds exclude the kernel timings taken while ``fn`` runs.
    """
    sampler = _Sampler()
    sampler.sample()
    previous = signal.signal(signal.SIGALRM, sampler.sample)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    spent0 = sampler.spent
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        wall = time.perf_counter() - t0 - (sampler.spent - spent0)
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    sampler.sample()
    return result, wall, wall * statistics.fmean(sampler.factors)
