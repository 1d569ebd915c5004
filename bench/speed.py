"""Reference kernel that makes timings comparable on a shared machine.

The machine this benchmark was defined on shares its cores: the same pass
runs up to 1.6 times slower while a neighbour is busy, for seconds at a
time, and the raw wall time of one run spreads by 25 % across runs.  So every
timed interval is divided by the time of this fixed kernel, run just before
and just after it, and multiplied by the kernel's nominal time: timings are
seconds at the speed at which the kernel takes KERNEL_NOMINAL_S.  Nothing in
heatlab runs in the kernel, so a change to heatlab cannot move it.  Set-up
times are the exception and stay raw (see ``run.probe_seconds``).
"""

from time import perf_counter

import numpy as np

KERNEL_NOMINAL_S = 0.5e-3
_FIELD = np.linspace(0.0, 1.0, 65)


def reference_kernel() -> float:
    """Seconds for a fixed mix of interpreter loop and small numpy work."""
    a = _FIELD
    t0 = perf_counter()
    total = 0.0
    for i in range(3000):
        total += i * 0.5
    for _ in range(30):
        b = a[1:-1] + 0.3 * (a[:-2] - 2.0 * a[1:-1] + a[2:])
        total += float(np.max(np.abs(b)))
    return perf_counter() - t0


def normalise(seconds: float, before: float, after: float) -> float:
    """``seconds`` at nominal kernel speed, from kernel times around it."""
    return seconds * KERNEL_NOMINAL_S * 2.0 / (before + after)
