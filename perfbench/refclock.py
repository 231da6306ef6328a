"""Times in seconds at a fixed reference speed of the machine.

The benchmark runs on a few cores of a shared host whose speed changes by
tens of percent over seconds to minutes, in CPU time as much as in wall
time.  So the measured process also times a small fixed pure-Python kernel,
once before and once after every operation and, from a ``SIGALRM`` timer,
every ``INTERVAL_S`` while the operation runs.  A stretch of an operation
between two kernel runs is divided by the mean duration of the ``2 * WINDOW``
runs around it and multiplied by ``NOMINAL_S``, a fixed typical duration of
the kernel; kernel runs inside an operation are left out of its time.  Raw
times are kept alongside.

The kernel is plain Python, so it can run before ``numpy`` and ``reachsep``
are imported and the set-up time is measured the same way.  Nothing it
touches belongs to the program under test, so a change of the program moves
the operation times, not the kernel's.
"""

import signal
import statistics
import time

clock = time.perf_counter

INTERVAL_S = 0.1
COLD_RUNS = 1  # the first kernel run of a process is slower than the rest
WINDOW = 5  # kernel runs on each side of a stretch whose mean duration scales it
NOMINAL_S = 0.007  # duration of one kernel run at reference speed
KERNEL_ROUNDS = 600


def kernel(rounds: int = KERNEL_ROUNDS) -> float:
    """Fixed interpreter work: a 6x6 matrix-vector product per round."""
    m = [[(i * 7 + j * 3) % 11 / 11.0 for j in range(6)] for i in range(6)]
    v = [1.0] * 6
    for _ in range(rounds):
        w = [sum(a * b for a, b in zip(row, v)) for row in m]
        s = max(abs(x) for x in w)
        v = [x / s for x in w]
    return v[0]


class RefClock:
    """Kernel runs as (start, end) pairs, and the alarm that adds them."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.runs: list[tuple[float, float]] = []
        self._armed = False

    def sample(self) -> None:
        start = clock()
        kernel()
        self.runs.append((start, clock()))

    def _on_alarm(self, signum, frame):
        self.sample()
        if self._armed:  # one-shot, re-armed, so alarms never queue up
            signal.setitimer(signal.ITIMER_REAL, self.interval)

    def start(self) -> None:
        """Run the kernel once cold (left out of the speed), once warm, then on alarm."""
        signal.signal(signal.SIGALRM, self._on_alarm)
        self._armed = True
        self.sample()
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def stop(self) -> None:
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def span(self, a: float, b: float) -> tuple[float, float]:
        """(raw, reference-speed) seconds of [a, b] outside the kernel runs."""
        return span_times(self.runs, a, b, cold=COLD_RUNS)


def span_times(runs, a: float, b: float, cold: int = 0,
               window: int = WINDOW) -> tuple[float, float]:
    """(raw, reference-speed) seconds of [a, b] outside the kernel runs.

    ``runs`` are the kernel's (start, end) pairs in time order; the first
    ``cold`` of them ran in a fresh process and are left out of the speed.
    Each stretch of [a, b] between two kernel runs is scaled by ``NOMINAL_S``
    over the mean duration of the ``2 * window`` runs around it.
    """
    durations = [end - start for start, end in runs]
    raw = norm = 0.0
    for i in range(len(runs) + 1):
        lo = max(runs[i - 1][1], a) if i else a
        hi = min(runs[i][0], b) if i < len(runs) else b
        if hi <= lo:
            continue
        speed = statistics.mean(durations[max(i - window, cold):max(i + window, cold + 1)])
        raw += hi - lo
        norm += (hi - lo) * NOMINAL_S / speed
    return raw, norm
