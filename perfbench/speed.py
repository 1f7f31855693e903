"""Machine-speed probe: a fixed reference kernel sampled every 0.25 s of wall time.

On a shared host the core's speed drifts by up to ~1.6x within seconds and
between minutes, for interpreter, small-array and BLAS work alike. The probe
runs a fixed kernel from a SIGALRM handler on the client thread, so samples
fall uniformly in time and inside long operations. Each operation's time is
then expressed at the reference speed, where the kernel takes its fast-phase
time on the reference machine (a 2-core Xeon VM, OpenBLAS on one thread):

    normalized = (raw - probe time inside the op) * reference_s / local kernel time

where the local kernel time is the mean of the samples taken during the
operation or within WINDOW_S of it.

Work slows down by different factors, so each workload uses the kernel that
resembles its dominant work: `mixed` (interpreter loop, small arrays, BLAS,
and the small scipy.special calls the RDP accountant makes) for fits and
sweeps, `query` (small per-query calls and ensemble votes) for serving.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np
from scipy.special import gammaln, logsumexp

INTERVAL_S = 0.25
WINDOW_S = 0.25

_rng = np.random.default_rng(0)
_ENSEMBLE = _rng.standard_normal((256, 50, 10))
_QUERY = _rng.standard_normal(50)
_QUERIES = _rng.standard_normal((300, 50)) / 10
_ROWS = _rng.standard_normal((10_000, 50))
_THETA = _rng.standard_normal((50, 10))
_KS = np.arange(41)


def mixed_kernel():
    """Interpreter loop, small-array calls, BLAS and binomial log-sums, as in the
    solvers, the DP-SGD calibration and the sweeps."""
    total = 0.0
    for i in range(15_000):
        total += i * 0.5
    for _ in range(12):
        np.einsum("d,tdc->tc", _QUERY, _ENSEMBLE).argmax(axis=1)
    for _ in range(2):
        _ROWS @ _THETA
    for order in range(2, 40, 2):
        k = _KS[: order + 1]
        total += float(logsumexp(gammaln(order + 1) - gammaln(k + 1) - gammaln(order - k + 1)
                                 + k * 0.01 + (k * k - k) / 3.0))
    return total


def query_kernel():
    """The shape of one noisy-logit query, 300 times (checks, a mat-vec, noise,
    argmax), then 12 ensemble votes of one row, as in the serving rounds."""
    for row in _QUERIES:
        x = np.asarray(row, dtype=np.float64)
        np.linalg.norm(x)
        logits = _THETA.T @ x + 0.1 * _rng.standard_normal(10)
        int(np.argmax(logits))
    for _ in range(12):
        np.einsum("d,tdc->tc", _QUERY, _ENSEMBLE).argmax(axis=1)


# name -> (kernel, its fast-phase time in seconds on the reference machine)
KERNELS = {"mixed": (mixed_kernel, 0.0058), "query": (query_kernel, 0.0031)}


class SpeedProbe:
    """Samples one of KERNELS on a wall-clock timer while installed."""

    def __init__(self, kernel: str = "mixed"):
        self.kernel, self.reference_s = KERNELS[kernel]
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.kernel()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)
        return False

    def normalize(self, start: float, seconds: float) -> float:
        """An operation's time at the reference speed (see the module docstring)."""
        end = start + seconds
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        inside = sum(self.durations[first:last])
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_left(self.starts, end + WINDOW_S)
        if hi > lo:
            local = sum(self.durations[lo:hi]) / (hi - lo)
        else:  # no sample near the operation: take the nearest one
            nearest = min(range(len(self.starts)), key=lambda k: abs(self.starts[k] - start))
            local = self.durations[nearest]
        return max(seconds - inside, 0.0) * self.reference_s / local
