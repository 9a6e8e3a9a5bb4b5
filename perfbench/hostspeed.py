"""Host-speed reference: a fixed kernel timed between ops.

The benchmark's host is a shared VM whose speed moves by up to 2x, in states
lasting from a fraction of a second to minutes (README, "Host-speed scaling"). Wall
times taken there follow the host as much as the code. So the timed loop also
times a fixed small kernel, at most every SAMPLE_EVERY_NS of wall time and
between ops: a Python loop and a dict update over 200 ints, a 24x24 matmul
and a few Jacobi-style rotation steps on rows of 24 floats, the kind of work
the solvers do. Wall time between two samples is scaled by
REF_NS over the kernel's time around it, that is the running median of SMOOTH
samples interpolated at the gap's midpoint, and the samples' own time is left
out. A scaled time reads as the time the same work takes on a host where the
kernel takes REF_NS.
"""
from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

REF_NS = 100_000            # nominal kernel time that scaled times refer to
SAMPLE_EVERY_NS = 5_000_000
SMOOTH = 5                  # samples in the running median

_INTS = list(range(200))
_MAT = np.random.default_rng(0).standard_normal((24, 24))


def kernel() -> int:
    acc = 0
    for i in _INTS:
        acc += i * i % 7
    counts: dict = {}
    for i in _INTS:
        counts[i & 31] = counts.get(i & 31, 0) + 1
    _MAT @ _MAT
    # The small-array numpy calls of symmetric.symmetric_eig's rotations.
    for p in range(6):
        rp, rq = _MAT[p, :].copy(), _MAT[p + 1, :].copy()
        theta = (_MAT[p, p] - _MAT[p + 1, p + 1]) / (2.0 * _MAT[p, p + 1])
        t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
        cos = 1.0 / np.sqrt(t * t + 1.0)
        cos * rp - t * cos * rq
    return acc + len(counts)


class HostSpeed:
    """Kernel samples taken during one timed region."""

    def __init__(self):
        self.samples: list[tuple[int, int]] = []   # (start_ns, end_ns)
        self._due = 0

    def sample(self) -> None:
        start = perf_counter_ns()
        kernel()
        end = perf_counter_ns()
        self.samples.append((start, end))
        self._due = end + SAMPLE_EVERY_NS

    def between_ops(self) -> None:
        """Take a sample if one is due."""
        if perf_counter_ns() >= self._due:
            self.sample()

    def scaled(self, starts, ends) -> np.ndarray:
        """Scaled ns of the intervals [starts, ends), less the samples that
        fall inside them. Each gap between two samples is scaled by REF_NS
        over the smoothed kernel time at its midpoint."""
        took = np.array([b - a for a, b in self.samples], dtype=float)
        half = SMOOTH // 2
        smooth = np.array([np.median(took[max(0, i - half):i + half + 1])
                           for i in range(len(took))])
        at = np.array([(a + b) / 2 for a, b in self.samples])
        gap_start = np.array([b for _, b in self.samples[:-1]], dtype=float)
        gap_end = np.array([a for a, _ in self.samples[1:]], dtype=float)
        gap = (gap_end - gap_start) * REF_NS / np.interp(
            (gap_start + gap_end) / 2, at, smooth)
        # Scaled time elapsed at the start and end of every sample.
        knots = np.array(self.samples, dtype=float).ravel()
        clock = np.repeat(np.concatenate([[0.0], np.cumsum(gap)]), 2)
        return (np.interp(np.asarray(ends, dtype=float), knots, clock)
                - np.interp(np.asarray(starts, dtype=float), knots, clock))

    def scaled_region(self) -> float:
        """Scaled ns from the first sample to the last, less the samples."""
        return float(self.scaled([self.samples[0][0]],
                                 [self.samples[-1][1]])[0])

    def median_ns(self) -> float:
        return float(np.median([b - a for a, b in self.samples]))


@contextmanager
def sampling_before(host, module, name, enabled=True):
    """Rebind module.<name> so that a host sample, when due, precedes each
    call; restore it on exit. Does nothing unless `enabled`."""
    if not enabled:
        yield
        return
    original = getattr(module, name)

    def sampled(*args, **kwargs):
        host.between_ops()
        return original(*args, **kwargs)

    setattr(module, name, sampled)
    try:
        yield
    finally:
        setattr(module, name, original)
