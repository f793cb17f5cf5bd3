"""A fixed reference workload that measures how fast the machine is running.

On a shared virtual machine the speed at which the same code runs drifts by
a quarter or more over tens of seconds, as neighbours load the host's caches
and memory.  Raw CPU times then differ as much between two runs of one
commit as a real regression would.  The benchmark therefore times this
kernel at intervals through every run and scales its times by
REFERENCE_NS / (median kernel time): a run on a slowed machine has a slower
kernel, and its times are scaled down to match.  Samples are kept per phase,
because the speed drifts within a run too: set-up and open times are scaled
by the samples taken around them, query times by those taken among them.

The kernel is frozen here and shares no code with hubpath, so no change to
the library changes it.  It mixes the two kinds of work hubpath does: a
level-synchronous BFS built from small NumPy operations, and a byte-at-a-time
Python hash, in about equal parts.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median kernel time on the machine the baseline was measured on
REFERENCE_NS = 8_000_000

_N = 3000
_SOURCES = (0, 1500)
_BYTES = 24 * 1024


def _graph():
    rng = np.random.Generator(np.random.PCG64([2013, 507]))
    src = rng.integers(0, _N, 4 * _N)
    dst = (src + 1 + rng.integers(0, _N - 1, 4 * _N)) % _N
    src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    order = np.lexsort((dst, src))
    offsets = np.zeros(_N + 1, np.int64)
    np.cumsum(np.bincount(src, minlength=_N), out=offsets[1:])
    return offsets, dst[order]


def _bfs(offsets, targets, source):
    level = np.full(_N, -1, np.int32)
    level[source] = 0
    frontier = np.array([source], np.int64)
    for depth in range(6):
        starts = offsets[frontier]
        counts = offsets[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        shift = np.concatenate(([0], np.cumsum(counts)[:-1]))
        dsts = targets[np.arange(total) + np.repeat(starts - shift, counts)]
        srcs = np.repeat(frontier, counts)
        fresh = level[dsts] < 0
        dsts, srcs = dsts[fresh], srcs[fresh]
        if dsts.size == 0:
            break
        dsts = dsts[np.lexsort((srcs, dsts))]
        first = np.ones(dsts.size, bool)
        first[1:] = dsts[1:] != dsts[:-1]
        frontier = dsts[first]
        level[frontier] = depth + 1
    return level


def _hash(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class Calibration:
    """Times the reference kernel on demand and turns the samples into speed factors."""

    def __init__(self):
        self.offsets, self.targets = _graph()
        self.data = np.random.Generator(np.random.PCG64(1305)).bytes(_BYTES)
        self.samples_ns = {}

    def sample(self, phase, count=1):
        for _ in range(count):
            t0 = time.thread_time_ns()
            for s in _SOURCES:
                _bfs(self.offsets, self.targets, s)
            _hash(self.data)
            self.samples_ns.setdefault(phase, []).append(time.thread_time_ns() - t0)

    def slowdown(self, phase):
        """Median kernel time in a phase over REFERENCE_NS: above 1 when the machine runs slow."""
        return statistics.median(self.samples_ns[phase]) / REFERENCE_NS
