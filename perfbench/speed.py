"""Speed index of the shared machine, from fixed reference work.

The machine the benchmark runs on is shared: for minutes at a time another
tenant keeps the same cores busy, and then all work runs slower, set-up and
operations alike.  Such a phase can outlast a whole run, so no statistic
over the run's own repeats removes it.

The benchmark therefore times a fixed set of small kernels between its
operations.  They use only the standard library and numpy, never the
program, so no change to the program moves them.  The index is the
geometric mean, over the kernels, of each kernel's mean time in this run
divided by its mean time on the reference machine in a quiet phase.
Dividing a mean time measured over the same run by the index gives that
time at the reference machine's speed.  Both are means over the whole
run, so both see the same share of slow phases.
"""

from __future__ import annotations

import gc
import importlib
import math
import statistics
import sys
import time

import numpy as np

# Mean time of each kernel, in seconds, on the reference machine (2-vCPU
# shared x86-64 host, Python 3.11, numpy 2.4 on OpenBLAS, one BLAS thread)
# in a quiet phase.  They only set the scale: an index of 1 means this run
# found the machine as fast as that.
REFERENCE_S = {"python": 0.014, "import": 0.0033, "numpy": 0.0014, "stream": 0.0055}

# pure-Python standard library modules the benchmark and the program never load
IMPORTED = ("difflib", "configparser", "optparse", "calendar")


class SpeedIndex:
    """Times of fixed reference kernels, sampled between operations.

    The numpy kernels work in buffers allocated once, so how the program
    left the allocator does not change their speed.  The cyclic garbage
    collector is off while they run: a collection walks every object the
    process holds, so its cost would follow the program's heap.
    """

    def __init__(self):
        self.times = {name: [] for name in self.KERNELS}
        self._buffers = None

    def _python(self):
        """Interpreter work: arithmetic, dict updates and string formatting."""
        total, counts, parts = 0, {}, []
        for i in range(60_000):
            total += (i * 7) % 13
            counts[i % 97] = counts.get(i % 97, 0) + 1
            if i % 8 == 0:
                parts.append(f"{i},{total}")
        return len(",".join(parts))

    def _import(self):
        """Module loading, as the program's set-up does it."""
        for name in IMPORTED:
            sys.modules.pop(name, None)
        for name in IMPORTED:
            importlib.import_module(name)

    def _numpy(self):
        """numpy on cache-sized arrays: a small GEMM, logs and a sort."""
        x, w, y, column, _, _ = self._buffers
        np.matmul(x, w, out=y)
        np.log(y, out=y)
        np.copyto(column, y[:, 0])
        column.sort()

    def _stream(self):
        """numpy streaming through memory: 16 MB in, 16 MB out."""
        *_, a, b = self._buffers
        np.multiply(a, a, out=b)
        return float(b.sum())

    KERNELS = {"python": _python, "import": _import, "numpy": _numpy, "stream": _stream}

    def sample(self, repeats: int) -> None:
        if self._buffers is None:
            self._buffers = (np.linspace(0.1, 1.1, 320_000).reshape(20_000, 16),
                             np.linspace(0.1, 1.1, 256).reshape(16, 16),
                             np.empty((20_000, 16)), np.empty(20_000),
                             np.full(2_000_000, 1.0001), np.empty(2_000_000))
        collecting = gc.isenabled()
        gc.disable()
        try:
            for name, kernel in self.KERNELS.items():
                for _ in range(repeats):
                    start = time.perf_counter()
                    kernel(self)
                    self.times[name].append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()

    def value(self) -> float:
        """Geometric mean over kernels of mean time / reference time."""
        logs = [math.log(statistics.fmean(self.times[name]) / REFERENCE_S[name])
                for name in self.KERNELS]
        return math.exp(sum(logs) / len(logs))
