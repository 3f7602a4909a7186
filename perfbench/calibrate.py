"""Host-speed reference kernel, run in its own process.

    python3 perfbench/calibrate.py

For every line read from standard input it runs a fixed numpy kernel and
writes the kernel's time in ms as one line; it exits at end of input. The
kernel does not use drapefit, and it runs in a process of its own, so that
its heap and page faults are its own, not the benchmark's.
"""

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
from scipy.spatial import cKDTree

WARMUP = 3  # kernel runs before the first request, so no reply is cold


def make_kernel():
    """A fixed mix of seven kinds of work, each taking a roughly equal share
    of the time, so that no one kind of contention on a shared host sets the
    kernel's speed alone: a small BLAS matmul, a latency-bound gather and
    sort, a scatter-add, a memory stream, a KD-tree search, small-array
    numpy calls and plain interpreted Python."""
    rng = np.random.default_rng(20231127)
    rows = rng.random((16384, 64), dtype=np.float32)
    weights = rng.random((64, 64), dtype=np.float32)
    values = rng.random(1 << 20)
    index = rng.integers(0, 1 << 20, 1 << 18)
    bins = index & 0xFFFF
    tree = cKDTree(rng.random((10242, 3)))
    queries = rng.random((4096, 3))
    a, b, c, d = (rng.random((4096, 3)) for _ in range(4))

    def small_arrays():
        for _ in range(12):
            n = np.linalg.norm(a - b, axis=1)
            s = np.einsum("ij,ij->i", c, d) + n
            np.clip(s, 0.0, 1.0, out=s)
            (a[:, None, :] * b[:, :, None]).sum()

    def interpreted():
        total = 0
        for i in range(45000):
            total += i * i % 7
        return total

    def one_pass():
        for _ in range(2):
            (rows @ weights).sum()
        np.sort(values[index])
        for _ in range(6):
            np.add.at(np.zeros(1 << 16), bins, 1.0)
        for _ in range(2):
            (values * 2.0 + 1.0).sum()
        tree.query(queries, k=1)
        small_arrays()
        interpreted()

    def kernel() -> float:
        """Run the kernel once; returns its time in ms. An untimed first
        pass brings the data into cache, so the time does not depend on
        what ran on the host before."""
        one_pass()
        t0 = time.perf_counter()
        one_pass()
        return (time.perf_counter() - t0) * 1000.0

    return kernel


def main() -> int:
    kernel = make_kernel()
    for _ in range(WARMUP):
        kernel()
    for _ in sys.stdin:
        print(f"{kernel():.6f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
