"""Row gathers, row scatters and row blocks: the one implementation of each on every hot path.

The gather and the scatter work on rows (axis 0) and give the same bits as
their fancy-index forms ``a[rows]`` and ``np.add.at(out, rows, vals)``,
through numpy paths that are several times faster on multi-dimensional
arrays. ``row_blocks`` splits a long batch of independent rows into
cache-sized slices, and ``map_blocks`` runs a function on those slices
across the process's CPUs. The slices depend on the row count alone, never
on the worker count, so the mapped result is the same bits on any machine.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

# Rows per block of ``row_blocks``. A block of 8192 rows keeps a 64-wide
# float32 activation at 2 MiB, the size of one core's L2. It is also a floor:
# OpenBLAS rounds a product of M·N·K <= 1e6 on its small-matrix path, which
# for the 64 -> 3 output layer is any block of 5208 rows or fewer, so a block
# must never shrink towards that size.
ROW_BLOCK = 8192

# Workers of the ``map_blocks`` pool: the CPUs this process may run on, read
# once at import. The pool starts its threads on first use.
POOL_SIZE = len(os.sched_getaffinity(0))

_worker = threading.local()


def _mark_worker():
    _worker.active = True


_POOL = ThreadPoolExecutor(
    max_workers=POOL_SIZE, thread_name_prefix="drapefit-rows", initializer=_mark_worker
)


def gather_rows(a: np.ndarray, rows) -> np.ndarray:
    """Rows ``a[rows]`` along axis 0 for an integer index array of any shape.

    A gather is a copy, so the result equals ``a[rows]`` bit for bit.
    Negative indices count from the end and out-of-range ones raise
    ``IndexError``, as with fancy indexing. The gather runs through
    ``np.take``, which on arrays of two or more dimensions is several times
    faster than fancy indexing. A non-integer index raises ``TypeError``,
    because ``take`` would read a bool mask as row numbers 0 and 1.
    """
    rows = np.asarray(rows)
    if rows.dtype.kind not in "iu":
        raise TypeError(f"row indices must be integers, not {rows.dtype}")
    return np.take(a, rows, axis=0)


def scatter_add_rows(out: np.ndarray, rows, vals) -> None:
    """Add ``vals[i]`` to row ``rows[i]`` of ``out`` for every index, repeats included.

    The rows are those of ``out`` viewed as (-1, out.shape[-1]); ``vals`` has
    shape ``rows.shape + (out.shape[-1],)`` or broadcasts to it. The result
    equals ``np.add.at(out2d, rows, vals)`` bit for bit: each element receives
    its additions in the same order and dtype. The scatter runs on flattened
    element indices, numpy's fast one-dimensional ``ufunc.at`` path.
    """
    width = out.shape[-1]
    flat = out.reshape(-1)  # a view when out is C-contiguous, else a copy
    idx = rows[..., None] * width + np.arange(width)
    np.add.at(flat, idx.ravel(), np.broadcast_to(vals, idx.shape).ravel())
    if not out.flags.c_contiguous:
        out[...] = flat.reshape(out.shape)


def row_blocks(n: int):
    """Consecutive slices that cover ``range(n)``, each ``ROW_BLOCK`` rows long.

    The remainder is folded into the last slice, so every slice has between
    ``ROW_BLOCK`` and ``2 * ROW_BLOCK - 1`` rows, and a batch of fewer than
    ``2 * ROW_BLOCK`` rows (``n = 0`` included) is one slice. No slice is ever
    shorter than ``min(n, ROW_BLOCK)``.
    """
    count = max(1, n // ROW_BLOCK)
    for k in range(count):
        yield slice(k * ROW_BLOCK, n if k == count - 1 else (k + 1) * ROW_BLOCK)


def map_blocks(fn, n: int) -> None:
    """Call ``fn(rows)`` for every slice ``rows`` of ``row_blocks(n)``; return when all are done.

    ``fn`` must write only the rows it is given, so the slices may run in any
    order and at once: they run on the module's thread pool of ``POOL_SIZE``
    workers. They run inline, in order, on the calling thread when there is one slice,
    when ``POOL_SIZE`` is 1, or when the caller is itself a pool worker, so a
    nested call can never wait on its own pool. An exception raised by any
    slice reaches the caller once every slice has finished; the first in
    slice order wins.
    """
    blocks = list(row_blocks(n))
    if len(blocks) == 1 or POOL_SIZE == 1 or getattr(_worker, "active", False):
        for rows in blocks:
            fn(rows)
        return
    futures = [_POOL.submit(fn, rows) for rows in blocks]
    wait(futures)
    for future in futures:
        future.result()
