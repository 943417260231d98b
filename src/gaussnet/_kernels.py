"""Sweep kernels.

sweep_rounds, the tests' oracle, which no sweep calls: one flat table lookup
per (fault set, node).  Inputs, from the tests' oracle in tests/oracles.py:

  B       uint8[n, n]   B[u, v]: trees whose root path to v contains u
  LUT     value[n, 16]  LUT[v, mask]: best depth of v avoiding trees in mask
  faults  int[m, f]     node indices of each fault combination

It returns, for each combination, 1 + the worst first-receipt round over
live nodes.  Faulty nodes (B[v, v] == 15) and the root read 0, so they drop
out of the maximum without a separate step.  The lookup is a flat gather:
16 v | mask is v's entry in LUT.ravel(), so one 1-D `take` reads every node,
where LUT[np.arange(n), blocked] would be a slower 2-D fancy index.  The
fault rows are ORed as uint8 and widened once, to the smallest unsigned
dtype that holds 16 n (uint16 up to k = 44).  value is root_paths' value dtype.

triple_counts, for exhaustive f = 3 cells: a slab pass over every fault
triple of the pair table trees.fault_pairs(k)[1], one middle fault at a time.
"""

from __future__ import annotations

import numpy as np


def active_engine() -> str:
    """Name of the sweep kernel, recorded with every result."""
    return "lut"


def sweep_rounds(B: np.ndarray, LUT: np.ndarray, faults: np.ndarray) -> np.ndarray:
    """1 + max_v LUT[v, OR_q B[faults[:, q], v]] for every row of faults."""
    (m, f), n = faults.shape, len(B)
    blocked = B[faults[:, 0]] if f else np.zeros((m, n), dtype=np.uint8)
    for q in range(1, f):
        blocked |= B[faults[:, q]]
    base = np.arange(0, 16 * n, 16, dtype=np.min_scalar_type(16 * n - 1))
    return LUT.ravel().take(base | blocked).max(axis=1) + 1


def triple_counts(W: np.ndarray, size: int) -> np.ndarray:
    """counts[w], w < size: the a < b < c in 1..n-1 with max(W[a, b], W[a, c],
    W[b, c]) == w, for a symmetric W of root_paths' value dtype.

    The triples with middle element b are the rectangle a in 1..b-1 by c in
    b+1..n-1, the block W[1:b, b+1:] maxed with column b and row b of W.
    Consecutive rectangles fill a buffer of at least 2^14 cells, counted by
    one bincount (which copies it as intp) when the next would not fit.
    """
    n = len(W)
    counts = np.zeros(size, dtype=np.int64)
    buf = np.empty(max(1 << 14, (n - 2) ** 2 // 4), dtype=W.dtype)
    used = 0
    for b in range(2, n - 1):
        cells = (b - 1) * (n - 1 - b)
        if used + cells > len(buf):
            counts += np.bincount(buf[:used], minlength=size)
            used = 0
        rect = buf[used:used + cells].reshape(b - 1, n - 1 - b)
        np.maximum(W[1:b, b + 1:], W[1:b, b, None], out=rect)
        np.maximum(rect, W[b, b + 1:], out=rect)
        used += cells
    return counts + np.bincount(buf[:used], minlength=size)
