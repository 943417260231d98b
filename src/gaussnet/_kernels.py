"""Hot sweep kernel: one flat table lookup per (fault set, node).

Inputs, from trees.reach_tables(k):

  B       uint8[n, n]   B[u, v]: trees whose root path to v contains u
  LUT     uint8[n, 16]  LUT[v, mask]: best depth of v avoiding trees in mask
  faults  int[m, f]     node indices of each fault combination

It returns, for each combination, 1 + the worst first-receipt round over
live nodes.  Faulty nodes (B[v, v] == 15) and the root read 0, so they drop
out of the maximum without a separate step.

The lookup is a flat gather: 16 v | mask is v's entry in LUT.ravel(), so one
1-D `take` reads every node, where LUT[np.arange(n), blocked] would be a
slower 2-D fancy index.  The fault rows are ORed as uint8 and widened once,
to the smallest unsigned dtype that holds 16 n (uint16 up to k = 44).
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
