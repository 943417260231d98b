"""Hot sweep kernel: one table lookup per (fault set, node).

Inputs, from trees.reach_tables(k):

  B       uint8[n, n]   B[u, v]: trees whose root path to v contains u
  LUT     uint8[n, 16]  LUT[v, mask]: best depth of v avoiding trees in mask
  faults  int64[m, f]   node indices of each fault combination

It returns, for each combination, 1 + the worst first-receipt round over
live nodes.  Faulty nodes (B[v, v] == 15) and the root read 0, so they drop
out of the maximum without a separate step.
"""

from __future__ import annotations

import numpy as np


def active_engine() -> str:
    """Name of the sweep kernel, recorded with every result."""
    return "lut"


def sweep_rounds(B: np.ndarray, LUT: np.ndarray, faults: np.ndarray) -> np.ndarray:
    """1 + max_v LUT[v, OR_q B[faults[:, q], v]] for every row of faults."""
    blocked = np.zeros((len(faults), len(B)), dtype=np.uint8)
    for q in range(faults.shape[1]):
        blocked |= B[faults[:, q]]
    return LUT[np.arange(len(B)), blocked].max(axis=1) + 1
