"""Plain oracles the tests share: tables too large or too slow for the package."""

import numpy as np

from gaussnet import trees


def reach_tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(B, LUT) over the residues: B[u, v] (uint8) is a 4-bit mask, bit j-1
    for tree j, of the trees whose root path to v contains u; both endpoints
    count, so B[v, v] == 15.  B is read from root_paths' P, one ancestor row
    at a time, and LUT is root_paths' own.  Under fault set F node v first
    receives in round LUT[v, OR_{u in F} B[u, v]], and a faulty v reads 0.

    Not cached, and read through trees.root_paths, so forged trees reach it;
    B takes n^2 bytes, so it is for the small k of the tests.
    """
    P, _, LUT = trees.root_paths(k)
    n = P.shape[2]
    cols = np.arange(n)
    B = np.zeros((n, n), dtype=np.uint8)
    flat = B.reshape(-1)  # a view: a 1-D index is cheaper than B[anc, cols]
    for j in range(4):
        for anc in P[j]:
            flat[anc.astype(np.intp) * n + cols] |= 1 << j
    return (*trees._shared(B), LUT)
