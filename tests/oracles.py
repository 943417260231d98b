"""Plain oracles the tests share: tables too large or too slow for the package,
and the per-node forms of quantities the package reads from per-k tables."""

import numpy as np

from gaussnet import trees
from gaussnet.core import (
    DIRECTIONS,
    ORIGIN_REGION,
    REGIONS,
    ZERO,
    GaussInt,
    Region,
    RegionClass,
    distances_from,
    is_canonical,
    network,
    reduce,
    region_codes,
    rho,
)


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


def region_parent_map(j: int, k: int) -> dict[GaussInt, tuple[GaussInt, GaussInt]]:
    """Parent pointers of tree j materialised from the region table alone."""
    trees._check_tree_k(k)
    up = [None, *(trees.parent_child_spec(reg, j)[0] for reg in REGIONS[1:])]  # by region code
    return {v: (reduce(v + up[c], k), up[c])
            for v, c in zip(network(k).nodes[1:], region_codes(k)[1:].tolist())}


def neighbors(v: GaussInt, k: int) -> list[GaussInt]:
    """The four neighbours of v, reduced to canonical form, in +1,-1,+i,-i order."""
    return [reduce(v + d, k) for d in DIRECTIONS]


def bfs_distance(u: GaussInt, v: GaussInt, k: int) -> int:
    """Graph distance between canonical u and v."""
    if not is_canonical(u, k) or not is_canonical(v, k):
        raise ValueError("nodes must be canonical")
    if u == v:
        return 0
    return distances_from(u, k)[v]


def _wedge_class(v: GaussInt, k: int) -> RegionClass | None:
    """Class of v within the first-quadrant wedge {x >= 1, y >= 0, x+y <= k}."""
    x, y = v.x, v.y
    if y == 0:
        if x == 1:
            return RegionClass.S
        if 1 < x < k:
            return RegionClass.B
        if x == k:
            return RegionClass.P
    elif y == 1 and 0 < x < k:
        return RegionClass.R
    elif y > 1 and x > 0 and x + y <= k:
        return RegionClass.Q
    return None


def classify(v: GaussInt, k: int) -> Region:
    """The unique region containing canonical v, one node at a time, by
    rotating v into quadrant 1 (core.region_codes is the table it checks);
    rejects non-canonical input."""
    if not is_canonical(v, k):
        raise ValueError(f"{v} is not canonical for k={k}")
    if v == ZERO:
        return ORIGIN_REGION
    for q in range(4):
        cls = _wedge_class(rho(v, -q), k)
        if cls is not None:
            return Region(cls, q + 1)
    raise AssertionError(f"{v} not covered by any region (k={k})")
