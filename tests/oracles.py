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
    node_count,
    reduce,
    region_codes,
    residue,
    rho,
)


def reach_tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(B, LUT) over the residues: B[u, v] (uint8) is a 4-bit mask, bit j-1
    for tree j, of the trees whose root path to v contains u; both endpoints
    count, so B[v, v] == 15.  B is read from trees._ancestor_blocks, one
    ancestor row of a block at a time, and LUT is root_paths' own.  Under
    fault set F node v first receives in round LUT[v, OR_{u in F} B[u, v]],
    and a faulty v reads 0.

    Not cached, and read through trees.root_paths, so forged trees reach it;
    B takes n^2 bytes, so it is for the small k of the tests.
    """
    LUT = trees.root_paths(k)[1]
    n = len(LUT)
    B = np.zeros((n, n), dtype=np.uint8)
    flat = B.reshape(-1)  # a view: a 1-D index is cheaper than B[anc, cols]
    for lo, A in trees._ancestor_blocks(k, np.arange(n)):
        cols = np.arange(lo, lo + A.shape[2])
        for j in range(4):
            for anc in A[j]:
                flat[anc * n + cols] |= 1 << j
    return (*trees._shared(B), LUT)


def children_by_lists(k: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """trees._children(k) built one list per node: each node of each parent
    row appended to its parent's list, in residue order."""
    n = node_count(k)
    out = [[[] for _ in range(n)] for _ in range(4)]
    for j, row in enumerate(trees.parent_rows(k).tolist()):
        for i, p in enumerate(row[1:], start=1):
            out[j][p].append(i)
    return tuple(tuple(map(tuple, tree)) for tree in out)


def run_by_dict(config) -> tuple[dict[GaussInt, int], int, tuple[int, ...]]:
    """simulator.run's rounds as a dict: (first_receipt, last_active_round,
    messages_per_round), first_receipt keyed in order of first receipt.

    The round loop probes a fault set and a dict of first rounds for every
    child, and the messages are counted from the receipts after the loop.
    Reads trees._children through the module, so forged trees reach it.
    """
    k = config.k
    nodes = network(k).nodes
    n, r_root = len(nodes), residue(config.root, k)
    faults = {(residue(f, k) - r_root) % n for f in config.faults}
    children = trees._children(k)
    first_rel: dict[int, int] = {0: 0}
    frontiers: list[list[int]] = [[0], [0], [0], [0]]
    rnd = 0
    while any(frontiers):
        rnd += 1
        for j in range(4):
            tree, nxt = children[j], []
            for u in frontiers[j]:
                for c in tree[u]:
                    if c in faults:
                        continue
                    nxt.append(c)
                    if c not in first_rel:  # rounds only grow
                        first_rel[c] = rnd
            frontiers[j] = nxt
    reached_rounds = [r for i, r in first_rel.items() if i]
    last_active = (max(reached_rounds) + 1) if reached_rounds else 1
    messages_per_round = [0] * (last_active + 1)
    messages_per_round[1] = 4
    for r in reached_rounds:
        messages_per_round[r + 1] += 3
    first_receipt = {nodes[(i + r_root) % n]: r for i, r in first_rel.items()}
    return first_receipt, last_active, tuple(messages_per_round[1:])


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
