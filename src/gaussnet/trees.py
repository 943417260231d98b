"""The four node-independent spanning trees rooted at 0.

Tree 1 is built from the vertical edge set by removing three families and
adding three families of edges; trees 2..4 are its images under the quarter
turn rho.  Every root-to-node path in tree 1 also has a closed form as a
direction word, and each node's parent/child directions depend only on its
region, so the trees can be reconstructed from purely local data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .core import (
    DIRECTIONS,
    GaussInt,
    IMAG,
    ONE,
    Region,
    RegionClass,
    ZERO,
    classify,
    diamond_nodes,
    direction_name,
    format_node,
    is_canonical,
    network,
    node_count,
    reduce,
    rho,
)

import json

MIN_TREE_K = 2


@dataclass(frozen=True)
class SpanningTree:
    """Parent-pointer form of one spanning tree.

    parent maps every non-root node to (parent, direction), where direction
    is the unit step from child to parent: parent == reduce(child + direction).
    """

    index: int
    k: int
    root: GaussInt
    parent: Mapping[GaussInt, tuple[GaussInt, GaussInt]]

    def edges(self) -> frozenset[frozenset[GaussInt]]:
        return frozenset(frozenset((c, p)) for c, (p, _) in self.parent.items())

    def children(self) -> dict[GaussInt, list[GaussInt]]:
        """Child lists, each sorted lexicographically."""
        out: dict[GaussInt, list[GaussInt]] = {v: [] for v in self.parent}
        out[self.root] = []
        for c, (p, _) in self.parent.items():
            out[p].append(c)
        for lst in out.values():
            lst.sort(key=lambda v: (v.x, v.y))
        return out

    def path_to(self, v: GaussInt) -> list[GaussInt]:
        return tree_path(self, v)

    def depth(self, v: GaussInt) -> int:
        return len(tree_path(self, v)) - 1

    def to_json(self) -> str:
        rows = [
            {
                "node": {"x": c.x, "y": c.y},
                "parent": {"x": p.x, "y": p.y},
                "dir": direction_name(d),
            }
            for c, (p, d) in sorted(
                self.parent.items(), key=lambda item: (item[0].x, item[0].y)
            )
        ]
        return json.dumps({"j": self.index, "k": self.k, "parents": rows}, indent=2)

    def to_dot(self) -> str:
        lines = [f"digraph tree_{self.index}_k{self.k} {{"]
        for c, (p, _) in sorted(
            self.parent.items(), key=lambda item: (item[0].x, item[0].y)
        ):
            lines.append(f'  "{format_node(p)}" -> "{format_node(c)}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _check_tree_k(k: int) -> None:
    if k < MIN_TREE_K:
        raise ValueError(f"trees require k >= {MIN_TREE_K}, got {k}")


def tree1_edge_set(k: int) -> set[frozenset[GaussInt]]:
    """Edge set of tree 1.

    Start from all vertical edges (v, v+i mod alpha).  Remove the verticals
    rising from the non-negative imaginary axis (including the wraparound
    from ki to -k) and the verticals hanging one step below the non-positive
    real axis.  Add the real-axis spine (q, q+1), the re-entry horizontals
    (-1+qi, qi), and the +1 wraparound (k, ki).
    """
    _check_tree_k(k)
    edges: set[frozenset[GaussInt]] = set()
    for v in diamond_nodes(k):
        if v.x == 0 and 0 <= v.y <= k:
            continue
        if v.y == -1 and -k + 1 <= v.x <= 0:
            continue
        edges.add(frozenset((v, reduce(v + IMAG, k))))
    for q in range(k):
        edges.add(frozenset((GaussInt(q, 0), GaussInt(q + 1, 0))))
    for q in range(1, k):
        edges.add(frozenset((GaussInt(-1, q), GaussInt(0, q))))
    edges.add(frozenset((GaussInt(k, 0), GaussInt(0, k))))
    return edges


def _orient(k: int, index: int, edges: set[frozenset[GaussInt]]) -> SpanningTree:
    """Turn an edge set into parent pointers by search from the root."""
    n = node_count(k)
    if len(edges) != n - 1:
        raise AssertionError(f"tree {index}: {len(edges)} edges, expected {n - 1}")
    adj: dict[GaussInt, list[GaussInt]] = {}
    for e in edges:
        a, b = tuple(e)
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    parent: dict[GaussInt, tuple[GaussInt, GaussInt]] = {}
    frontier = [ZERO]
    seen = {ZERO}
    while frontier:
        nxt = []
        for p in frontier:
            for c in adj.get(p, ()):
                if c in seen:
                    continue
                seen.add(c)
                for d in DIRECTIONS:
                    if reduce(c + d, k) == p:
                        parent[c] = (p, d)
                        break
                else:
                    raise AssertionError(f"non-adjacent tree edge {c}..{p}")
                nxt.append(c)
        frontier = nxt
    if len(seen) != n:
        raise AssertionError(f"tree {index} is not spanning: reached {len(seen)}/{n}")
    return SpanningTree(index=index, k=k, root=ZERO, parent=parent)


@lru_cache(maxsize=64)
def build_tree1(k: int) -> SpanningTree:
    """Tree 1, oriented toward the root."""
    return _orient(k, 1, tree1_edge_set(k))


@lru_cache(maxsize=256)
def build_tree(j: int, k: int) -> SpanningTree:
    """Tree j = rho^(j-1) image of tree 1."""
    if j not in (1, 2, 3, 4):
        raise ValueError(f"tree index must be 1..4, got {j}")
    _check_tree_k(k)
    if j == 1:
        return build_tree1(k)
    t1 = build_tree1(k)
    parent = {
        rho(c, j - 1): (rho(p, j - 1), rho(d, j - 1))
        for c, (p, d) in t1.parent.items()
    }
    return SpanningTree(index=j, k=k, root=ZERO, parent=parent)


def tree_path(tree: SpanningTree, v: GaussInt) -> list[GaussInt]:
    """The unique root..v path, root first; at most 2k edges."""
    if not is_canonical(v, tree.k):
        raise ValueError(f"{v} is not canonical for k={tree.k}")
    path = [v]
    guard = 2 * tree.k + 1
    while path[-1] != tree.root:
        path.append(tree.parent[path[-1]][0])
        if len(path) > guard:
            raise AssertionError(f"parent chain from {v} exceeds height bound")
    path.reverse()
    return path


@lru_cache(maxsize=32)
def reach_tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Fault-reach tables over the indices of network(k).nodes.

    B[u, v] (uint8) is a 4-bit mask, bit j-1 for tree j, of the trees whose
    root path to v contains u; both endpoints count, so B[v, v] == 15.
    LUT[v, mask] (uint8) is the smallest depth of v among the trees not in
    mask, or 0 when all four are blocked; the root's row is 0.  Under fault
    set F node v first receives in round LUT[v, OR_{u in F} B[u, v]], and a
    faulty v reads 0.  k = 1 is the complete 5-node network: every root path
    is the single direct edge.
    """
    net = network(k)
    n = len(net)
    root = net.index(ZERO)
    cols = np.arange(n)
    B = np.zeros((n, n), dtype=np.uint8)
    depth = np.zeros((n, 4), dtype=np.uint8)
    for j in range(4):
        parent = np.full(n, root)
        if k > 1:
            for v, (p, _) in build_tree(j + 1, k).parent.items():
                parent[net.index(v)] = net.index(p)
        anc = cols
        while True:  # climb every node's root path one hop at a time
            B[anc, cols] |= 1 << j
            moving = anc != root
            if not moving.any():
                break
            depth[:, j] += moving
            anc = parent[anc]
    unreached = np.iinfo(np.uint8).max
    blocked = (np.arange(16)[:, None] >> np.arange(4)) & 1 == 1
    lut = np.where(blocked, unreached, depth[:, None, :]).min(axis=2)
    lut[lut == unreached] = 0
    lut = lut.astype(np.uint8)
    for table in (B, lut):  # shared through the cache
        table.setflags(write=False)
    return B, lut


# -- closed-form root paths for tree 1 ---------------------------------------

@dataclass(frozen=True)
class PathWord:
    """A root path as (direction, repetition) pairs."""

    steps: tuple[tuple[GaussInt, int], ...]

    def __str__(self) -> str:
        return " ".join(f"{direction_name(d)}^{n}" for d, n in self.steps if n)

    def length(self) -> int:
        return sum(n for _, n in self.steps)


def path_word(v: GaussInt, k: int) -> PathWord:
    """The direction word spelling the tree-1 path from 0 to v.

    Exactly one case applies to every non-root node.  The second horizontal
    case also covers d = 1 (node i), whose word 1^k (-i)^(k-1) 1 realises the
    tree height 2k alongside the path to -1.
    """
    _check_tree_k(k)
    if not is_canonical(v, k):
        raise ValueError(f"{v} is not canonical for k={k}")
    if v == ZERO:
        raise ValueError("the root has no path word")
    c, d = v.x, v.y
    R, U, D = ONE, IMAG, -IMAG
    if 1 <= c <= k - 1 and 1 <= d <= k - c:
        steps = ((R, c), (U, d))
    elif c == 0 and d == k:
        steps = ((R, k + 1),)
    elif c == 0 and 1 <= d <= k - 1:
        steps = ((R, k), (D, k - d), (R, 1))
    elif -k <= c <= -1 and 0 <= d <= k + c:
        steps = ((R, k + c + 1), (D, k - d))
    elif -k + 1 <= c <= 0 and -k - c <= d <= -1:
        steps = ((R, k + c), (U, k + d + 1))
    elif 1 <= c <= k and -k + c <= d <= 0:
        steps = ((R, c), (D, -d))
    else:
        raise AssertionError(f"no word case matches {v} (k={k})")
    return PathWord(steps=tuple((dd, nn) for dd, nn in steps if nn))


def expand_word(word: PathWord, k: int, start: GaussInt = ZERO) -> list[GaussInt]:
    """Walk a word from start, reducing every step."""
    path = [start]
    for d, n in word.steps:
        for _ in range(n):
            path.append(reduce(path[-1] + d, k))
    return path


# -- region-local parent/child directions -------------------------------------

_S, _B, _R, _Q, _P = (RegionClass.S, RegionClass.B, RegionClass.R,
                      RegionClass.Q, RegionClass.P)
_R1, _U, _D = ONE, IMAG, -IMAG
_L = -ONE

# Tree-1 directions per region: child + parent_dir == parent.
_BASE_TABLE: dict[tuple[RegionClass, int], tuple[GaussInt, tuple[GaussInt, ...]]] = {
    (_B, 1): (_L, (_R1, _U, _D)),
    (_R, 1): (_D, (_U,)),
    (_Q, 1): (_D, (_U,)),
    (_P, 1): (_L, (_R1, _U, _D)),
    (_S, 1): (_L, (_R1, _U, _D)),
    (_B, 2): (_L, ()),
    (_R, 2): (_U, (_R1, _D)),
    (_Q, 2): (_U, (_D,)),
    (_P, 2): (_L, ()),
    (_S, 2): (_L, ()),
    (_B, 3): (_U, ()),
    (_R, 3): (_D, ()),
    (_Q, 3): (_D, (_U,)),
    (_P, 3): (_U, ()),
    (_S, 3): (_U, ()),
    (_B, 4): (_D, (_U,)),
    (_R, 4): (_U, (_D,)),
    (_Q, 4): (_U, (_D,)),
    (_P, 4): (_D, (_U,)),
    (_S, 4): (_D, ()),
}


def parent_child_spec(
    region: Region, j: int
) -> tuple[GaussInt, frozenset[GaussInt]]:
    """Parent direction and child directions of a region's nodes in tree j.

    Tree j's row for a region is the tree-1 row of the region shifted back
    j-1 quadrants, with every direction rotated forward by rho^(j-1).
    """
    if region.cls is RegionClass.ORIGIN:
        raise ValueError("the root has no parent/child row")
    if j not in (1, 2, 3, 4):
        raise ValueError(f"tree index must be 1..4, got {j}")
    base_q = (region.quadrant - 1 - (j - 1)) % 4 + 1
    parent_dir, child_dirs = _BASE_TABLE[(region.cls, base_q)]
    return (
        rho(parent_dir, j - 1),
        frozenset(rho(d, j - 1) for d in child_dirs),
    )


def region_parent_map(j: int, k: int) -> dict[GaussInt, tuple[GaussInt, GaussInt]]:
    """Parent pointers of tree j materialised from the region table alone."""
    _check_tree_k(k)
    out = {}
    for v in diamond_nodes(k):
        if v == ZERO:
            continue
        pd, _ = parent_child_spec(classify(v, k), j)
        out[v] = (reduce(v + pd, k), pd)
    return out


def verify_independence(k: int) -> tuple[bool, tuple | None]:
    """Check all root paths pairwise share only their endpoints.

    Returns (True, None), or (False, (node, j, j', common)) on the first
    violation found.
    """
    _check_tree_k(k)
    trees = [build_tree(j, k) for j in (1, 2, 3, 4)]
    for v in diamond_nodes(k):
        if v == ZERO:
            continue
        interior = [set(tree_path(t, v)[1:-1]) for t in trees]
        for a in range(4):
            for b in range(a + 1, 4):
                common = interior[a] & interior[b]
                if common:
                    return False, (v, a + 1, b + 1, next(iter(common)))
    return True, None
