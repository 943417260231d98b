"""The four node-independent spanning trees rooted at 0.

Each node's parent/child directions depend only on its region, so tree 1 is
read node by node from the region table; trees 2..4 are its images under the
quarter turn rho, an index permutation.  Every root-to-node path in tree 1
also has a closed form as a direction word.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    direction_name,
    format_node,
    is_canonical,
    network,
    node_count,
    per_k,
    reduce,
    residue,
    residue_regions,
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


# rho acting on DIRECTIONS = (+1, -1, +i, -i): +1 -> +i, -1 -> -i, +i -> -1, -i -> +1
_RHO_DIR = np.array((2, 3, 1, 0), dtype=np.uint8)


@per_k
def tree_arrays(k: int) -> tuple[np.ndarray, np.ndarray]:
    """All four trees as index arrays over network(k).nodes, i.e. over Z/n.

    parent[j-1, r] is the residue of node r's parent in tree j (the root 0 is
    its own parent); pdir[j-1, r] is the child-to-parent direction as an
    index into DIRECTIONS (meaningless at the root).  Row 0 is read from the
    region table; row j is row j-1 carried through the quarter turn, which
    multiplies residues by residue(i).
    """
    _check_tree_k(k)
    n = node_count(k)
    pdir = np.zeros((4, n), dtype=np.uint8)
    pdir[0, 1:] = [DIRECTIONS.index(parent_child_spec(reg, 1)[0])
                   for reg in residue_regions(k)[1:]]
    rot = np.arange(n) * residue(IMAG, k) % n
    for j in (1, 2, 3):
        pdir[j, rot] = _RHO_DIR[pdir[j - 1]]
    step = np.array([residue(d, k) for d in DIRECTIONS])
    parent = (np.arange(n) + step[pdir]) % n  # a hop adds its direction's residue
    parent[:, 0] = 0
    for table in (parent, pdir):  # shared through the cache
        table.setflags(write=False)
    return parent, pdir


def build_tree(j: int, k: int) -> SpanningTree:
    """Tree j = rho^(j-1) image of tree 1, read from row j-1 of tree_arrays."""
    if j not in (1, 2, 3, 4):
        raise ValueError(f"tree index must be 1..4, got {j}")
    return _tree(k, j)


@per_k
def _tree(k: int, j: int) -> SpanningTree:
    parent, pdir = tree_arrays(k)
    nodes = network(k).nodes
    rows = zip(nodes[1:], parent[j - 1, 1:].tolist(), pdir[j - 1, 1:].tolist())
    return SpanningTree(index=j, k=k, root=ZERO, parent={
        v: (nodes[p], DIRECTIONS[d]) for v, p, d in rows
    })


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


def parent_rows(k: int) -> np.ndarray:
    """tree_arrays(k)[0]; k = 1 has no trees, so it gets four stars on the root."""
    if k < MIN_TREE_K:
        return np.zeros((4, node_count(k)), dtype=np.intp)
    return tree_arrays(k)[0]


@per_k
def reach_tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Fault-reach tables over the indices of network(k).nodes (residues).

    B[u, v] (uint8) is a 4-bit mask, bit j-1 for tree j, of the trees whose
    root path to v contains u; both endpoints count, so B[v, v] == 15.
    LUT[v, mask] (uint8) is the smallest depth of v among the trees not in
    mask, or 0 when all four are blocked; the root's row is 0.  Under fault
    set F node v first receives in round LUT[v, OR_{u in F} B[u, v]], and a
    faulty v reads 0.  Trees are those of parent_rows, stars at k = 1.
    """
    n, parents = node_count(k), parent_rows(k)
    cols = np.arange(n)
    B = np.zeros((n, n), dtype=np.uint8)
    flat = B.reshape(-1)  # a view: a 1-D index is cheaper than B[anc, cols]
    depth = np.zeros((n, 4), dtype=np.uint8)
    for j in range(4):
        anc = cols
        for _ in range(2 * k + 1):  # climb every node's root path one hop at a time
            flat[anc * n + cols] |= 1 << j
            moving = anc != 0
            if not moving.any():
                break
            depth[:, j] += moving
            anc = parents[j][anc]
        else:
            raise AssertionError(f"tree {j + 1} (k={k}) has a parent cycle")
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
    for v, reg in zip(network(k).nodes[1:], residue_regions(k)[1:]):
        pd, _ = parent_child_spec(reg, j)
        out[v] = (reduce(v + pd, k), pd)
    return out


def verify_independence(k: int) -> tuple[bool, tuple | None]:
    """Check all root paths pairwise share only their endpoints.

    Reads the fault-reach table: an interior node u of v's root paths with
    two or more bits in B[u, v] lies on two of them.  Returns (True, None),
    or (False, (v, j, j', u)) for the first such v in node order.
    """
    _check_tree_k(k)
    B, _ = reach_tables(k)
    nodes = network(k).nodes
    shared = (B & (B - 1)) != 0  # two or more bits set
    shared[0, :] = False  # the root
    np.fill_diagonal(shared, False)
    hits = np.argwhere(shared.T)
    if not len(hits):
        return True, None
    v, u = hits[0]
    j, j2 = [t + 1 for t in range(4) if B[u, v] >> t & 1][:2]
    return False, (nodes[v], j, j2, nodes[u])
