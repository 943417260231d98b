"""The four node-independent spanning trees rooted at 0.

Each node's parent/child directions depend only on its region, so tree 1 is
read from a table indexed by region code; trees 2..4 are its images under the
quarter turn rho, an index permutation.  All four are stored once, as the
rows of parent_rows(k); a SpanningTree is a read-only view of one row.
Every root-to-node path in tree 1 also has a closed form as a direction word.
"""

from __future__ import annotations

import itertools
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass

import numpy as np

from .core import (
    DIRECTIONS,
    GaussInt,
    IMAG,
    LEAF,
    ONE,
    REGIONS,
    Region,
    RegionClass,
    ZERO,
    direction_name,
    format_node,
    indented_json,
    is_canonical,
    network,
    node_count,
    node_residue,
    per_k,
    reduce,
    region_codes,
    residue,
    rho,
    row_template,
)

import json

MIN_TREE_K = 2
BLOCK_NODES = 2048  # nodes per verify_independence sort, pair candidates per fault_pairs fold
_XY = {"x": LEAF, "y": LEAF}
_TREE_ROW = row_template({"node": _XY, "parent": _XY, "dir": LEAF})


class ParentView(Mapping):
    """Tree j's parent pointers, read from row j-1 of parent_rows(k).

    view[v] is (parent, direction) for canonical non-root v, looked up by v's
    residue; the direction is the unit whose residue is the step (parent -
    v) mod n, as the four unit residues are distinct.  Iteration is
    network(k).nodes[1:], in residue order.  The view holds the node tuple
    and the row itself, so it stays valid after per_k drops k.
    """

    __slots__ = ("_k", "_nodes", "_row", "_unit")

    def __init__(self, k: int, nodes: tuple[GaussInt, ...], row: np.ndarray) -> None:
        self._k, self._nodes, self._row = k, nodes, row
        self._unit = {residue(d, k): d for d in DIRECTIONS}

    def __getitem__(self, v: GaussInt) -> tuple[GaussInt, GaussInt]:
        if isinstance(v, GaussInt) and is_canonical(v, self._k):
            r = residue(v, self._k)
            if r:  # residue 0 is the root, which has no parent
                p = self._row.item(r)
                return self._nodes[p], self._unit[(p - r) % len(self._nodes)]
        raise KeyError(v)

    def __len__(self) -> int:
        return len(self._nodes) - 1

    def __iter__(self):
        return itertools.islice(self._nodes, 1, None)

    def _pairs(self):
        """(parent, direction) of nodes[1:] in one pass over the row."""
        n, row = len(self._nodes), self._row[1:]
        steps = (row - np.arange(1, n)) % n
        return zip(map(self._nodes.__getitem__, row.tolist()),
                   map(self._unit.__getitem__, steps.tolist()))

    def items(self) -> ItemsView:
        return _Items(self)

    def values(self) -> ValuesView:
        return _Values(self)


class _Items(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping, self._mapping._pairs())


class _Values(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return self._mapping._pairs()


class ResidueView(Mapping):
    """broadcast's and run's read-only result, with no dict of n nodes: view[v]
    is values[r], or table[values[r]], for r canonical v's residue less base,
    that of the node the result is relative to; a None value marks no key.
    Keys iterate as the relative residues of order.  dict(view) copies it."""

    __slots__ = ("_k", "_nodes", "_base", "_values", "_order", "_table")

    def __init__(self, k: int, nodes: tuple, base: int, values: list, order, table=None):
        self._k, self._nodes, self._base = k, nodes, base
        self._values, self._order, self._table = values, order, table

    def __getitem__(self, v: GaussInt):
        if isinstance(v, GaussInt):
            try:  # a negative index wraps, so no mod n
                value = self._values[node_residue(v, self._k) - self._base]
            except ValueError:  # v is not canonical
                value = None
            if value is not None:
                return value if self._table is None else self._table[value]
        raise KeyError(v)

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self):
        nodes, base, n = self._nodes, self._base, len(self._nodes)
        return (nodes[(r + base) % n] for r in self._order)


@dataclass(frozen=True)
class SpanningTree:
    """One spanning tree, as a view: no per-node state of its own.

    parent maps every non-root node to (parent, direction), where direction
    is the unit step from child to parent: parent == reduce(child + direction).
    It is a read-only ParentView, not a dict; dict(tree.parent) copies it.
    """

    index: int
    k: int
    root: GaussInt
    parent: Mapping[GaussInt, tuple[GaussInt, GaussInt]]

    def edges(self) -> frozenset[frozenset[GaussInt]]:
        return frozenset(frozenset((c, p)) for c, (p, _) in self.parent.items())

    def depth(self, v: GaussInt) -> int:
        """v's depth in this tree, read from root_paths' depth table."""
        return int(root_paths(self.k)[1][node_residue(v, self.k), self.index - 1])

    def to_json(self) -> str:
        name = {d: json.dumps(direction_name(d)) for d in DIRECTIONS}
        leaves = [(c.x, c.y, p.x, p.y, name[d]) for c, (p, d) in sorted(
            self.parent.items(), key=lambda item: (item[0].x, item[0].y))]
        return indented_json({"j": self.index, "k": self.k}, parents=(_TREE_ROW, leaves))

    def to_dot(self) -> str:
        lines = [f"digraph tree_{self.index}_k{self.k} {{"]
        for c, (p, _) in sorted(
            self.parent.items(), key=lambda item: (item[0].x, item[0].y)
        ):
            lines.append(f'  "{format_node(p)}" -> "{format_node(c)}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _shared(*tables: np.ndarray) -> tuple[np.ndarray, ...]:
    """The tables, made read-only: per_k shares them between callers."""
    for table in tables:
        table.setflags(write=False)
    return tables


def _check_tree_k(k: int) -> None:
    if k < MIN_TREE_K:
        raise ValueError(f"trees require k >= {MIN_TREE_K}, got {k}")


@per_k
def parent_rows(k: int) -> np.ndarray:
    """All four trees as one index array over network(k).nodes, i.e. over Z/n:
    their one stored form.

    parent[j-1, r] is the residue of node r's parent in tree j; the root 0
    is its own parent.  Row 0 adds to each residue the step of its region's
    parent direction.  Row j is row j-1 carried through the quarter turn,
    which multiplies both sides by residue(i).  k = 1 has no trees, so it
    gets four stars on the root.
    """
    n = node_count(k)
    parent = np.zeros((4, n), dtype=np.intp)
    if k < MIN_TREE_K:
        return _shared(parent)[0]
    step = np.array([residue(d, k) for d in DIRECTIONS])
    parent[0, 1:] = (np.arange(1, n) + step[_PARENT_DIR[region_codes(k)[1:]]]) % n
    iota = residue(IMAG, k)
    turned = np.arange(n) * iota % n
    for j in (1, 2, 3):
        parent[j, turned] = parent[j - 1] * iota % n
    return _shared(parent)[0]


def build_tree(j: int, k: int) -> SpanningTree:
    """Tree j = rho^(j-1) image of tree 1: a view of row j-1 of parent_rows,
    the stored form, so a call does no per-node work."""
    if j not in (1, 2, 3, 4):
        raise ValueError(f"tree index must be 1..4, got {j}")
    _check_tree_k(k)
    view = ParentView(k, network(k).nodes, parent_rows(k)[j - 1])
    return SpanningTree(index=j, k=k, root=ZERO, parent=view)


def tree_path(tree: SpanningTree, v: GaussInt) -> list[GaussInt]:
    """The unique root..v path, root first, read from root_paths' P."""
    k, j, i = tree.k, tree.index - 1, node_residue(v, tree.k)
    P, depth, _ = root_paths(k)
    nodes = network(k).nodes
    return [nodes[u] for u in P[j, depth[i, j]::-1, i].tolist()]


def unspanned(k: int) -> str:
    """Why some row of parent_rows(k) is not a spanning tree rooted at 0 of
    height at most 2k, or "".  Each parent step must be a unit's residue, and
    the row's 2k-th power, taken by pointer doubling, must be 0 everywhere: no
    node is on a parent cycle or more than 2k edges from the root."""
    n, parent = node_count(k), parent_rows(k)
    unit = np.zeros(n, dtype=bool)
    unit[[residue(d, k) for d in DIRECTIONS]] = True
    up, reach, e = parent, np.broadcast_to(np.arange(n), parent.shape), 2 * k
    while e:  # reach = parent^(2k), from the squarings up = parent^(2^s)
        reach = np.take_along_axis(up, reach, axis=1) if e & 1 else reach
        up, e = np.take_along_axis(up, up, axis=1), e >> 1
    for j in range(4):
        if not unit[(parent[j, 1:] - np.arange(1, n)) % n].all():
            return f"tree {j + 1} has a parent step that is not a unit"
        if reach[j].any():
            return f"tree {j + 1} has a parent cycle or a path over {2 * k} edges"
    return ""


@per_k
def root_paths(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P, depth, LUT), the one walk up the trees of parent_rows (stars at
    k = 1), over the indices of network(k).nodes (residues).

    P[j, s, v] is v's s-th ancestor in tree j+1, the root 0 from s =
    depth[v, j] on; uint16 while n < 65,536.  LUT[v, mask] (uint8) is the
    smallest depth of v among the trees not in mask, or 0 when all four are
    blocked; the root's row is 0.  Raises unspanned(k)'s reason, if any.
    """
    if reason := unspanned(k):
        raise AssertionError(reason)
    n, parent = node_count(k), parent_rows(k)
    P = np.empty((4, 2 * k + 1, n), dtype=np.promote_types(np.min_scalar_type(n - 1), np.uint16))
    P[:, 0] = np.arange(n)
    for s in range(2 * k):
        P[:, s + 1] = np.take_along_axis(parent, P[:, s], axis=1)
    # C order, or LUT below comes out F-ordered and the flat kernel's ravel copies it
    depth = np.ascontiguousarray((P != 0).sum(axis=1, dtype=np.uint8).T)
    unreached = np.iinfo(np.uint8).max
    blocked = (np.arange(16)[:, None] >> np.arange(4)) & 1 == 1
    lut = np.where(blocked, unreached, depth[:, None, :]).min(axis=2)
    lut[lut == unreached] = 0
    return _shared(P, depth, lut)


@per_k
def _children(k: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """children[j][i]: the children of node i in tree j+1, by residue.

    Residues ascend within each list; k = 1 has the star trees of parent_rows.
    simulator.run walks them from the root, router.broadcast from each fault.
    """
    n = node_count(k)
    out = [[[] for _ in range(n)] for _ in range(4)]
    for j, row in enumerate(parent_rows(k).tolist()):
        for i, p in enumerate(row[1:], start=1):
            out[j][p].append(i)
    return tuple(tuple(map(tuple, tree)) for tree in out)


# -- exhaustive sweep tables: the root-path decomposition ----------------------
#
# A node's four root paths share only their endpoints, so each of f <= 3
# faults lies inside at most one of them: a live node v always receives, in
# round LUT[v, M] for M the trees whose path to v holds a fault, and some
# live node lies at distance k.  A run therefore takes 1 + max(k, value),
# where value is the best LUT[v, M] over the v with a fault inside a path.
# Every value below is clipped to at least k; v = 0, the root, means none.

def _path_choices(k: int, trees: tuple[int, ...], rows: int):
    """Rows [*nodes, v, w] for the v whose value w = LUT[v, trees] is above k
    and, for two trees, above both one-tree values (else the singles hold
    it): one row per choice of a node inside each given tree's root path of
    v, nodes[q] inside trees[q]'s, as intp; about `rows` at a time, by v."""
    P, depth, LUT = root_paths(k)
    w = LUT[:, sum(1 << j for j in trees)]
    keep = w > k
    if len(trees) == 2:
        keep &= (w > LUT[:, 1 << trees[0]]) & (w > LUT[:, 1 << trees[1]])
    heads = np.flatnonzero(keep)
    sizes = depth[heads][:, trees].astype(np.intp) - 1
    total = sizes.prod(axis=1)
    cuts = np.searchsorted(np.cumsum(total), np.arange(rows, total.sum(), rows))
    for lo, hi in itertools.pairwise([0, *sorted({*cuts.tolist(), len(heads)})]):
        at, s, t = heads[lo:hi], sizes[lo:hi], total[lo:hi]
        i = np.repeat(np.arange(hi - lo), t)
        r = np.arange(t.sum()) - np.repeat(np.cumsum(t) - t, t)
        nodes = []
        for q in reversed(range(len(trees))):  # r in mixed radix, last tree fastest
            nodes.insert(0, P[trees[q], 1 + r % s[i, q], at[i]].astype(np.intp))
            r //= s[i, q]
        yield [*nodes, at[i], w[at[i]]]


def _ranked(key: np.ndarray, v: np.ndarray, w: np.ndarray):
    """(key, v, w, rank) sorted by key, best w first: rank counts from 0 per key."""
    order = np.argsort(key * 256 - w, kind="stable")  # w < 256
    key, v, w = key[order], v[order], w[order]
    return key, v, w, np.arange(len(key)) - np.searchsorted(key, key)


@per_k
def fault_singles(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(Sv, Sw), each [n, 3]: for a fault u, the three best distinct v with u
    inside a root path of v, best first, valued LUT[v, that tree].  f = 1
    reads Sw[u, 0]; three make the best two that are not a second fault."""
    P, depth, _ = root_paths(k)
    found = zip(*(c for j in range(4) for c in _path_choices(k, (j,), BLOCK_NODES)))
    u, v, w, rank = _ranked(*map(np.concatenate, found))
    Sv = np.zeros((len(depth), 3), dtype=P.dtype)
    Sw = np.full((len(depth), 3), k, dtype=np.uint8)
    top = rank < 3
    Sv[u[top], rank[top]], Sw[u[top], rank[top]] = v[top], w[top]
    return _shared(Sv, Sw)


def _fold(V, W, W2, v, w):
    """Candidates (v, w) folded into the best distinct node V, its value W,
    and W2, the best value of any other node."""
    return (np.where(w > W, v, V), np.maximum(W, w),
            np.where(V == v, W2, np.maximum(W2, np.minimum(w, W))))


@per_k
def fault_pairs(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(V, W, W2), each [n, n] and symmetric: for faults x != y, the best v
    not in {x, y} and its value LUT[v, trees holding x or y], and the best
    value of the other v; the root's row and the diagonal are not meaningful.
    f = 2 reads W, f = 3 triple_values, with no triple term: a fault in three
    of v's paths beats its pair values only if its fourth tree is its one
    deepest, which is refused.  Built in blocks: the peak stays near 4 n^2."""
    depth = root_paths(k)[1]
    deepest = depth.max(axis=1)
    if np.any(((depth == deepest[:, None]).sum(axis=1) == 1) & (deepest > k)):
        raise AssertionError(f"k={k}: a node has one deepest tree, so triples need a term")
    Sv, Sw = fault_singles(k)
    n, cells = len(depth), np.arange(len(depth))
    V, W, W2 = (np.empty((n, n), dtype=t) for t in (Sv.dtype, np.uint8, np.uint8))
    rows = max(1, 32 * BLOCK_NODES // n)  # about 2^16 cells a block of rows x
    for x in map(slice, range(0, n, rows), range(rows, n + rows, rows)):
        block = 0, k, k  # x's singles along rows and y's along columns, never v = y or x
        for q in range(3):
            for v, w, other in ((Sv[x, q, None], Sw[x, q, None], cells),
                                (Sv[None, :, q], Sw[None, :, q], cells[x, None])):
                block = _fold(*block, v, np.where(v == other, k, w))
        V[x], W[x], W2[x] = block
    V, W, W2 = V.reshape(-1), W.reshape(-1), W2.reshape(-1)
    for trees in itertools.combinations(range(4), 2):
        for x, y, v, w in _path_choices(k, trees, BLOCK_NODES):
            key = np.concatenate([x * n + y, y * n + x])
            key, v, w, rank = _ranked(key, np.tile(v, 2), np.tile(w, 2))
            for q in (0, 1):  # the chunk's two best candidates of each cell
                at = key[rank == q]
                V[at], W[at], W2[at] = _fold(V[at], W[at], W2[at], v[rank == q], w[rank == q])
    return _shared(V.reshape(n, n), W.reshape(n, n), W2.reshape(n, n))


def triple_values(k: int, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The value of each triple {a, b, c} of distinct non-root faults: the
    max over its pairs of W, or of W2 where the pair's best V is the third.
    Each pair is one flat index x n + y, read with take: a 1-D gather is
    cheaper than the 2-D fancy index V[x, y]."""
    V, W, W2 = fault_pairs(k)
    n = len(W)
    V, W, W2 = V.ravel(), W.ravel(), W2.ravel()  # views: the tables are C-ordered

    def without(xy, z):  # G(x, y) without z
        return np.where(V.take(xy) == z, W2.take(xy), W.take(xy))
    ab, ac, bc = a * n + b, a * n + c, b * n + c
    return np.maximum(np.maximum(without(ab, c), without(ac, b)), without(bc, a))


@per_k
def fault_triples(k: int) -> np.ndarray:
    """Correction, by value, to the counts of max(W[a,b], W[a,c], W[b,c])
    over a < b < c.  A triple's value is that max except where some pair's
    best V is the third fault and W2 < W: there it reads W2 for that pair."""
    V, W, W2 = fault_pairs(k)
    n = len(W)
    x, y = np.nonzero(np.triu(W > W2, 1) & (np.arange(n)[:, None] > 0))  # 0 < x < y
    z = V[x, y]
    a, c = np.minimum(x, z), np.maximum(y, z)  # x < y
    key = (a * n + x + y + z - a - c) * n + c
    key = key[np.argsort(key, kind="stable")]
    key = key[np.diff(key, prepend=-1) != 0]  # each triple once
    a, b, c = key // (n * n), key // n % n, key % n
    size = 2 * k + 1
    base = np.bincount(np.maximum(np.maximum(W[a, b], W[a, c]), W[b, c]), minlength=size)
    return _shared(np.bincount(triple_values(k, a, b, c), minlength=size) - base)[0]


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
    if not node_residue(v, k):  # residue 0 is the root
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


#: Tree-1 parent direction of each REGIONS code, as an index into DIRECTIONS
_PARENT_DIR = np.array([0, *(DIRECTIONS.index(parent_child_spec(r, 1)[0]) for r in REGIONS[1:])])


def verify_independence(k: int) -> tuple[bool, tuple | None]:
    """Check all root paths pairwise share only their endpoints.

    Reads root_paths' P, BLOCK_NODES nodes at a time, so memory stays
    O(n k): a nonzero entry repeated among v's ancestors P[:, s >= 1, v] is
    an interior node u on two of its paths.  Returns (True, None), or
    (False, (v, j, j', u)) for the first such v in node order, its smallest
    u, and the first two trees whose path to v holds u.
    """
    _check_tree_k(k)
    P = root_paths(k)[0]
    for lo in range(0, P.shape[2], BLOCK_NODES):
        rows = np.sort(P[:, 1:, lo:lo + BLOCK_NODES].reshape(8 * k, -1).T)
        repeated = (rows[:, 1:] == rows[:, :-1]) & (rows[:, 1:] != 0)
        hit = repeated.any(axis=1)
        if hit.any():
            at = hit.argmax()
            v, u = lo + at, rows[at, 1:][repeated[at]].min()
            j, j2 = [t + 1 for t in range(4) if u in P[t, 1:, v]][:2]
            nodes = network(k).nodes
            return False, (nodes[v], j, j2, nodes[u])
    return True, None
