"""Local routing along the four spanning trees.

A transient node decides where to forward purely from its own position and
the destination, both taken relative to the source (which is mapped to the
root by translation).  decide(t, d, k) is that decision, and route() is the
same step taken hop after hop.  The decision grid below is stated for
destinations in quadrant 1; both turn the destination's quadrant into
quadrant 1 with one frame table, read the grid there, and turn the answer
back.  Because the four root paths to any node are internally disjoint, a
transient node lies on at most one of them, and the grid entry also names
the tree being served.

The grid is normative for this package: it is pinned by an exhaustive
regression against the tree paths themselves (every route from the root
must equal the corresponding tree path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .core import (
    GaussInt,
    IMAG,
    ONE,
    REGIONS,
    direction_name,
    format_node,
    network,
    node_residue,
    per_k,
    reduce,
    region_codes,
    residue,
    rho,
)
from .trees import _check_tree_k, _children

import json

_R1, _L1, _UP, _DN = ONE, -ONE, IMAG, -IMAG


class RoutingError(RuntimeError):
    """An unreachable grid cell was hit or a route failed to terminate."""


@dataclass(frozen=True, slots=True)
class Packet:
    """A routed message: tree index is fixed at the source and never changes."""

    source: GaussInt
    destination: GaussInt
    tree: int
    payload: bytes = b""


@dataclass(frozen=True, slots=True)
class RoutingDecision:
    """Forward through `direction` on `tree`, or consume when direction is None."""

    direction: GaussInt | None
    tree: int | None = None

    @property
    def is_consume(self) -> bool:
        return self.direction is None


CONSUME = RoutingDecision(direction=None, tree=None)

_Cell = tuple[GaussInt, int] | Callable[..., tuple[GaussInt, int]] | None


def _c1(t, d, k):
    return (_R1, 1) if t.x < d.x else (_L1, 2)


def _c2(t, d, k):
    return (_UP, 1) if t.x == d.x else (_R1, 1)


def _c3(t, d, k):
    return (_DN, 4) if t.x == d.x else (_L1, 4)


def _c4(t, d, k):
    return (_R1, 2) if t.x < d.x else (_L1, 4)


def _c5(t, d, k):
    if t.x == d.x:
        return (_UP, 1) if t.y < d.y else (_DN, 3)
    return (_R1, 2) if t.x < d.x else (_L1, 4)


def _c6(t, d, k):
    return (_R1, 2) if t.y == d.y else (_UP, 2)


def _c7_axis(t, d, k):
    # tree 3 reaches axis destinations by climbing the column d.x - k - 1
    return (_UP, 3) if t.x == d.x - k - 1 else (_L1, 3)


def _c7_wedge(t, d, k):
    # tree 3 reaches row-1 and wedge destinations by diving at column d.x - k
    return (_DN, 3) if t.x == d.x - k else (_L1, 3)


def _c8(t, d, k):
    return (_L1, 4) if t.y == d.y - k - 1 else (_DN, 4)


def _q3_wedge(t, d, k):
    # tree 3 dives through the column d.x - k; tree 4 crosses the row d.y - k - 1
    return (_DN, 3) if t.x == d.x - k else (_L1, 4)


# Rows: (class-group of transient, quadrant); columns: destination class
# group SB, R, Q, P within quadrant 1.  None marks a combination no tree
# path produces.
_GRID: dict[tuple[str, int], tuple[_Cell, _Cell, _Cell, _Cell]] = {
    ("SB", 1): (_c1, _c2, _c2, (_R1, 1)),
    ("R", 1): (_c3, _c4, (_UP, 1), None),
    ("Q", 1): (None, (_DN, 3), _c5, None),
    ("P", 1): ((_L1, 2), None, None, None),
    ("SB", 2): ((_UP, 2), _c6, _c6, (_UP, 2)),
    ("R", 2): (None, None, None, (_UP, 3)),
    ("Q", 2): ((_UP, 3), None, None, None),
    ("P", 2): ((_L1, 2), None, None, (_L1, 2)),
    ("SB", 3): (_c7_axis, _c7_wedge, _c7_wedge, (_UP, 3)),
    ("R", 3): (None, (_DN, 3), (_DN, 3), None),
    ("Q", 3): (None, (_DN, 3), _q3_wedge, None),
    ("P", 3): ((_UP, 3), None, None, None),
    ("SB", 4): ((_DN, 4), (_DN, 4), _c8, (_DN, 4)),
    ("R", 4): ((_UP, 3), None, None, None),
    ("Q", 4): ((_UP, 3), None, None, None),
    ("P", 4): ((_L1, 4), (_L1, 4), None, (_DN, 4)),
}


#: The grid row and, as a quadrant-1 destination, the grid column of each
#: REGIONS code 1 + 5(q - 1) + c, the c-th of S, B, R, Q, P in quadrant q;
#: the origin, code 0, has neither
_CODE_ROWS = (None, *(_GRID[g, q] for q in (1, 2, 3, 4) for g in ("SB", "SB", "R", "Q", "P")))
_CODE_COLS = (None, *(0, 0, 1, 2, 3) * 4)


@per_k
def _grid_rows(k: int) -> tuple[tuple[_Cell, ...] | None, ...]:
    """The grid row of every transient node, by residue; None for the origin, 0."""
    return tuple(map(_CODE_ROWS.__getitem__, region_codes(k).tolist()))


@per_k
def _frames(k: int) -> tuple[tuple[int, int, int, int, int] | None, ...]:
    """The quadrant-1 frame of every destination, by residue relative to the source.

    Entry r is (m, turn, unturn, r_d, col): m = quadrant - 1 of node r, the
    residue multipliers of rho^m and rho^-m, and the residue r * unturn of the
    turned destination, in quadrant 1, with its grid column; r = 0 has none.
    """
    codes = region_codes(k).tolist()
    n, iota = len(codes), residue(IMAG, k)
    turns = [(pow(iota, m, n), pow(iota, -m % 4, n)) for m in range(4)]  # (turn, unturn) by m
    frames = [None]
    for r, code in enumerate(codes[1:], start=1):
        m = (code - 1) // 5  # codes 1 + 5m .. 5 + 5m lie in quadrant m + 1
        r_d = r * turns[m][1] % n
        frames.append((m, *turns[m], r_d, _CODE_COLS[codes[r_d]]))
    return tuple(frames)


def _grid_cell(
    row: tuple[_Cell, ...] | None, col: int, t: GaussInt, d: GaussInt, k: int
) -> tuple[GaussInt, int]:
    """(direction, tree) from transient t's grid row and quadrant-1 d's column."""
    if row is None:
        raise RoutingError("transient node coincides with the source")
    cell = row[col]
    if cell is None:
        codes = region_codes(k)
        raise RoutingError(
            f"unreachable decision cell: transient {REGIONS[codes[residue(t, k)]]} "
            f"for destination {REGIONS[codes[residue(d, k)]]}"
        )
    return cell(t, d, k) if callable(cell) else cell


def start_route(s: GaussInt, d: GaussInt, j: int, k: int) -> GaussInt:
    """First-hop direction from the source: tree j leaves the root by rho^(j-1)(+1)."""
    if j not in (1, 2, 3, 4):
        raise ValueError(f"tree index must be 1..4, got {j}")
    if s == d:
        raise ValueError("source equals destination")
    return (_R1, _UP, _L1, _DN)[j - 1]  # rho^(j-1)(+1), without building it


def decide(t: GaussInt, d: GaussInt, k: int) -> RoutingDecision:
    """The hop route() takes at transient t toward d, both relative to the source."""
    _check_tree_k(k)
    r_t, r_d = node_residue(t, k, "transient"), node_residue(d, k, "destination")
    if r_t == r_d:
        return CONSUME
    if not r_d:
        raise ValueError("destination coincides with the source")
    nodes = network(k).nodes
    m, _, unturn, r_d, col = _frames(k)[r_d]  # r_d, then r_t, in d's quadrant-1 frame
    r_t = r_t * unturn % len(nodes)
    direction, tree = _grid_cell(_grid_rows(k)[r_t], col, nodes[r_t], nodes[r_d], k)
    return RoutingDecision(direction=rho(direction, m), tree=(tree - 1 + m) % 4 + 1)


def route(s: GaussInt, d: GaussInt, j: int, k: int) -> list[GaussInt]:
    """Full path s..d along tree j, taking the decide() step at every node.

    Equals the translate-by-s image of tree j's root path to d-s.  The walk
    runs on residues (Z[i]/(alpha_k) = Z/n) in the frame where the
    destination lies in quadrant 1, so the grid is read without rotating
    each hop: a hop adds its direction's residue, and at the end each node
    is rotated back (a product by the residue of rho^m(1)) and translated by
    s (a sum) once.
    """
    _check_tree_k(k)
    r_s, r_d = node_residue(s, k, "source"), node_residue(d, k, "destination")
    first = start_route(s, d, j, k)
    nodes, rows = network(k).nodes, _grid_rows(k)
    n = len(nodes)
    m, turn, unturn, r_d, col = _frames(k)[(r_d - r_s) % n]
    d_frame, j_frame, stride = nodes[r_d], (j - 1 - m) % 4 + 1, 2 * k + 1
    path = [0, residue(first, k) * unturn % n]
    while path[-1] != r_d:
        r = path[-1]
        direction, tree = _grid_cell(rows[r], col, nodes[r], d_frame, k)
        if tree != j_frame:
            raise RoutingError(
                f"decision at {nodes[r * turn % n]} serves tree "
                f"{(tree - 1 + m) % 4 + 1}, expected {j}"
            )
        path.append((r + direction.x - stride * direction.y) % n)
        if len(path) > 2 * k + 1:
            rel = [nodes[r * turn % n] for r in path]
            raise RoutingError(f"route exceeded height bound: {rel}")
    return [nodes[(r * turn + r_s) % n] for r in path]


# _DELIVERED[mask]: tree indices whose bit is clear in a 4-bit blocked mask
_DELIVERED = tuple(
    frozenset(j + 1 for j in range(4) if not mask >> j & 1) for mask in range(16)
)


def broadcast(
    s: GaussInt, faults: Iterable[GaussInt], k: int
) -> dict[GaussInt, set[int]]:
    """Deliver from s along all four trees, dropping paths through faults.

    Returns, for every other node, the set of tree indices that delivered.
    With at most three faults every live node receives at least one copy.
    Tree j misses the faults' subtrees in it, walked down run()'s child lists.
    """
    _check_tree_k(k)
    r_s, *r_faults = (node_residue(v, k, "node") for v in (s, *faults))
    nodes = network(k).nodes
    n = len(nodes)
    rel_faults = {(r - r_s) % n for r in r_faults}
    if len(rel_faults) > 3:
        raise ValueError("at most 3 faults are tolerated")
    if 0 in rel_faults:
        raise ValueError("the source cannot be faulty")
    blocked = [0] * n
    for j, tree in enumerate(_children(k)):
        subtrees, bit = [*rel_faults], 1 << j
        for u in subtrees:  # the loop also reads the children it appends
            blocked[u] |= bit
            subtrees += tree[u]
    return {
        nodes[(r + r_s) % n]: set(_DELIVERED[mask])
        for r, mask in enumerate(blocked)
        if r
    }


def _shared_interior(routes: list[list[GaussInt]]) -> tuple[GaussInt, int, int] | None:
    """The first interior node on two of the routes to trees 1..4, as (v, j, j').

    j < j' are the trees whose routes hold v; None when the routes share
    only their endpoints.
    """
    seen: dict[GaussInt, int] = {}
    for j, path in enumerate(routes, start=1):
        for v in path[1:-1]:
            if v in seen:
                return v, seen[v], j
            seen[v] = j
    return None


def secure_split(
    s: GaussInt, d: GaussInt, k: int, message: bytes
) -> list[tuple[Packet, list[GaussInt]]]:
    """Split a message into four parts routed along the four disjoint trees.

    The split is a plain byte partition; the guarantee is that no node other
    than the endpoints sees more than one part.
    """
    routes = [route(s, d, j, k) for j in (1, 2, 3, 4)]
    if shared := _shared_interior(routes):
        v, j, j2 = shared
        raise RoutingError(f"node {v} lies on trees {j} and {j2}; paths not disjoint")
    base, extra = divmod(len(message), 4)  # the first `extra` parts get one more byte
    cut = [j * base + min(j, extra) for j in range(5)]
    parts = [message[cut[j]:cut[j + 1]] for j in range(4)]
    return [
        (Packet(source=s, destination=d, tree=j + 1, payload=parts[j]), routes[j])
        for j in range(4)
    ]


def format_trace(path: list[GaussInt], j: int, k: int) -> str:
    """One hop per line: step i: node (a) --dir--> node (b) [tree j]."""
    lines = []
    for i, (a, b) in enumerate(zip(path, path[1:]), start=1):
        for u in (_R1, _L1, _UP, _DN):
            if reduce(a + u, k) == b:
                dname = direction_name(u)
                break
        else:
            raise ValueError(f"non-adjacent hop {a}..{b}")
        lines.append(
            f"step {i}: node ({format_node(a)}) --{dname}--> "
            f"node ({format_node(b)}) [tree {j}]"
        )
    return "\n".join(lines)


def route_to_json(s: GaussInt, d: GaussInt, j: int, k: int) -> str:
    path = route(s, d, j, k)
    return json.dumps(
        {
            "s": {"x": s.x, "y": s.y},
            "d": {"x": d.x, "y": d.y},
            "j": j,
            "k": k,
            "path": [{"x": v.x, "y": v.y} for v in path],
        },
        indent=2,
    )
