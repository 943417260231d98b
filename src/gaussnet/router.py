"""Local routing along the four spanning trees.

A transient node decides where to forward purely from its own position and
the destination, both taken relative to the source (which is mapped to the
root by translation).  The decision grid below is stated for destinations in
quadrant 1; other destinations are handled by rotating the pair into that
frame, reading the grid, and rotating the answer back.  Because the four
root paths to any node are internally disjoint, a transient node lies on at
most one of them, and the grid entry also names the tree being served.

The grid is normative for this package: it is pinned by an exhaustive
regression against the tree paths themselves (every route from the root
must equal the corresponding tree path).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from .core import (
    GaussInt,
    IMAG,
    ONE,
    Region,
    RegionClass,
    ZERO,
    classify,
    direction_name,
    format_node,
    is_canonical,
    network,
    reduce,
    residue,
    residue_regions,
    rho,
)
from .trees import MIN_TREE_K, reach_tables

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
# group within quadrant 1.  None marks a combination no tree path produces.
_COL = {RegionClass.S: 0, RegionClass.B: 0, RegionClass.R: 1,
        RegionClass.Q: 2, RegionClass.P: 3}

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


def _grid_row(reg: Region) -> tuple[_Cell, ...] | None:
    """The grid row of a transient node in region reg; None for the origin."""
    if reg.cls is RegionClass.ORIGIN:
        return None
    group = "SB" if reg.cls in (RegionClass.S, RegionClass.B) else reg.cls.value
    return _GRID[(group, reg.quadrant)]


@lru_cache(maxsize=64)
def _grid_rows(k: int) -> tuple[tuple[_Cell, ...] | None, ...]:
    """_grid_row of every node, indexed by residue."""
    return tuple(map(_grid_row, residue_regions(k)))


def _grid_cell(
    row: tuple[_Cell, ...] | None, col: int, t: GaussInt, d: GaussInt, k: int
) -> tuple[GaussInt, int]:
    """(direction, tree) from transient t's grid row and quadrant-1 d's column."""
    if row is None:
        raise RoutingError("transient node coincides with the source")
    cell = row[col]
    if cell is None:
        raise RoutingError(
            f"unreachable decision cell: transient {classify(t, k)} "
            f"for destination {classify(d, k)}"
        )
    return cell(t, d, k) if callable(cell) else cell


def start_route(s: GaussInt, d: GaussInt, j: int, k: int) -> GaussInt:
    """First-hop direction from the source: tree j leaves the root by rho^(j-1)(+1)."""
    if j not in (1, 2, 3, 4):
        raise ValueError(f"tree index must be 1..4, got {j}")
    if s == d:
        raise ValueError("source equals destination")
    return rho(ONE, j - 1)


def table_decision(t: GaussInt, d: GaussInt, k: int) -> RoutingDecision:
    """Decision for a quadrant-1 destination, coordinates relative to the root."""
    if t == d:
        return CONSUME
    col = _COL[classify(d, k).cls]
    direction, tree = _grid_cell(_grid_row(classify(t, k)), col, t, d, k)
    return RoutingDecision(direction=direction, tree=tree)


def decide(t: GaussInt, d: GaussInt, k: int) -> RoutingDecision:
    """Decision for any destination, by rotation into the quadrant-1 frame."""
    if t == d:
        return CONSUME
    if d == ZERO:
        raise ValueError("destination coincides with the source")
    m = classify(d, k).quadrant - 1
    base = table_decision(rho(t, -m), rho(d, -m), k)
    return RoutingDecision(
        direction=rho(base.direction, m),
        tree=(base.tree - 1 + m) % 4 + 1,
    )


def route(s: GaussInt, d: GaussInt, j: int, k: int) -> list[GaussInt]:
    """Full path s..d along tree j, driven by per-node decisions.

    Equals the translate-by-s image of tree j's root path to d-s.  The walk
    runs on residues (Z[i]/(alpha_k) = Z/n) in the frame where the
    destination lies in quadrant 1, so the grid is read without rotating
    each hop: a hop adds its direction's residue, and at the end each node
    is rotated back (a product by the residue of rho^m(1)) and translated by
    s (a sum) once.
    """
    for name, v in (("source", s), ("destination", d)):
        if not is_canonical(v, k):
            raise ValueError(f"{name} {v} is not canonical for k={k}")
    first = start_route(s, d, j, k)
    nodes, regions, rows = network(k).nodes, residue_regions(k), _grid_rows(k)
    n, r_s = len(nodes), residue(s, k)
    r_rel = (residue(d, k) - r_s) % n
    m = regions[r_rel].quadrant - 1
    iota = residue(IMAG, k)
    turn, unturn = pow(iota, m, n), pow(iota, -m % 4, n)  # rho^m, rho^-m
    r_d = r_rel * unturn % n
    d_frame, col = nodes[r_d], _COL[regions[r_d].cls]
    j_frame, stride = (j - 1 - m) % 4 + 1, 2 * k + 1
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
    """
    if k < MIN_TREE_K:
        raise ValueError(f"broadcast requires k >= {MIN_TREE_K}, got {k}")
    faults = tuple(faults)
    for v in (s, *faults):
        if not is_canonical(v, k):
            raise ValueError(f"node {v} is not canonical for k={k}")
    nodes = network(k).nodes
    n, r_s = len(nodes), residue(s, k)
    rel_faults = {(residue(f, k) - r_s) % n for f in faults}
    if len(rel_faults) > 3:
        raise ValueError("at most 3 faults are tolerated")
    if 0 in rel_faults:
        raise ValueError("the source cannot be faulty")
    B, _ = reach_tables(k)
    blocked = np.zeros(n, dtype=np.uint8)
    for f in rel_faults:
        blocked |= B[f]
    return {
        nodes[(r + r_s) % n]: set(_DELIVERED[mask])
        for r, mask in enumerate(blocked.tolist())
        if r
    }


def secure_split(
    s: GaussInt, d: GaussInt, k: int, message: bytes
) -> list[tuple[Packet, list[GaussInt]]]:
    """Split a message into four parts routed along the four disjoint trees.

    The split is a plain byte partition; the guarantee is that no node other
    than the endpoints sees more than one part.
    """
    routes = [route(s, d, j, k) for j in (1, 2, 3, 4)]
    seen: dict[GaussInt, int] = {}
    for j, path in enumerate(routes, start=1):
        for v in path[1:-1]:
            if v in seen:
                raise RoutingError(
                    f"node {v} lies on trees {seen[v]} and {j}; paths not disjoint"
                )
            seen[v] = j
    n = len(message)
    base, extra = divmod(n, 4)
    parts, pos = [], 0
    for j in range(4):
        size = base + (1 if j < extra else 0)
        parts.append(message[pos:pos + size])
        pos += size
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
