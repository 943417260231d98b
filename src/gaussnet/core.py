"""Exact Gaussian-integer arithmetic and the dense degree-4 network G_k.

The network generated by alpha_k = k + (k+1)i has 2k^2 + 2k + 1 nodes, the
maximum possible for diameter k.  Nodes are the canonical residues modulo
alpha_k, i.e. the lattice points of the diamond |x| + |y| <= k, which tile
the plane under the alpha_k lattice and therefore form a complete residue
system.  Two nodes are adjacent when their difference reduces to one of the
four units +1, -1, +i, -i.  Since i = -(2k+1) mod alpha_k, Z[i]/(alpha_k) is
Z/n and G_k is the circulant graph on Z/n with jumps 1 and 2k+1.
"""

from __future__ import annotations

import itertools
import json
import re
import threading
from dataclasses import dataclass
from enum import Enum
from functools import wraps
from typing import Callable, Iterator

import numpy as np


@dataclass(frozen=True, init=False)
class GaussInt:
    """A Gaussian integer x + yi with exact (arbitrary-size) components.

    Its hash is computed once, at construction: nodes key most dicts here.
    """

    __slots__ = ("x", "y", "_hash")
    x: int
    y: int

    def __init__(self, x: int, y: int) -> None:
        # An odd integer per point, so never -2, the one int that hashes like
        # -1; hash((x, y)) made points differing by a -1 / -2 coordinate collide.
        _set_x(self, x)
        _set_y(self, y)
        _set_hash(self, hash(2 * ((x << 32) + y) + 1))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return GaussInt, (self.x, self.y)

    def __add__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "GaussInt":
        return GaussInt(-self.x, -self.y)

    def __mul__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(
            self.x * other.x - self.y * other.y,
            self.x * other.y + self.y * other.x,
        )

    def conj(self) -> "GaussInt":
        return GaussInt(self.x, -self.y)

    def l1(self) -> int:
        """Taxicab length |x| + |y|; graph distance from 0 inside the diamond."""
        return abs(self.x) + abs(self.y)

    def __str__(self) -> str:
        return format_node(self)

    def __repr__(self) -> str:
        return f"GaussInt({self.x}, {self.y})"


# the slots' own setters, since the frozen class's __setattr__ raises
_set_x, _set_y, _set_hash = (GaussInt.__dict__[a].__set__ for a in GaussInt.__slots__)

ZERO = GaussInt(0, 0)
ONE = GaussInt(1, 0)
IMAG = GaussInt(0, 1)

#: The four unit directions, in the fixed order +1, -1, +i, -i.
DIRECTIONS: tuple[GaussInt, ...] = (ONE, -ONE, IMAG, -IMAG)

_DIR_NAMES = {ONE: "+1", -ONE: "-1", IMAG: "+i", -IMAG: "-i"}


def direction_name(d: GaussInt) -> str:
    """Printable name of a unit direction (+1, -1, +i, -i)."""
    try:
        return _DIR_NAMES[d]
    except KeyError:
        raise ValueError(f"not a unit direction: {d!r}") from None


def norm(a: GaussInt) -> int:
    """Field norm x^2 + y^2; equals the node count when a generates a network."""
    return a.x * a.x + a.y * a.y


def alpha(k: int) -> GaussInt:
    """Generator k + (k+1)i of the dense diameter-k network."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return GaussInt(k, k + 1)


def node_count(k: int) -> int:
    return 2 * k * k + 2 * k + 1


#: The weight kept for the k's other than the newest: a k weighs n^2, a lower
#: bound (fault_pairs, read by f >= 2 sweeps, holds 4 n^2); every k <= 15 is kept.
TABLE_BUDGET = 1 << 20
_TABLES: dict[int, dict] = {}  # k -> {key: table}, first-seen k first
_LOCK = threading.RLock()  # reentrant: a build may read another table of its k


def per_k(build: Callable) -> Callable:
    """Cache build(k), keyed by the builder, shared read-only with k's other
    tables.  On a first miss of k, drop whole k's, oldest first, while they
    outweigh TABLE_BUDGET.  A hit takes no lock; a build that raises stores nothing."""

    @wraps(build)
    def table(k: int):
        try:
            return _TABLES[k][build]
        except KeyError:
            pass
        with _LOCK:
            if k not in _TABLES:
                while sum(node_count(old) ** 2 for old in _TABLES) > TABLE_BUDGET:
                    del _TABLES[next(iter(_TABLES))]
            if build not in _TABLES.get(k, ()):
                value = build(k)  # a build that raises stores nothing
                _TABLES.setdefault(k, {})[build] = value
            return _TABLES[k][build]

    return table


def is_canonical(z: GaussInt, k: int) -> bool:
    return z.l1() <= k


def residue(z: GaussInt, k: int) -> int:
    """The class of z in Z[i]/(alpha_k) = Z/n, as an integer 0..n-1.

    (2k+1) + i = (1 - i) alpha_k, so x + yi = x - (2k+1)y mod alpha_k: the
    residue of a sum is the sum of residues, and a quarter turn multiplies
    the residue by residue(i) = -(2k+1) mod n.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return (z.x - (2 * k + 1) * z.y) % node_count(k)


def node_residue(v: GaussInt, k: int, name: str = "") -> int:
    """The residue of v, which must be canonical: the one check of a node
    argument, with is_canonical and residue inlined for its many callers.
    name, if given, labels v in the error."""
    if abs(v.x) + abs(v.y) > k:
        label = f"{name} {v}" if name else v
        raise ValueError(f"{label} is not canonical for k={k}")
    return (v.x - (2 * k + 1) * v.y) % (2 * k * k + 2 * k + 1)


def reduce(z: GaussInt, k: int) -> GaussInt:
    """Canonical representative of z modulo alpha_k inside the diamond."""
    return network(k).nodes[residue(z, k)]


def rho(z: GaussInt, t: int = 1) -> GaussInt:
    """Rotate z by t quarter turns counterclockwise: rho(x+yi) = -y+xi."""
    x, y = z.x, z.y
    for _ in range(t % 4):
        x, y = -y, x
    return GaussInt(x, y)


def translate(z: GaussInt, s: GaussInt, k: int) -> GaussInt:
    """Translation automorphism: (z + s) mod alpha_k.  Bijective on V_k."""
    return reduce(z + s, k)


class RegionClass(Enum):
    """Partition classes of the node set, defined on the first quadrant wedge.

    S: the unit node on the positive real axis (x = 1).
    B: the interior of the positive real axis (1 < x < k).
    P: the endpoint of the positive real axis (x = k).
    R: the first row above the axis (y = 1, 0 < x < k).
    Q: the remaining wedge interior (x > 0, y > 1, x + y <= k).
    ORIGIN: the root node 0, outside all twenty quadrant regions.
    """

    S = "S"
    B = "B"
    R = "R"
    Q = "Q"
    P = "P"
    ORIGIN = "origin"


@dataclass(frozen=True, slots=True)
class Region:
    """One of the 21 partition classes: a class letter plus a quadrant 1..4."""

    cls: RegionClass
    quadrant: int

    def __str__(self) -> str:
        if self.cls is RegionClass.ORIGIN:
            return "origin"
        return f"{self.cls.value}{self.quadrant}"


ORIGIN_REGION = Region(RegionClass.ORIGIN, 0)


#: The 21 regions by code: 0 the origin, 1 + 5(q - 1) + c the c-th of S, B, R, Q, P in quadrant q
REGIONS = (ORIGIN_REGION, *(Region(c, q) for q in (1, 2, 3, 4) for c in list(RegionClass)[:5]))


@per_k
def region_codes(k: int) -> np.ndarray:
    """The REGIONS code (uint8) of every node, by residue: the quadrant-1 wedge
    {x >= 1, y >= 0, x + y <= k} classed from (x, y) as RegionClass says,
    quadrant q at its residues times residue(i)^(q-1).  Raises unless the 20
    regions partition the non-root residues."""
    # Quadrant q regions are the images of quadrant 1 under rho^(q-1).  This
    # orientation is pinned by the routing regression tests: under it the
    # table-driven router reproduces every tree path, and -i lands in S4 with
    # parent -2i as the parent/child table requires.
    n, turn = node_count(k), residue(IMAG, k)
    x, y = np.mgrid[1:k + 1, 0:k]
    x, y = x[x + y <= k], y[x + y <= k]
    cls = np.where(y == 0, np.where(x == 1, 0, np.where(x == k, 4, 1)), np.where(y == 1, 2, 3))
    at = np.concatenate([(x - (2 * k + 1) * y) * pow(turn, q, n) % n for q in range(4)])
    if not np.array_equal(np.bincount(at, minlength=n), np.arange(n) > 0):
        raise AssertionError(f"k={k}: the 20 regions do not partition the non-root residues")
    codes = np.zeros(n, dtype=np.uint8)
    codes[at] = np.concatenate([cls + 5 * q + 1 for q in range(4)])
    codes.setflags(write=False)  # per_k shares it
    return codes


# -- node literals ----------------------------------------------------------

_NODE_RE = re.compile(
    r"""^\s*(?:
        (?P<re1>[+-]?\d+)\s*(?P<im1>[+-](?:\d+)?)i   # x+yi / x-yi / x+i
      | (?P<im2>[+-]?(?:\d+)?)i                      # yi / i / -i
      | (?P<re2>[+-]?\d+)                            # x
    )\s*$""",
    re.VERBOSE,
)


def parse_node(text: str) -> GaussInt:
    """Parse a node literal like "0", "-2", "3i", "-i" or "-2+2i"."""
    cleaned = text.replace("−", "-").replace(" ", "")
    m = _NODE_RE.match(cleaned)
    if not m:
        raise ValueError(f"malformed node literal: {text!r}")
    if m.group("re2") is not None:
        return GaussInt(int(m.group("re2")), 0)
    x, im = int(m.group("re1") or 0), m.group("im1") or m.group("im2")  # im2 may be ""
    return GaussInt(x, int(im + "1") if im in ("", "+", "-") else int(im))  # i alone is 1i


def format_node(v: GaussInt) -> str:
    """Canonical node literal; inverse of parse_node."""
    x, y = v.x, v.y
    if y == 0:
        return str(x)
    imag = "i" if abs(y) == 1 else f"{abs(y)}i"
    sign = "-" if y < 0 else ""
    if x == 0:
        return sign + imag
    sign = "-" if y < 0 else "+"
    return f"{x}{sign}{imag}"


#: Stands for one leaf value in the shapes given to row_template.
LEAF = "\0"


def row_template(shape: object) -> str:
    """A format string for rows shaped like shape, one {} for each LEAF in
    it: json.dumps(row, indent=2) as it sits in a list two levels deep."""
    row = json.dumps(shape, indent=2).replace("{", "{{").replace("}", "}}")
    return row.replace(json.dumps(LEAF), "{}").replace("\n", "\n    ")


def indented_json(payload: dict, **rows: tuple[str, list[tuple]]) -> str:
    """json.dumps({**payload, key: [row, ...], ...}, indent=2), byte for byte.

    With an indent json.dumps takes its pure-Python encoder, so it sees
    only payload here.  Each list is given as (template, leaves): a
    row_template and, per row, its leaf values as JSON text or ints.
    """
    text = json.dumps({**payload, **{key: [LEAF + key] if leaves else []
                                     for key, (_, leaves) in rows.items()}}, indent=2)
    for key, (template, leaves) in rows.items():
        if leaves:  # each row in place of the list's one mark, LEAF + key
            rows_text = ",\n    ".join(itertools.starmap(template.format, leaves))
            text = text.replace(json.dumps(LEAF + key), rows_text)
    return text


_XY_ROW = row_template({"x": LEAF, "y": LEAF})
_EDGE_ROW = row_template([{"x": LEAF, "y": LEAF}] * 2)


# -- the network ------------------------------------------------------------

def diamond_nodes(k: int) -> list[GaussInt]:
    """All canonical residues, sorted lexicographically by (x, y)."""
    out = []
    for x in range(-k, k + 1):
        span = k - abs(x)
        for y in range(-span, span + 1):
            out.append(GaussInt(x, y))
    return out


class Network:
    """The dense Gaussian network of diameter k, built once and shared read-only.

    Node i is the residue class i of Z/n: nodes[i] is its diamond
    representative, placed at its residue; the root 0 is index 0.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.alpha = alpha(k)
        x, y = np.mgrid[-k:k + 1, -k:k + 1]
        x, y = x[abs(x) + abs(y) <= k], y[abs(x) + abs(y) <= k]
        at = np.empty(node_count(k), dtype=np.intp)  # at[r]: residue r's place in x, y
        at[(x - (2 * k + 1) * y) % len(at)] = np.arange(len(at))
        self.nodes: tuple[GaussInt, ...] = tuple(map(GaussInt, x[at].tolist(), y[at].tolist()))
        self._rank = at  # x, y run in (x, y) order, so at[r] is residue r's rank in it
        self._steps = tuple(residue(d, k) for d in DIRECTIONS)

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, v: GaussInt) -> bool:
        return is_canonical(v, self.k)

    def __iter__(self) -> Iterator[GaussInt]:
        return iter(self.nodes)

    def index(self, v: GaussInt) -> int:
        """The index of canonical v, which is its residue."""
        return node_residue(v, self.k)

    def neighbors(self, v: GaussInt) -> tuple[GaussInt, ...]:
        r, n = self.index(v), len(self.nodes)
        return tuple(self.nodes[(r + s) % n] for s in self._steps)

    def edges(self) -> list[tuple[GaussInt, GaussInt]]:
        """Each adjacency once, ordered by the lexicographically smaller endpoint:
        the 2n pairs (r, r + s), s the residues of +1 and +i, by one lexsort."""
        n, rank = len(self.nodes), self._rank
        a = np.tile(np.arange(n), 2)
        b = (a + np.repeat([self._steps[0], self._steps[2]], n)) % n  # DIRECTIONS: 1, -1, i, -i
        lo = np.where(rank[a] < rank[b], a, b)
        hi = a + b - lo
        order = np.lexsort((rank[hi], rank[lo]))
        return list(zip(map(self.nodes.__getitem__, lo[order].tolist()),
                        map(self.nodes.__getitem__, hi[order].tolist())))

    def is_wraparound(self, a: GaussInt, b: GaussInt) -> bool:
        """True when the raw Gaussian difference of the endpoints is not a unit."""
        return (a - b).l1() != 1

    def to_json(self) -> str:
        return indented_json(
            {"k": self.k, "alpha": {"x": self.alpha.x, "y": self.alpha.y}},
            nodes=(_XY_ROW, [(v.x, v.y) for v in diamond_nodes(self.k)]),
            edges=(_EDGE_ROW, [(a.x, a.y, b.x, b.y) for a, b in self.edges()]),
        )

    def to_dot(self) -> str:
        lines = [f"graph gaussian_{self.k} {{"]
        for v in diamond_nodes(self.k):
            lines.append(f'  "{format_node(v)}";')
        for a, b in self.edges():
            style = " [style=dashed]" if self.is_wraparound(a, b) else ""
            lines.append(f'  "{format_node(a)}" -- "{format_node(b)}"{style};')
        lines.append("}")
        return "\n".join(lines) + "\n"


@per_k
def network(k: int) -> Network:
    """Shared immutable Network instance for k."""
    return Network(k)


def distances_from(u: GaussInt, k: int) -> dict[GaussInt, int]:
    """BFS distances from u to every node, walked on residues."""
    net = network(k)
    n, dist = len(net), {net.index(u): 0}
    frontier = [*dist]
    while frontier:
        nxt = []
        for a in frontier:
            for b in ((a + s) % n for s in net._steps):
                if b not in dist:
                    dist[b] = dist[a] + 1
                    nxt.append(b)
        frontier = nxt
    return {net.nodes[r]: d for r, d in dist.items()}
