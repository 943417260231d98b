"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The sweep criterion reproduces the reference step tables exhaustively for
k = 1..9 and f = 0..3 (about 1.8 million runs).
"""

import itertools
import random
from collections import deque

from gaussnet.core import (
    GaussInt,
    ZERO,
    diamond_nodes,
    distances_from,
    network,
    node_count,
    parse_node,
    reduce,
    rho,
    translate,
)
from gaussnet.router import broadcast, route, secure_split
from gaussnet.simulator import SimConfig, run, sweep
from gaussnet.trees import (
    build_tree,
    expand_word,
    path_word,
    tree_path,
    verify_independence,
)

from oracles import region_parent_map

# Reference step tables: average of per-run maxima (3 decimals) and the
# maximum of maxima, per fault count, for alpha = 1+2i .. 9+10i.
REFERENCE_AVG = {
    0: [2, 3, 4, 5, 6, 7, 8, 9, 10],
    1: [2, 3.333, 4.5, 5.6, 6.666, 7.714, 8.75, 9.777, 10.8],
    2: [2, 3.515, 4.847, 6.061, 7.213, 8.329, 9.421, 10.498, 11.563],
    3: [2, 3.618, 5.094, 6.417, 7.658, 8.849, 10.009, 11.145, 12.266],
}
REFERENCE_MAX = {
    0: [2, 3, 4, 5, 6, 7, 8, 9, 10],
    1: [2, 4, 6, 8, 10, 12, 14, 16, 18],
    2: [2, 4, 6, 8, 10, 12, 14, 16, 18],
    3: [2, 4, 6, 8, 10, 12, 14, 16, 18],
}

AVG_TOL = 0.005   # after rounding to 3 decimals
SAMPLED_TOL = 0.02


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name} failed{suffix}"


def _all_pairs_diameter(k: int) -> int:
    net = network(k)
    n = len(net)
    adj = [[net.index(w) for w in net.neighbors(v)] for v in net.nodes]
    worst = 0
    for src in range(n):
        dist = [-1] * n
        dist[src] = 0
        dq = deque([src])
        while dq:
            u = dq.popleft()
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    dq.append(w)
        worst = max(worst, max(dist))
    return worst


def test_criterion_1_topology():
    for k in range(1, 10):
        net = network(k)
        assert len(net) == node_count(k) == 2 * k * k + 2 * k + 1
        for v in net.nodes:
            assert len(set(net.neighbors(v))) == 4
        dist = distances_from(ZERO, k)
        for j in range(1, k + 1):
            assert sum(1 for d in dist.values() if d == j) == 4 * j
        assert _all_pairs_diameter(k) == k
    _report(1, "topology", True, "k=1..9: counts, degree 4, diameter, 4j shells")


def test_criterion_2_trees():
    for k in range(2, 10):
        t1 = build_tree(1, k)
        for j in (1, 2, 3, 4):
            t = build_tree(j, k)
            assert len(t.parent) == node_count(k) - 1
            height = max(t.depth(v) for v in diamond_nodes(k))
            assert height == 2 * k
            rotated = frozenset(
                frozenset(rho(v, j - 1) for v in e) for e in t1.edges()
            )
            assert t.edges() == rotated
    _report(2, "trees", True, "k=2..9: spanning, height 2k, rotation images")


def test_criterion_3_independence():
    for k in range(2, 10):
        ok, witness = verify_independence(k)
        assert ok, f"k={k}: {witness}"
    _report(3, "independence", True, "k=2..9 exhaustive, all tree pairs")


def test_criterion_4_path_words():
    for k in range(2, 10):
        t1 = build_tree(1, k)
        for v in diamond_nodes(k):
            if v == ZERO:
                continue
            assert expand_word(path_word(v, k), k) == tree_path(t1, v)
    word = path_word(parse_node("-2+2i"), 4)
    assert word.steps == ((GaussInt(1, 0), 3), (GaussInt(0, -1), 2))
    assert expand_word(word, 4) == [
        parse_node(s) for s in ("0", "1", "2", "3", "3-i", "-2+2i")
    ]
    t2_path = tree_path(build_tree(2, 4), parse_node("-2-2i"))
    assert t2_path == [
        parse_node(s) for s in ("0", "i", "2i", "3i", "1+3i", "-2-2i")
    ]
    _report(4, "path-words", True, "k=2..9 expansion plus the reference examples")


def test_criterion_5_router_oracle():
    for k in range(2, 7):
        trees = [build_tree(j, k) for j in (1, 2, 3, 4)]
        for v in diamond_nodes(k):
            if v == ZERO:
                continue
            for j in (1, 2, 3, 4):
                assert route(ZERO, v, j, k) == tree_path(trees[j - 1], v)
        rng = random.Random(1000 + k)
        nodes = diamond_nodes(k)
        for _ in range(200):
            s, d = rng.sample(nodes, 2)
            j = rng.randint(1, 4)
            base = route(ZERO, reduce(d - s, k), j, k)
            assert route(s, d, j, k) == [translate(v, s, k) for v in base]
    _report(5, "router-oracle", True,
            "k=2..6 exhaustive root routes; 200 random translations per k")


def test_criterion_6_region_table():
    for k in range(2, 10):
        for j in (1, 2, 3, 4):
            assert region_parent_map(j, k) == dict(build_tree(j, k).parent)
    _report(6, "region-table", True, "rows rebuild all trees, k=2..9")


def test_criterion_7_fault_free_construction():
    for k in range(1, 10):
        sim = run(SimConfig(k=k))
        assert sim.last_active_round == k + 1, f"k={k}"
        assert sim.messages_sent == 6 * k * k + 6 * k + 4, f"k={k}"
    _report(7, "fault-free-construction", True, "k+1 rounds, 6k^2+6k+4 messages")


def test_criterion_8_fault_sweep_tables():
    details = []
    for ki, k in enumerate(range(1, 10)):
        for f in range(4):
            st = sweep(k, f)
            got_avg = round(float(st.avg_max), 3)
            want_avg = REFERENCE_AVG[f][ki]
            assert abs(got_avg - want_avg) <= AVG_TOL + 1e-9, (
                f"k={k} f={f}: avg {got_avg} vs reference {want_avg}"
            )
            assert st.max_max == REFERENCE_MAX[f][ki], (
                f"k={k} f={f}: max {st.max_max} vs reference {REFERENCE_MAX[f][ki]}"
            )
            if f == 0:
                assert st.avg_max == k + 1 and st.max_max == k + 1
        details.append(f"k={k} ok")
    _report(8, "fault-sweep-tables", True,
            "exhaustive k=1..9, f=0..3 within %.3f" % AVG_TOL)


def test_criterion_8_sampled_mode():
    st = sweep(9, 3, sample=100_000, seed=20260811)
    got = float(st.avg_max)
    want = REFERENCE_AVG[3][8]
    assert abs(got - want) <= SAMPLED_TOL, f"sampled avg {got} vs {want}"
    assert st.max_max <= 18
    _report(8, "fault-sweep-sampled", True,
            f"100k sampled runs, avg {got:.3f} vs {want} (tol {SAMPLED_TOL})")


def test_criterion_9_broadcast_resilience():
    for k in (2, 3, 4):
        others = [v for v in diamond_nodes(k) if v != ZERO]
        for f in (0, 1, 2, 3):
            for faults in itertools.combinations(others, f):
                delivered = broadcast(ZERO, faults, k)
                for v, trees in delivered.items():
                    if v not in faults:
                        assert trees, f"k={k} faults={faults}: {v} unreached"
    _report(9, "broadcast-resilience", True,
            "k=2..4, every fault set of size <= 3")


def test_criterion_10_secure_split():
    for k in range(2, 7):
        rng = random.Random(2000 + k)
        nodes = diamond_nodes(k)
        for _ in range(100):
            s, d = rng.sample(nodes, 2)
            parts = secure_split(s, d, k, b"payload-bytes")
            seen = set()
            for _, path in parts:
                for v in path[1:-1]:
                    assert v not in seen
                    seen.add(v)
    _report(10, "secure-split", True, "k=2..6, 100 random pairs each, no overlap")
