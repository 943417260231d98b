"""Table-driven routing against the tree-path oracle; broadcast and splitting."""

import itertools
import pickle
import random
import tracemalloc

import numpy as np
import pytest

from gaussnet import core, router
from gaussnet.core import (
    GaussInt,
    ONE,
    ZERO,
    diamond_nodes,
    network,
    parse_node,
    reduce,
    translate,
)
from gaussnet.router import (
    RoutingError,
    broadcast,
    decide,
    format_trace,
    route,
    secure_split,
    start_route,
)
from gaussnet.trees import build_tree, tree_path

from oracles import reach_tables


def n(text: str) -> GaussInt:
    return parse_node(text)


def broadcast_by_reach(s: GaussInt, faults, k: int, B: np.ndarray) -> dict[GaussInt, set[int]]:
    """The plain oracle of broadcast: tree j delivers to v unless bit j-1 of
    OR_f B[f, v] is set, all relative to s; keys in residue order from s."""
    nodes = network(k).nodes
    nn, r_s = len(nodes), core.residue(s, k)
    blocked = np.zeros(nn, dtype=np.uint8)
    for f in faults:
        blocked |= B[(core.residue(f, k) - r_s) % nn]
    trees = [{j + 1 for j in range(4) if not mask >> j & 1} for mask in range(16)]
    return {nodes[(r + r_s) % nn]: trees[mask] for r, mask in enumerate(blocked.tolist()) if r}


class TestStartRoute:
    def test_directions_by_tree(self):
        assert start_route(ZERO, n("2"), 1, 3) == GaussInt(1, 0)
        assert start_route(ZERO, n("2"), 2, 3) == GaussInt(0, 1)
        assert start_route(ZERO, n("2"), 3, 3) == GaussInt(-1, 0)
        assert start_route(ZERO, n("2"), 4, 3) == GaussInt(0, -1)

    def test_source_equals_destination(self):
        with pytest.raises(ValueError):
            start_route(n("1"), n("1"), 1, 3)


class TestTableDecision:
    """Grid cells for quadrant-1 destinations, which decide reads unturned."""

    def test_axis_endpoint_toward_axis(self):
        # endpoint of the positive real axis forwarding back along tree 2
        d = decide(n("4"), n("2"), 4)
        assert (d.direction, d.tree) == (GaussInt(-1, 0), 2)

    def test_wedge_column_climb(self):
        d = decide(n("1+2i"), n("1+3i"), 4)
        assert (d.direction, d.tree) == (GaussInt(0, 1), 1)

    def test_axis_run_to_endpoint(self):
        d = decide(n("2"), n("4"), 4)
        assert (d.direction, d.tree) == (GaussInt(1, 0), 1)

    def test_consume_at_destination(self):
        assert decide(n("2"), n("2"), 4).is_consume


class TestDecide:
    def test_consume(self):
        assert decide(n("1+i"), n("1+i"), 3).is_consume

    def test_rejects_non_canonical_nodes(self):
        # 5 = -i mod alpha_2, and 3 lies outside the diamond of k = 2
        for t, d in ((n("5"), n("1")), (n("1"), n("5")), (n("3"), n("3"))):
            with pytest.raises(ValueError, match="not canonical"):
                decide(t, d, 2)

    def test_rotated_case_matches_tree(self):
        # transient on the positive imaginary axis, destination in the
        # fourth quadrant: the unique serving tree is found by the oracle
        t, d, k = n("2i"), n("2-i"), 4
        serving = None
        for j in (1, 2, 3, 4):
            path = tree_path(build_tree(j, k), d)
            if t in path[1:-1]:
                serving = (j, path[path.index(t) + 1])
        assert serving is not None
        j, nxt = serving
        decision = decide(t, d, k)
        assert decision.tree == j
        assert reduce(t + decision.direction, k) == nxt

    def test_unreachable_cell_raises(self):
        # no tree path to an axis destination passes through -1+i
        t, d, k = n("-1+i"), n("2"), 3
        for j in (1, 2, 3, 4):
            assert t not in tree_path(build_tree(j, k), d)[1:-1]
        with pytest.raises(RoutingError):
            decide(t, d, k)


class TestRoute:
    def test_reference_paths(self):
        assert route(ZERO, n("-2+2i"), 1, 4) == [
            n("0"), n("1"), n("2"), n("3"), n("3-i"), n("-2+2i")
        ]
        assert route(ZERO, n("-2-2i"), 2, 4) == [
            n("0"), n("i"), n("2i"), n("3i"), n("1+3i"), n("-2-2i")
        ]

    @pytest.mark.parametrize("k", range(2, 10))
    def test_oracle_exhaustive(self, k):
        trees = [build_tree(j, k) for j in (1, 2, 3, 4)]
        for v in diamond_nodes(k):
            if v == ZERO:
                continue
            for j in (1, 2, 3, 4):
                assert route(ZERO, v, j, k) == tree_path(trees[j - 1], v)

    def test_translation_invariance(self):
        rng = random.Random(3)
        for k in (3, 4):
            nodes = diamond_nodes(k)
            for _ in range(50):
                s, d = rng.sample(nodes, 2)
                j = rng.randint(1, 4)
                base = route(ZERO, reduce(d - s, k), j, k)
                assert route(s, d, j, k) == [translate(v, s, k) for v in base]

    @pytest.mark.parametrize("k", (2, 3, 4, 5))
    def test_length_bound_tight(self, k):
        longest = 0
        for v in diamond_nodes(k):
            if v == ZERO:
                continue
            longest = max(longest, len(route(ZERO, v, 1, k)) - 1)
        assert longest == 2 * k

    def test_source_equals_destination(self):
        with pytest.raises(ValueError):
            route(n("1"), n("1"), 1, 3)

    def test_rejects_non_canonical_nodes(self):
        # 5 = -i mod alpha_2: it must not be routed as if it were -i
        for s, d in ((n("5"), ZERO), (ZERO, n("5")), (ZERO, n("2+i"))):
            with pytest.raises(ValueError, match="not canonical"):
                route(s, d, 1, 2)
        with pytest.raises(ValueError, match="not canonical"):
            secure_split(ZERO, n("5"), 2, b"abcd")

    def test_disjoint_across_trees_k2(self):
        k = 2
        nodes = diamond_nodes(k)
        for s in nodes:
            for d in nodes:
                if s == d:
                    continue
                interiors = [set(route(s, d, j, k)[1:-1]) for j in (1, 2, 3, 4)]
                for a in range(4):
                    for b in range(a + 1, 4):
                        assert not interiors[a] & interiors[b]

    def test_rejects_k1(self):
        # k = 1 has no trees, so every routing call refuses it as broadcast does
        for call in (
            lambda: route(ZERO, n("-i"), 1, 1),
            lambda: route(ZERO, n("1"), 1, 1),
            lambda: decide(n("1"), n("i"), 1),
            lambda: secure_split(ZERO, n("1"), 1, b"abcd"),
        ):
            with pytest.raises(ValueError, match="k >= 2, got 1"):
                call()

    def test_trace_format(self):
        trace = format_trace(route(ZERO, n("-2+2i"), 1, 4), 1, 4)
        lines = trace.splitlines()
        assert lines[0] == "step 1: node (0) --+1--> node (1) [tree 1]"
        assert lines[3] == "step 4: node (3) ---i--> node (3-i) [tree 1]"
        assert lines[-1].endswith("node (-2+2i) [tree 1]")
        assert all("[tree 1]" in line for line in lines)


class TestRouteErrors:
    """Grid faults surface as RoutingError, reported in the caller's frame.

    Every case routes 0 -> 3i on tree 2 at k = 3: the destination lies in
    quadrant 2, so the walk runs in the frame turned back by one quarter,
    where the path is 0, 1, 2, 3 and tree 2 is tree 1.  The forged cells
    sit in the row of S1/B1 (nodes 1 and 2 of that frame) and the column
    of P1 (node 3).
    """

    @pytest.fixture
    def forge(self, monkeypatch):
        def forge_cell(cell):
            row = router._CODE_ROWS[1]  # code 1 is S1, whose row B1 shares
            forged = (*row[:3], cell)
            monkeypatch.setattr(router, "_CODE_ROWS",
                                tuple(forged if r is row else r for r in router._CODE_ROWS))
            core._TABLES.clear()

        yield forge_cell
        core._TABLES.clear()

    def test_unreachable_cell(self, forge):
        forge(None)
        with pytest.raises(RoutingError,
                           match="unreachable decision cell: transient S1 for destination P1"):
            route(ZERO, n("3i"), 2, 3)

    def test_tree_mismatch(self, forge):
        forge((GaussInt(1, 0), 2))
        with pytest.raises(RoutingError, match="decision at i serves tree 3, expected 2"):
            route(ZERO, n("3i"), 2, 3)

    def test_return_to_source(self, forge):
        forge((GaussInt(-1, 0), 1))
        with pytest.raises(RoutingError, match="coincides with the source"):
            route(ZERO, n("3i"), 2, 3)

    def test_height_bound(self, forge):
        forge(lambda t, d, k: (GaussInt(1, 0), 1) if t.x == 1 else (GaussInt(-1, 0), 1))
        with pytest.raises(RoutingError, match="height bound") as exc:
            route(ZERO, n("3i"), 2, 3)
        # the partial path is reported relative to the source, unrotated
        assert "GaussInt(0, 2), GaussInt(0, 1), GaussInt(0, 2)" in str(exc.value)


class TestBroadcast:
    def test_fault_free_delivers_everywhere(self):
        out = broadcast(ZERO, (), 3)
        assert len(out) == 24
        assert all(trees == {1, 2, 3, 4} for trees in out.values())

    @pytest.mark.parametrize("f", (1, 2, 3))
    def test_exhaustive_k2(self, f):
        nodes = [v for v in diamond_nodes(2) if v != ZERO]
        for faults in itertools.combinations(nodes, f):
            out = broadcast(ZERO, faults, 2)
            for v, trees in out.items():
                if v in faults:
                    assert trees == set()
                else:
                    assert trees, f"{v} unreachable under {faults}"

    def test_neighborhood_fault_case(self):
        # three of the root's neighbours faulty: the fourth tree still delivers
        faults = (n("1"), n("-1"), n("i"))
        out = broadcast(ZERO, faults, 2)
        for v, trees in out.items():
            if v not in faults:
                assert trees
        assert out[n("-i")] >= {4}

    @pytest.mark.parametrize("k", (5, 6))
    def test_randomized_larger_orders(self, k):
        rng = random.Random(99)
        nodes = [v for v in diamond_nodes(k) if v != ZERO]
        for _ in range(5000):
            faults = rng.sample(nodes, rng.randint(1, 3))
            out = broadcast(ZERO, faults, k)
            for v, trees in out.items():
                if v not in faults:
                    assert trees

    def test_translated_source(self):
        s = n("1+i")
        base = broadcast(ZERO, (n("1"),), 3)
        shifted = broadcast(s, (translate(n("1"), s, 3),), 3)
        for v, trees in base.items():
            assert shifted[translate(v, s, 3)] == trees

    @pytest.mark.parametrize("k", range(2, 7))
    def test_delivering_trees_oracle(self, k):
        # tree j delivers to v exactly when its root path to v - s, past the
        # source, avoids every fault taken relative to s
        rng = random.Random(400 + k)
        nodes = diamond_nodes(k)
        paths = {
            (j, v): tree_path(build_tree(j, k), v)[1:]
            for j in (1, 2, 3, 4) for v in nodes if v != ZERO
        }
        for s in rng.sample(nodes, 4):
            for _ in range(25):
                faults = rng.sample([v for v in nodes if v != s], rng.randint(0, 3))
                rel_faults = {reduce(f - s, k) for f in faults}
                out = broadcast(s, faults, k)
                assert set(out) == set(nodes) - {s}
                for v, trees in out.items():
                    rel_v = reduce(v - s, k)
                    want = {
                        j for j in (1, 2, 3, 4)
                        if rel_faults.isdisjoint(paths[(j, rel_v)])
                    }
                    assert trees == want, f"k={k} s={s} faults={faults} v={v}"

    @pytest.mark.parametrize("k", (2, 3, 4))
    def test_every_small_fault_set_matches_reach_oracle(self, k):
        B, _ = reach_tables(k)
        others = network(k).nodes[1:]
        for f in range(4):
            for faults in itertools.combinations(others, f):
                out = broadcast(ZERO, faults, k)
                want = broadcast_by_reach(ZERO, faults, k, B)
                assert out == want and list(out) == list(want), faults

    @pytest.mark.parametrize("k", range(5, 31))
    def test_seeded_sources_and_faults_match_reach_oracle(self, k):
        B, _ = reach_tables(k)
        nodes, rng = network(k).nodes, random.Random(700 + k)
        for _ in range(200):
            s, *faults = rng.sample(nodes, 1 + rng.randint(0, 3))
            out = broadcast(s, faults, k)
            want = broadcast_by_reach(s, faults, k, B)
            assert out == want and list(out) == list(want), (s, faults)

    def test_cold_call_builds_no_square_table(self, monkeypatch):
        # the walk reads the child lists run() shares: nothing n x n (B would
        # take n^2 = 10.5 MB at k=40)
        monkeypatch.setattr(core, "_TABLES", {})
        network(40)
        tracemalloc.start()
        try:
            broadcast(ZERO, [ONE], 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak

    def test_validation(self):
        with pytest.raises(ValueError):
            broadcast(ZERO, (n("1"), n("2"), n("i"), n("-i")), 3)
        with pytest.raises(ValueError):
            broadcast(n("1"), (n("1"),), 3)
        with pytest.raises(ValueError):  # 3+4i is alpha, the source mod alpha
            broadcast(ZERO, (GaussInt(3, 4),), 3)
        with pytest.raises(ValueError):
            broadcast(ZERO, (), 1)
        for s, faults in ((n("5"), ()), (ZERO, (n("5"),)), (ZERO, (n("1"), n("3")))):
            with pytest.raises(ValueError, match="not canonical"):
                broadcast(s, faults, 2)


class TestBroadcastView:
    """broadcast's result is a read-only trees.ResidueView over one list, its
    values the shared frozensets of router._DELIVERED."""

    def test_keys(self):
        k, s, faults = 3, n("1-i"), (n("2-i"), n("i"))
        view, nodes = broadcast(s, faults, k), network(k).nodes
        r_s = core.residue(s, k)
        assert list(view) == [nodes[(r + r_s) % len(nodes)] for r in range(1, len(nodes))]
        assert len(view) == len(nodes) - 1 and all(v in view for v in view)
        assert view[faults[0]] == frozenset() and view.get(faults[1]) == frozenset()
        assert all(type(trees) is frozenset for trees in view.values())
        for key in (s, GaussInt(3, 1), GaussInt(0, -5), (1, 0), 1, "1"):
            assert key not in view and view.get(key) is None
            with pytest.raises(KeyError):
                view[key]

    def test_values_are_shared(self):
        a, b = broadcast(ZERO, (), 3), broadcast(n("1"), (n("2"),), 4)
        assert a[n("i")] is a[n("-i")] is router._DELIVERED[0]  # all four trees
        assert b[n("2")] is router._DELIVERED[15]  # the fault: none

    def test_read_only_and_pickles(self):
        view = broadcast(n("1-i"), (n("2"),), 3)
        with pytest.raises(TypeError):
            view[n("1")] = frozenset()
        with pytest.raises(TypeError):
            del view[n("1")]
        copy = pickle.loads(pickle.dumps(view))
        assert list(copy.items()) == list(view.items()) and copy == view

    def test_three_fault_call_holds_no_node_dict(self):
        # with warm tables the call holds its blocked list (28 KB at k=40),
        # not n - 1 fresh sets in a dict (884 KB)
        k = 40
        s, *faults = random.Random(40).sample(network(k).nodes, 4)
        broadcast(s, faults, k)
        tracemalloc.start()
        try:
            out = broadcast(s, faults, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == core.node_count(k) - 1 and peak < 128 * 1024, peak


class TestSecureSplit:
    def test_no_intermediate_overlap(self):
        rng = random.Random(5)
        nodes = diamond_nodes(4)
        for _ in range(20):
            s, d = rng.sample(nodes, 2)
            parts = secure_split(s, d, 4, b"0123456789")
            seen = {}
            for packet, path in parts:
                for v in path[1:-1]:
                    assert v not in seen
                    seen[v] = packet.tree
            assert len(seen) == sum(len(p) - 2 for _, p in parts)

    def test_payload_partition(self):
        msg = b"abcdefghij"
        parts = secure_split(ZERO, n("2+i"), 4, msg)
        assert b"".join(p.payload for p, _ in parts) == msg
        assert [p.tree for p, _ in parts] == [1, 2, 3, 4]

    def test_adjacent_destination(self):
        parts = secure_split(ZERO, n("1"), 3, b"xyzw")
        lengths = sorted(len(path) - 1 for _, path in parts)
        assert lengths[0] == 1

    def test_shared_interior_node_raises(self, monkeypatch):
        # tree 2 forged onto tree 1's path 0, 1, 2, 2+i: node 1 is on both;
        # the split walks its routes on residues, as route does
        real = router._walk

        def forged(r_s, r_d, j, k):
            return real(r_s, r_d, 1 if j == 2 else j, k)

        monkeypatch.setattr(router, "_walk", forged)
        with pytest.raises(RoutingError,
                           match="node 1 lies on trees 1 and 2; paths not disjoint"):
            secure_split(ZERO, n("2+i"), 3, b"abcd")
