"""Table-driven routing against the tree-path oracle; broadcast and splitting."""

import random

import pytest

from gaussnet.core import (
    GaussInt,
    ZERO,
    diamond_nodes,
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
    table_decision,
)
from gaussnet.trees import build_tree, tree_path


def n(text: str) -> GaussInt:
    return parse_node(text)


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
    def test_axis_endpoint_toward_axis(self):
        # endpoint of the positive real axis forwarding back along tree 2
        d = table_decision(n("4"), n("2"), 4)
        assert (d.direction, d.tree) == (GaussInt(-1, 0), 2)

    def test_wedge_column_climb(self):
        d = table_decision(n("1+2i"), n("1+3i"), 4)
        assert (d.direction, d.tree) == (GaussInt(0, 1), 1)

    def test_axis_run_to_endpoint(self):
        d = table_decision(n("2"), n("4"), 4)
        assert (d.direction, d.tree) == (GaussInt(1, 0), 1)

    def test_consume_at_destination(self):
        assert table_decision(n("2"), n("2"), 4).is_consume


class TestDecide:
    def test_consume(self):
        assert decide(n("1+i"), n("1+i"), 3).is_consume

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

    @pytest.mark.parametrize("k", (2, 3, 4))
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

    def test_trace_format(self):
        trace = format_trace(route(ZERO, n("-2+2i"), 1, 4), 1, 4)
        lines = trace.splitlines()
        assert lines[0] == "step 1: node (0) --+1--> node (1) [tree 1]"
        assert lines[3] == "step 4: node (3) ---i--> node (3-i) [tree 1]"
        assert lines[-1].endswith("node (-2+2i) [tree 1]")
        assert all("[tree 1]" in line for line in lines)


class TestBroadcast:
    def test_fault_free_delivers_everywhere(self):
        out = broadcast(ZERO, (), 3)
        assert len(out) == 24
        assert all(trees == {1, 2, 3, 4} for trees in out.values())

    @pytest.mark.parametrize("f", (1, 2, 3))
    def test_exhaustive_k2(self, f):
        import itertools

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

    def test_validation(self):
        with pytest.raises(ValueError):
            broadcast(ZERO, (n("1"), n("2"), n("i"), n("-i")), 3)
        with pytest.raises(ValueError):
            broadcast(n("1"), (n("1"),), 3)
        with pytest.raises(ValueError):  # 3+4i is alpha, the source mod alpha
            broadcast(ZERO, (GaussInt(3, 4),), 3)
        with pytest.raises(ValueError):
            broadcast(ZERO, (), 1)


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
