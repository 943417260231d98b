"""Spanning tree construction, path words, region table, independence."""

import json

import pytest

from gaussnet.core import (
    GaussInt,
    ZERO,
    classify,
    diamond_nodes,
    network,
    node_count,
    parse_node,
    rho,
)
from gaussnet.trees import (
    build_tree,
    build_tree1,
    expand_word,
    parent_child_spec,
    path_word,
    reach_tables,
    region_parent_map,
    tree1_edge_set,
    tree_path,
    verify_independence,
)


def n(text: str) -> GaussInt:
    return parse_node(text)


class TestTree1:
    def test_edge_count_k4(self):
        assert len(tree1_edge_set(4)) == 40

    @pytest.mark.parametrize("k", range(2, 10))
    def test_spanning(self, k):
        t = build_tree1(k)
        assert len(t.parent) == node_count(k) - 1
        for v in diamond_nodes(k):
            path = tree_path(t, v)
            assert path[0] == ZERO and path[-1] == v

    def test_reference_path(self):
        t = build_tree1(4)
        assert tree_path(t, n("-2+2i")) == [
            n("0"), n("1"), n("2"), n("3"), n("3-i"), n("-2+2i")
        ]

    def test_rejects_k1(self):
        with pytest.raises(ValueError):
            build_tree1(1)

    def test_k2_words_cover_parent_map(self):
        # expanding every word must walk tree edges only and end at its node
        t = build_tree1(2)
        edges = t.edges()
        for v in diamond_nodes(2):
            if v == ZERO:
                continue
            path = expand_word(path_word(v, 2), 2)
            assert path[-1] == v
            for a, b in zip(path, path[1:]):
                assert frozenset((a, b)) in edges


class TestRotatedTrees:
    def test_tree2_reference_path(self):
        t2 = build_tree(2, 4)
        assert tree_path(t2, n("-2-2i")) == [
            n("0"), n("i"), n("2i"), n("3i"), n("1+3i"), n("-2-2i")
        ]

    def test_j1_equals_tree1(self):
        assert build_tree(1, 5).parent == build_tree1(5).parent

    def test_tree3_is_negation(self):
        t1, t3 = build_tree1(4), build_tree(3, 4)
        negated = frozenset(frozenset(-v for v in e) for e in t1.edges())
        assert t3.edges() == negated

    @pytest.mark.parametrize("k", range(2, 10))
    def test_rotation_consistency(self, k):
        t1 = build_tree1(k)
        for j in (2, 3, 4):
            rotated = frozenset(
                frozenset(rho(v, j - 1) for v in e) for e in t1.edges()
            )
            assert build_tree(j, k).edges() == rotated

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            build_tree(5, 3)


class TestPathWords:
    def test_reference_word(self):
        word = path_word(n("-2+2i"), 4)
        assert word.steps == ((GaussInt(1, 0), 3), (GaussInt(0, -1), 2))

    def test_axis_endpoint_word(self):
        # sixth case with d = 0: straight run along the axis
        assert path_word(n("4"), 4).steps == ((GaussInt(1, 0), 4),)

    @pytest.mark.parametrize("k", range(2, 10))
    def test_words_equal_tree_paths(self, k):
        t = build_tree1(k)
        for v in diamond_nodes(k):
            if v == ZERO:
                continue
            assert expand_word(path_word(v, k), k) == tree_path(t, v)

    def test_row_coverage_gap_is_node_i(self):
        # With the narrow second-horizontal case restricted to 1 < d, node i
        # matches no case; the implementation widens that case to d >= 1.
        for k in (2, 4, 6):
            uncovered = []
            for v in diamond_nodes(k):
                if v == ZERO:
                    continue
                c, d = v.x, v.y
                rows = [
                    1 <= c <= k - 1 and 1 <= d <= k - c,
                    c == 0 and d == k,
                    c == 0 and 1 < d <= k - 1,
                    -k <= c <= -1 and 0 <= d <= k + c,
                    -k + 1 <= c <= 0 and -k - c <= d <= -1,
                    1 <= c <= k and -k + c <= d <= 0,
                ]
                if sum(rows) == 0:
                    uncovered.append(v)
                else:
                    assert sum(rows) == 1, f"{v} matches {sum(rows)} cases"
            assert uncovered == [GaussInt(0, 1)]
            assert path_word(GaussInt(0, 1), k).length() == 2 * k

    def test_root_rejected(self):
        with pytest.raises(ValueError):
            path_word(ZERO, 3)


class TestHeight:
    @pytest.mark.parametrize("k", range(2, 10))
    def test_height_exactly_2k(self, k):
        for j in (1, 2, 3, 4):
            t = build_tree(j, k)
            assert max(t.depth(v) for v in diamond_nodes(k)) == 2 * k

    def test_deep_nodes(self):
        t = build_tree1(5)
        assert t.depth(n("i")) == 10
        assert t.depth(n("-1")) == 10

    def test_root_path_trivial(self):
        assert tree_path(build_tree1(3), ZERO) == [ZERO]


class TestRegionTable:
    def test_leaf_row(self):
        parent_dir, child_dirs = parent_child_spec(classify(n("-i"), 4), 1)
        assert parent_dir == GaussInt(0, -1)
        assert child_dirs == frozenset()

    def test_branch_row(self):
        parent_dir, child_dirs = parent_child_spec(classify(n("-1+i"), 4), 1)
        assert parent_dir == GaussInt(0, 1)
        assert child_dirs == frozenset({GaussInt(1, 0), GaussInt(0, -1)})

    def test_reference_examples_in_tree(self):
        t = build_tree1(4)
        assert t.parent[n("-i")] == (n("-2i"), GaussInt(0, -1))
        assert t.parent[n("-1+i")] == (n("-1+2i"), GaussInt(0, 1))
        kids = t.children()[n("-1+i")]
        assert set(kids) == {n("i"), n("-1")}

    @pytest.mark.parametrize("k", range(2, 10))
    @pytest.mark.parametrize("j", (1, 2, 3, 4))
    def test_table_rebuilds_trees(self, j, k):
        assert region_parent_map(j, k) == dict(build_tree(j, k).parent)

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            parent_child_spec(classify(ZERO, 3), 1)


class TestIndependence:
    @pytest.mark.parametrize("k", (2, 3, 4))
    def test_pairwise_independent(self, k):
        ok, witness = verify_independence(k)
        assert ok, witness

    def test_first_steps_distinct(self):
        for k in (2, 4):
            for v in (n("1"), n("-2+1i") if k == 4 else n("1+i")):
                firsts = {
                    tree_path(build_tree(j, k), v)[1] for j in (1, 2, 3, 4)
                }
                assert len(firsts) == 4


class TestReachTables:
    @pytest.mark.parametrize("k", (2, 3, 4))
    def test_against_tree_paths(self, k):
        net = network(k)
        B, LUT = reach_tables(k)
        for v in net.nodes:
            vi = net.index(v)
            paths = [tree_path(build_tree(j, k), v) for j in (1, 2, 3, 4)]
            for u in net.nodes:
                bits = sum(1 << j for j, p in enumerate(paths) if u in p)
                assert B[net.index(u), vi] == bits
            for mask in range(16):
                depths = [len(p) - 1 for j, p in enumerate(paths)
                          if not mask >> j & 1]
                assert LUT[vi, mask] == min(depths, default=0)

    def test_k1_direct_edges(self):
        net = network(1)
        B, LUT = reach_tables(1)
        root = net.index(ZERO)
        for i, v in enumerate(net.nodes):
            assert B[i, i] == 15
            if i != root:
                assert B[root, i] == 15 and LUT[i, 0] == 1 and LUT[i, 15] == 0
        assert not LUT[root].any()


class TestExports:
    def test_json(self):
        payload = json.loads(build_tree1(4).to_json())
        assert payload["j"] == 1 and payload["k"] == 4
        assert len(payload["parents"]) == 40
        dirs = {row["dir"] for row in payload["parents"]}
        assert dirs <= {"+1", "-1", "+i", "-i"}

    def test_dot(self):
        dot = build_tree(2, 3).to_dot()
        assert dot.startswith("digraph tree_2_k3 {")
        assert dot.count("->") == 24
