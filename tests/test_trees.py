"""Spanning tree construction, path words, region table, independence."""

import json
import pickle
import tracemalloc
from collections.abc import ItemsView, ValuesView

import numpy as np
import pytest

from gaussnet import core, trees
from gaussnet.core import (
    DIRECTIONS,
    GaussInt,
    IMAG,
    ZERO,
    diamond_nodes,
    direction_name,
    network,
    node_count,
    parse_node,
    reduce,
    region_codes,
    residue,
    rho,
)
from gaussnet.trees import (
    SpanningTree,
    _check_tree_k,
    build_tree,
    expand_word,
    fault_pairs,
    fault_singles,
    fault_triples,
    parent_child_spec,
    parent_rows,
    path_word,
    root_paths,
    tree_path,
    verify_independence,
)

from oracles import children_by_lists, classify, reach_tables, region_parent_map


def n(text: str) -> GaussInt:
    return parse_node(text)


def independence_by_reach(k: int) -> tuple[bool, tuple | None]:
    """The plain oracle of verify_independence: an interior node u of v's
    root paths with two or more bits in B[u, v] lies on two of them.  Builds
    the n x n table B (not cached), so it is for small k only."""
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


def forge_ancestor(monkeypatch, j: int, v: int, u: int) -> None:
    """Make u the first ancestor of residue v in tree j+1, in every ancestor
    block that trees._ancestor_blocks yields: v's tree-(j+1) path rewritten."""
    real = trees._ancestor_blocks

    def forged(k, nodes):
        for lo, A in real(k, nodes):
            A[j, 1, A[0, 0] == v] = u
            yield lo, A
    monkeypatch.setattr(trees, "_ancestor_blocks", forged)


def path_by_parents(tree: SpanningTree, v: GaussInt) -> list[GaussInt]:
    """The plain oracle of tree_path: walk tree.parent from v up to the
    root, at most 2k edges, and return the path root first."""
    path = [v]
    while path[-1] != tree.root:
        path.append(tree.parent[path[-1]][0])
        assert len(path) <= 2 * tree.k + 1, f"parent chain from {v} exceeds height bound"
    return path[::-1]


def parent_dict(j: int, k: int) -> dict[GaussInt, tuple[GaussInt, GaussInt]]:
    """The plain oracle of tree j's parent view: the dict build_tree copied
    from row j-1 of parent_rows on each call before trees were views."""
    nodes, parent = network(k).nodes, parent_rows(k)[j - 1]
    unit = {residue(d, k): d for d in DIRECTIONS}
    steps = (parent - np.arange(len(nodes))) % len(nodes)
    rows = zip(nodes[1:], parent[1:].tolist(), steps[1:].tolist())
    return {v: (nodes[p], unit[s]) for v, p, s in rows}


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


class TestTree1:
    def test_edge_count_k4(self):
        assert len(tree1_edge_set(4)) == 40

    @pytest.mark.parametrize("k", range(2, 10))
    def test_matches_edge_set_oracle(self, k):
        # the region table builds tree 1; the edge-set construction pins it
        assert build_tree(1, k).edges() == tree1_edge_set(k)

    @pytest.mark.parametrize("k", range(2, 10))
    def test_spanning(self, k):
        t = build_tree(1, k)
        assert len(t.parent) == node_count(k) - 1
        for v in diamond_nodes(k):
            path = tree_path(t, v)
            assert path[0] == ZERO and path[-1] == v

    def test_reference_path(self):
        t = build_tree(1, 4)
        assert tree_path(t, n("-2+2i")) == [
            n("0"), n("1"), n("2"), n("3"), n("3-i"), n("-2+2i")
        ]

    def test_rejects_k1(self):
        with pytest.raises(ValueError):
            build_tree(1, 1)

    def test_k2_words_cover_parent_map(self):
        # expanding every word must walk tree edges only and end at its node
        t = build_tree(1, 2)
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

    def test_tree3_is_negation(self):
        t1, t3 = build_tree(1, 4), build_tree(3, 4)
        negated = frozenset(frozenset(-v for v in e) for e in t1.edges())
        assert t3.edges() == negated

    @pytest.mark.parametrize("k", range(2, 10))
    def test_rotation_consistency(self, k):
        t1 = build_tree(1, k)
        for j in (2, 3, 4):
            rotated = frozenset(
                frozenset(rho(v, j - 1) for v in e) for e in t1.edges()
            )
            assert build_tree(j, k).edges() == rotated

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            build_tree(5, 3)


class TestParentView:
    @pytest.mark.parametrize("k", [*range(2, 13), 16, 30, 41])
    def test_equals_dict_oracle(self, k):
        for j in (1, 2, 3, 4):
            view, oracle = build_tree(j, k).parent, parent_dict(j, k)
            assert dict(view) == oracle, j  # one lookup per key
            assert list(view.items()) == list(oracle.items()), j  # one pass
            assert list(view.values()) == list(oracle.values()), j

    def test_keys(self):
        k = 4
        view, nodes = build_tree(2, k).parent, network(k).nodes
        assert list(view) == list(nodes[1:]) and len(view) == len(nodes) - 1
        assert all(v in view for v in nodes[1:])
        for key in (ZERO, GaussInt(3, 2), GaussInt(0, -5), (1, 0), 1):
            assert key not in view and view.get(key) is None
            with pytest.raises(KeyError):
                view[key]

    def test_read_only(self):
        view = build_tree(1, 3).parent
        with pytest.raises(TypeError):
            view[n("1")] = (ZERO, GaussInt(-1, 0))
        with pytest.raises(TypeError):
            del view[n("1")]
        assert isinstance(view.items(), ItemsView) and isinstance(view.values(), ValuesView)
        assert (n("1"), view[n("1")]) in view.items() and view[n("1")] in view.values()

    def test_survives_eviction(self, monkeypatch):
        # per_k drops k's tables; the tree keeps reading the row it was given
        monkeypatch.setattr(core, "_TABLES", {})
        k = 7
        t, oracle = build_tree(3, k), parent_dict(3, k)
        monkeypatch.setattr(core, "TABLE_BUDGET", 0)
        network(k + 1)
        assert k not in core._TABLES
        assert dict(t.parent) == oracle and dict(t.parent.items()) == oracle
        assert t.to_json() == SpanningTree(3, k, ZERO, oracle).to_json()

    @pytest.mark.parametrize("j", (1, 2, 3, 4))
    def test_pickle_round_trip(self, j):
        t = build_tree(j, 5)
        copy = pickle.loads(pickle.dumps(t))
        assert copy == t and list(copy.parent.items()) == list(t.parent.items())

    def test_build_holds_no_per_node_state(self, monkeypatch):
        # four trees over the cached tables: views, not n - 1 entries each
        monkeypatch.setattr(core, "_TABLES", {})
        k = 40
        network(k), parent_rows(k)
        tracemalloc.start()
        try:
            held = [build_tree(j, k) for j in (1, 2, 3, 4)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(held) == 4 and peak < 64 * 1024, peak


class TestPathWords:
    def test_reference_word(self):
        word = path_word(n("-2+2i"), 4)
        assert word.steps == ((GaussInt(1, 0), 3), (GaussInt(0, -1), 2))

    def test_axis_endpoint_word(self):
        # sixth case with d = 0: straight run along the axis
        assert path_word(n("4"), 4).steps == ((GaussInt(1, 0), 4),)

    @pytest.mark.parametrize("k", range(2, 10))
    def test_words_equal_tree_paths(self, k):
        t = build_tree(1, k)
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
        t = build_tree(1, 5)
        assert t.depth(n("i")) == 10
        assert t.depth(n("-1")) == 10

    def test_deep_nodes_past_one_byte(self):
        # 2k = 256 does not fit a uint8: the depths widen with k
        t = build_tree(1, 128)
        assert t.depth(IMAG) == 256
        assert len(tree_path(t, IMAG)) == 257

    @pytest.mark.parametrize("k", (2, 5, 9))
    def test_depth_is_path_length(self, k):
        for j in (1, 2, 3, 4):
            t = build_tree(j, k)
            assert [t.depth(v) for v in diamond_nodes(k)] == [
                len(tree_path(t, v)) - 1 for v in diamond_nodes(k)], j
        with pytest.raises(ValueError, match="not canonical"):
            t.depth(GaussInt(k, 1))

    def test_root_path_trivial(self):
        assert tree_path(build_tree(1, 3), ZERO) == [ZERO]


class TestTreePath:
    @pytest.mark.parametrize("k", range(2, 13))
    def test_matches_parent_walk(self, k):
        for j in (1, 2, 3, 4):
            t = build_tree(j, k)
            for v in network(k).nodes:
                assert tree_path(t, v) == path_by_parents(t, v), (j, v)

    def test_follows_root_paths(self, monkeypatch):
        # tree 2's row rewritten as tree 1's: tree_path walks the stored rows
        # for root_paths' depth, not tree.parent
        k, v = 3, n("-2+i")
        t1, t2 = build_tree(1, k), build_tree(2, k)
        forged = parent_rows(k).copy()
        forged[1] = forged[0]
        monkeypatch.setattr("gaussnet.trees.parent_rows", lambda _k: forged)
        monkeypatch.setattr("gaussnet.trees.root_paths", root_paths.__wrapped__)
        assert tree_path(t2, v) == path_by_parents(t1, v)
        assert tree_path(t2, v) != path_by_parents(t2, v)

    def test_rejects_non_canonical(self):
        with pytest.raises(ValueError, match="not canonical"):
            tree_path(build_tree(1, 3), GaussInt(3, 1))


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
        t = build_tree(1, 4)
        assert t.parent[n("-i")] == (n("-2i"), GaussInt(0, -1))
        assert t.parent[n("-1+i")] == (n("-1+2i"), GaussInt(0, 1))
        kids = {c for c, (p, _) in t.parent.items() if p == n("-1+i")}
        assert kids == {n("i"), n("-1")}

    @pytest.mark.parametrize("k", range(2, 10))
    @pytest.mark.parametrize("j", (1, 2, 3, 4))
    def test_table_rebuilds_trees(self, j, k):
        assert region_parent_map(j, k) == dict(build_tree(j, k).parent)

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            parent_child_spec(classify(ZERO, 3), 1)

    @pytest.mark.parametrize("k", [*range(2, 10), 16, 30, 41])
    def test_parent_row_is_region_spec(self, k, monkeypatch):
        # rows 1..3 are row 0 times residue(i), not rotated directions: each
        # row, and each tree's stored direction, is checked against its spec
        monkeypatch.setattr(core, "_TABLES", {})
        nodes = network(k).nodes
        for j in (1, 2, 3, 4):
            up = [parent_child_spec(classify(v, k), j)[0] for v in nodes[1:]]
            assert parent_rows(k)[j - 1, 1:].tolist() == [
                residue(v + d, k) for v, d in zip(nodes[1:], up)], j
            assert [d for _, d in build_tree(j, k).parent.values()] == up, j

    def test_cold_build_reads_each_region_row_once(self, monkeypatch):
        # a fresh k's network, regions and trees read one row per region,
        # not one parent_child_spec call per node; that src/ has no per-node
        # classifier is test_lint's guard
        calls = []
        real = trees.parent_child_spec
        monkeypatch.setattr(trees, "parent_child_spec",
                            lambda *args: calls.append(args) or real(*args))
        monkeypatch.setattr(core, "_TABLES", {})
        network(16), region_codes(16), parent_rows(16)
        assert len(calls) <= 21, calls


class TestIndependence:
    @pytest.mark.parametrize("k", (2, 3, 4))
    def test_pairwise_independent(self, k):
        ok, witness = verify_independence(k)
        assert ok, witness

    def test_reports_shared_interior_node(self, monkeypatch):
        k = 3
        net = network(k)
        v = n("-2+i")
        u = tree_path(build_tree(1, k), v)[1]
        assert tree_path(build_tree(3, k), v)[-2] != ZERO  # an interior node of tree 3's path
        forge_ancestor(monkeypatch, 2, net.index(v), net.index(u))  # u also on tree 3's path
        assert verify_independence(k) == (False, (v, 1, 3, u))

    @pytest.mark.parametrize("k", range(2, 13))
    def test_matches_reach_oracle(self, k):
        assert verify_independence(k) == independence_by_reach(k) == (True, None)

    @pytest.mark.parametrize("k", (3, 6, 8))
    @pytest.mark.parametrize("copies", ({2: 1}, {3: 1}, {4: 2}, {3: 2}, {3: 2, 4: 2}))
    def test_matches_reach_oracle_on_forged_trees(self, monkeypatch, k, copies):
        # tree j's parents replaced by tree copies[j]'s: their paths coincide
        parent = parent_rows(k)
        forged = parent.copy()
        for j, like in copies.items():
            forged[j - 1] = parent[like - 1]
        monkeypatch.setattr("gaussnet.trees.parent_rows", lambda _k: forged)
        monkeypatch.setattr("gaussnet.trees.root_paths", root_paths.__wrapped__)
        ok, witness = verify_independence(k)
        assert not ok and (ok, witness) == independence_by_reach(k)

    def test_blocks_cover_every_node(self, monkeypatch):
        # BLOCK_NODES = 1 makes blocks of 16 // k nodes: five full blocks of 5
        # at k = 3, and at k = 4 ten of 4 and a short one: a witness at the end
        # of a full block, and in the short one
        monkeypatch.setattr("gaussnet.trees.BLOCK_NODES", 1)
        for k, v in ((3, 24), (4, 39), (4, 40)):
            assert verify_independence(k) == (True, None)
            net, first = network(k), parent_rows(k)[0, v]
            with monkeypatch.context() as patch:
                forge_ancestor(patch, 3, v, first)
                assert verify_independence(k) == (False, (net.nodes[v], 1, 4, net.nodes[first]))

    def test_first_steps_distinct(self):
        for k in (2, 4):
            for v in (n("1"), n("-2+1i") if k == 4 else n("1+i")):
                firsts = {
                    tree_path(build_tree(j, k), v)[1] for j in (1, 2, 3, 4)
                }
                assert len(firsts) == 4


class TestChildren:
    @pytest.mark.parametrize("k", [*range(1, 31), 100])
    def test_matches_per_node_lists(self, k):
        assert trees._children(k) == children_by_lists(k)


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

    def test_parent_cycle_raises(self, monkeypatch):
        k = 3
        net = network(k)
        a, b = net.index(n("1")), net.index(n("2"))
        cyclic = parent_rows(k).copy()
        cyclic[0, a], cyclic[0, b] = b, a
        monkeypatch.setattr("gaussnet.trees.parent_rows", lambda _k: cyclic)
        with pytest.raises(AssertionError, match="tree 1 .* parent cycle"):
            root_paths.__wrapped__(k)

    @pytest.mark.parametrize("k", range(1, 10))
    def test_tables_c_contiguous_and_read_only(self, k):
        # the flat kernel ravels LUT and B, which copies any other layout
        tables = (*root_paths(k), *reach_tables(k), *fault_singles(k), *fault_pairs(k),
                  fault_triples(k))
        for i, table in enumerate(tables):
            assert table.flags.c_contiguous and not table.flags.writeable, i
        assert reach_tables(k)[1] is root_paths(k)[1]

    def test_root_paths_holds_no_ancestor_table(self, monkeypatch):
        # depth and LUT alone, 20 bytes a node at k = 100: no [4, 2k + 1, n]
        # table of every ancestor (32 MB there)
        monkeypatch.setattr(core, "_TABLES", {})
        parent_rows(100)
        tracemalloc.start()
        try:
            root_paths(100)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 1 << 20, held

    def test_fault_pairs_build_peak(self, monkeypatch):
        # singles folded a few rows at a time and pair candidates a chunk at a
        # time: the build holds little beyond the three n x n tables it keeps
        monkeypatch.setattr(core, "_TABLES", {})
        root_paths(16), fault_singles(16)
        tracemalloc.start()
        try:
            held = sum(t.nbytes for t in fault_pairs(16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * held, (peak, held)

    @pytest.mark.parametrize("k", range(2, 10))
    def test_fault_pairs_by_brute_force(self, k):
        # every v outside {x, y}, valued LUT[v, trees whose path holds x or y]
        # clipped to k: W is the best value, W2 the next, V the best v where
        # it is the only one
        V, W, W2 = fault_pairs(k)
        B, LUT = reach_tables(k)
        n = len(B)
        cols, rows = np.arange(n), np.arange(1, n)
        for x in range(1, n):
            values = np.maximum(LUT[cols, B[x] | B[rows]], k)  # [y - 1, v]
            values[:, [0, x]] = k
            values[rows - 1, rows] = k
            top = np.sort(values, axis=1)
            y = rows[rows != x]
            assert np.array_equal(W[x, y], top[y - 1, -1]), x
            assert np.array_equal(W2[x, y], top[y - 1, -2]), x
            unique = W[x, y] > W2[x, y]
            want = values[y - 1].argmax(axis=1)
            assert np.array_equal(V[x, y][unique], want[unique]), x

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
        payload = json.loads(build_tree(1, 4).to_json())
        assert payload["j"] == 1 and payload["k"] == 4
        assert len(payload["parents"]) == 40
        dirs = {row["dir"] for row in payload["parents"]}
        assert dirs <= {"+1", "-1", "+i", "-i"}

    @pytest.mark.parametrize("k", range(2, 31))
    def test_json_is_indented_json_dumps(self, k):
        # the rows are filled into one template: json.dumps(indent=2) is the oracle
        for j in (1, 2, 3, 4):
            t = build_tree(j, k)
            rows = [{"node": {"x": c.x, "y": c.y}, "parent": {"x": p.x, "y": p.y},
                     "dir": direction_name(d)}
                    for c, (p, d) in sorted(t.parent.items(), key=lambda it: (it[0].x, it[0].y))]
            assert t.to_json() == json.dumps({"j": j, "k": k, "parents": rows}, indent=2)

    def test_dot(self):
        dot = build_tree(2, 3).to_dot()
        assert dot.startswith("digraph tree_2_k3 {")
        assert dot.count("->") == 24
