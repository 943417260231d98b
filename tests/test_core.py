"""Arithmetic, canonical residues, partition, and topology checks."""

import copy
import dataclasses
import pickle
import random
import sys
import threading
import time

import pytest

from gaussnet import core
from gaussnet.core import (
    DIRECTIONS,
    GaussInt,
    LEAF,
    Network,
    ONE,
    REGIONS,
    RegionClass,
    TABLE_BUDGET,
    ZERO,
    alpha,
    diamond_nodes,
    distances_from,
    format_node,
    indented_json,
    network,
    node_count,
    norm,
    parse_node,
    per_k,
    reduce,
    region_codes,
    residue,
    rho,
    row_template,
    translate,
)
from gaussnet.router import broadcast, decide, route, secure_split
from gaussnet.simulator import SimConfig, run, sweep
from gaussnet.trees import build_tree, fault_singles, path_word, tree_path

from oracles import bfs_distance, classify, neighbors

import json


def brute_reduce(z: GaussInt, k: int) -> GaussInt:
    """Independent oracle: scan the diamond for the unique residue of z.

    w is a residue of z iff (z - w) * conj(alpha) has both components
    divisible by norm(alpha).
    """
    a = alpha(k)
    n = norm(a)
    hits = []
    for w in diamond_nodes(k):
        t = (z - w) * a.conj()
        if t.x % n == 0 and t.y % n == 0:
            hits.append(w)
    assert len(hits) == 1, f"{z} has {len(hits)} residues in the diamond"
    return hits[0]


class TestGaussInt:
    def test_norm_examples(self):
        assert norm(GaussInt(3, 4)) == 25
        assert norm(ZERO) == 0

    def test_norm_counts_diamond(self):
        # |V_4| by brute lattice enumeration
        count = sum(
            1
            for x in range(-4, 5)
            for y in range(-4, 5)
            if abs(x) + abs(y) <= 4
        )
        assert norm(GaussInt(4, 5)) == count == 41

    def test_arithmetic(self):
        a, b = GaussInt(2, -3), GaussInt(-1, 4)
        assert a + b == GaussInt(1, 1)
        assert a - b == GaussInt(3, -7)
        assert a * b == GaussInt(10, 11)
        assert a.conj() == GaussInt(2, 3)
        assert -a == GaussInt(-2, 3)

    @pytest.mark.parametrize("k", range(1, 41))
    def test_diamond_hashes_distinct(self, k):
        nodes = diamond_nodes(k)
        assert len({hash(v) for v in nodes}) == len(nodes)

    def test_hash_formula(self):
        coords = (0, 1, -1, 2, -2, 7, -3, 2**32 - 1, -(2**32),
                  2**70, -(2**70) - 1, 3**50)
        for x in coords:
            for y in coords:
                assert hash(GaussInt(x, y)) == hash(2 * ((x << 32) + y) + 1), (x, y)

    def test_copies_equal_with_equal_hash(self):
        for v in (GaussInt(3, -2), GaussInt(-1, -2), GaussInt(2**70, -(2**71))):
            copies = [copy.copy(v), copy.deepcopy(v), dataclasses.replace(v)]
            copies += [pickle.loads(pickle.dumps(v, p))
                       for p in range(pickle.HIGHEST_PROTOCOL + 1)]
            for c in copies:
                assert type(c) is GaussInt and c == v and hash(c) == hash(v)
            moved = dataclasses.replace(v, y=5)
            assert moved == GaussInt(v.x, 5) and hash(moved) == hash(GaussInt(v.x, 5))

    def test_dataclass_surface(self):
        v = GaussInt(3, -2)
        assert tuple(f.name for f in dataclasses.fields(v)) == ("x", "y")
        assert dataclasses.astuple(v) == (3, -2)
        assert repr(v) == "GaussInt(3, -2)"
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.x = 4

    def test_node_count(self):
        for k in range(1, 10):
            assert node_count(k) == len(diamond_nodes(k)) == norm(alpha(k))


class TestReduce:
    def test_wraparound_example(self):
        assert reduce(GaussInt(3, -2), 4) == GaussInt(-2, 2)

    def test_already_canonical(self):
        assert reduce(GaussInt(2, 1), 4) == GaussInt(2, 1)

    def test_against_brute_oracle(self):
        assert reduce(GaussInt(4, 0), 3) == brute_reduce(GaussInt(4, 0), 3)
        rng = random.Random(7)
        for k in (1, 2, 3, 5, 8):
            for _ in range(40):
                z = GaussInt(rng.randint(-40, 40), rng.randint(-40, 40))
                assert reduce(z, k) == brute_reduce(z, k)

    def test_idempotent_and_divisible(self):
        rng = random.Random(11)
        for k in (2, 4, 7):
            a, n = alpha(k), norm(alpha(k))
            for _ in range(60):
                z = GaussInt(rng.randint(-100, 100), rng.randint(-100, 100))
                r = reduce(z, k)
                assert reduce(r, k) == r
                t = (z - r) * a.conj()
                assert t.x % n == 0 and t.y % n == 0

    def test_complete_residue_system(self):
        # shifting the diamond by multiples of alpha does not change residues
        for k in (2, 3):
            a = alpha(k)
            for mult in (GaussInt(1, 0), GaussInt(-2, 3)):
                shifted = {reduce(v + mult * a, k) for v in diamond_nodes(k)}
                assert shifted == set(diamond_nodes(k))
                for v in diamond_nodes(k):
                    assert reduce(v + mult * a, k) == v

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            reduce(GaussInt(1, 1), 0)

    @pytest.mark.parametrize("k", range(1, 41))
    def test_residue_congruence(self, k):
        # (2k+1) + i = (1 - i) alpha_k, so x + yi = x - (2k+1)y mod alpha_k,
        # and the diamond holds exactly one node per class of Z/n
        assert GaussInt(2 * k + 1, 1) == GaussInt(1, -1) * alpha(k)
        residues = sorted((v.x - (2 * k + 1) * v.y) % node_count(k)
                          for v in diamond_nodes(k))
        assert residues == list(range(node_count(k)))

    @pytest.mark.parametrize("k", (1, 2, 5, 9))
    def test_network_residue_maps(self, k):
        # node i of G_k is the residue class i of Z/n
        net = network(k)
        assert [residue(v, k) for v in net.nodes] == list(range(len(net)))
        assert net.nodes[0] == ZERO
        assert all(net.index(v) == residue(v, k) for v in diamond_nodes(k))
        outside = GaussInt(k + 1, 0)
        with pytest.raises(ValueError, match="not canonical"):
            net.index(outside)
        assert outside not in net
        assert all(reduce(GaussInt(r, 0), k) == v
                   for r, v in enumerate(net.nodes))

    def test_residue_rejects_bad_k(self):
        with pytest.raises(ValueError):
            residue(GaussInt(1, 1), 0)


# Every node argument is checked by core.node_residue; each caller's text,
# with or without its label, as the package has always printed it.
@pytest.mark.parametrize("call, text", [
    (lambda: network(2).index(parse_node("5")), "5 is not canonical for k=2"),
    (lambda: tree_path(build_tree(1, 2), parse_node("-2+2i")),
     "-2+2i is not canonical for k=2"),
    (lambda: build_tree(3, 2).depth(parse_node("3i")), "3i is not canonical for k=2"),
    (lambda: path_word(parse_node("5"), 2), "5 is not canonical for k=2"),
    (lambda: decide(parse_node("5"), ONE, 2), "transient 5 is not canonical for k=2"),
    (lambda: decide(ONE, parse_node("-3"), 2), "destination -3 is not canonical for k=2"),
    (lambda: route(parse_node("5"), ONE, 1, 2), "source 5 is not canonical for k=2"),
    (lambda: route(ONE, parse_node("2+i"), 1, 2), "destination 2+i is not canonical for k=2"),
    (lambda: secure_split(ZERO, parse_node("5"), 2, b"abcd"),
     "destination 5 is not canonical for k=2"),
    (lambda: broadcast(parse_node("5"), (), 2), "node 5 is not canonical for k=2"),
    (lambda: broadcast(ZERO, (ONE, -ONE, parse_node("1-2i")), 2),
     "node 1-2i is not canonical for k=2"),
    (lambda: SimConfig(k=2, root=parse_node("5")), "root 5 is not canonical for k=2"),
    (lambda: SimConfig(k=2, faults=frozenset({parse_node("-5i")})),
     "fault -5i is not canonical for k=2"),
], ids=lambda x: x if isinstance(x, str) else "")
def test_non_canonical_node_message(call, text):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == text


class TestNeighbors:
    def test_origin(self):
        assert set(neighbors(ZERO, 4)) == set(DIRECTIONS)

    def test_boundary_wraparounds(self):
        # boundary node 3i in the 25-node network
        got = set(neighbors(GaussInt(0, 3), 3))
        assert {GaussInt(3, 0), GaussInt(-3, 0), GaussInt(-2, -1)} <= got

    def test_against_reduce_oracle(self):
        v = GaussInt(2, 0)
        expected = [brute_reduce(v + d, 2) for d in DIRECTIONS]
        assert neighbors(v, 2) == expected
        assert set(expected) == {
            GaussInt(0, 2), GaussInt(1, 0), GaussInt(0, -2), GaussInt(-1, 1)
        }

    def test_degree_regular(self):
        for k in range(1, 10):
            for v in diamond_nodes(k):
                ns = neighbors(v, k)
                assert len(set(ns)) == 4
                assert all(abs(w.x) + abs(w.y) <= k for w in ns)


class TestRho:
    def test_quarter_turn_example(self):
        assert rho(GaussInt(3, -1), 1) == GaussInt(1, 3)

    def test_identity_after_four(self):
        for v in diamond_nodes(3):
            assert rho(v, 4) == v

    def test_three_turns(self):
        assert rho(GaussInt(1, 0), 3) == GaussInt(0, -1)

    def test_graph_automorphism(self):
        for k in (2, 4):
            for v in diamond_nodes(k):
                for w in neighbors(v, k):
                    assert rho(w, 1) in neighbors(rho(v, 1), k)


class TestTranslate:
    def test_identity(self):
        assert translate(GaussInt(1, -1), ZERO, 3) == GaussInt(1, -1)

    def test_inverse_maps_source_home(self):
        s = GaussInt(2, 1)
        assert translate(-s, s, 3) == ZERO

    def test_reduce_oracle(self):
        assert translate(GaussInt(2, 0), GaussInt(3, 0), 3) == brute_reduce(
            GaussInt(5, 0), 3
        )
        assert translate(GaussInt(2, 0), GaussInt(3, 0), 3) == GaussInt(-2, -1)

    def test_bijection_and_automorphism(self):
        k = 3
        for s in (GaussInt(1, 1), GaussInt(-2, 0)):
            image = {translate(v, s, k) for v in diamond_nodes(k)}
            assert image == set(diamond_nodes(k))
            for v in diamond_nodes(k)[:8]:
                for w in neighbors(v, k):
                    assert translate(w, s, k) in neighbors(translate(v, s, k), k)


def region_members(cls: RegionClass, quadrant: int, k: int) -> set[GaussInt]:
    """Independent region definitions: quadrant-1 sets rotated q-1 turns."""
    base = set()
    for v in diamond_nodes(k):
        x, y = v.x, v.y
        if cls is RegionClass.S and x == 1 and y == 0:
            base.add(v)
        elif cls is RegionClass.B and 1 < x < k and y == 0:
            base.add(v)
        elif cls is RegionClass.P and x == k and y == 0:
            base.add(v)
        elif cls is RegionClass.R and 0 < x < k and y == 1:
            base.add(v)
        elif cls is RegionClass.Q and x > 0 and y > 1 and x + y <= k:
            base.add(v)
    return {rho(v, quadrant - 1) for v in base}


class TestClassify:
    def test_unit_node(self):
        for k in (2, 5):
            reg = classify(GaussInt(1, 0), k)
            assert (reg.cls, reg.quadrant) == (RegionClass.S, 1)

    def test_origin(self):
        assert classify(ZERO, 4).cls is RegionClass.ORIGIN

    def test_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            classify(GaussInt(5, 0), 4)

    def test_reference_memberships(self):
        # -i is in S4; -1+i in R2; 2i in B2 (axis interior rotated once)
        assert str(classify(GaussInt(0, -1), 4)) == "S4"
        assert str(classify(GaussInt(-1, 1), 4)) == "R2"
        assert str(classify(GaussInt(0, 2), 4)) == "B2"

    @pytest.mark.parametrize("k", range(2, 10))
    def test_census(self, k):
        # every non-root node lies in exactly one of the 20 sets
        cover: dict[GaussInt, int] = {v: 0 for v in diamond_nodes(k)}
        sizes = []
        for cls in (RegionClass.S, RegionClass.B, RegionClass.R,
                    RegionClass.Q, RegionClass.P):
            for q in (1, 2, 3, 4):
                members = region_members(cls, q, k)
                sizes.append(len(members))
                for v in members:
                    cover[v] += 1
                    reg = classify(v, k)
                    assert (reg.cls, reg.quadrant) == (cls, q)
        assert cover[ZERO] == 0
        assert all(c == 1 for v, c in cover.items() if v != ZERO)
        assert sum(sizes) == node_count(k) - 1

    @pytest.mark.parametrize("k", [*range(1, 10), 16, 30, 41])
    def test_residue_regions_is_classify(self, k, tables):
        # region_codes is the one region table by residue: each code names classify's region
        codes = region_codes(k)
        assert len(codes) == node_count(k)
        for v in diamond_nodes(k):
            assert REGIONS[codes[residue(v, k)]] == classify(v, k)

    @pytest.mark.parametrize("turn", (1, -1))
    def test_region_fill_must_partition(self, tables, monkeypatch, turn):
        # a wrong quarter turn lays quadrants onto each other: some non-root
        # residues then get two region codes and others none
        real = core.residue
        monkeypatch.setattr(core, "residue", lambda z, k: (
            turn % node_count(k) if z == core.IMAG else real(z, k)))
        with pytest.raises(AssertionError, match="do not partition"):
            core.region_codes(5)


class TestTopology:
    @pytest.mark.parametrize("k", range(1, 10))
    def test_distance_distribution(self, k):
        dist = distances_from(ZERO, k)
        assert len(dist) == node_count(k)
        for j in range(1, k + 1):
            assert sum(1 for d in dist.values() if d == j) == 4 * j
        assert max(dist.values()) == k

    def test_full_diameter_small(self):
        for k in (1, 2, 3, 4):
            worst = max(
                max(distances_from(u, k).values()) for u in diamond_nodes(k)
            )
            assert worst == k

    def test_bfs_distance_basics(self):
        assert bfs_distance(ZERO, ZERO, 3) == 0
        assert bfs_distance(ZERO, GaussInt(1, 0), 3) == 1
        assert bfs_distance(GaussInt(0, 3), GaussInt(3, 0), 3) == 1  # wraparound


class TestNodeLiterals:
    def test_round_trip_all_nodes(self):
        for v in diamond_nodes(9):
            assert parse_node(format_node(v)) == v

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0", ZERO),
            ("i", GaussInt(0, 1)),
            ("-i", GaussInt(0, -1)),
            ("3i", GaussInt(0, 3)),
            ("-2", GaussInt(-2, 0)),
            ("-2+2i", GaussInt(-2, 2)),
            ("1-2i", GaussInt(1, -2)),
            ("4+i", GaussInt(4, 1)),
            ("−2+2i", GaussInt(-2, 2)),  # unicode minus
        ],
    )
    def test_literals(self, text, expected):
        assert parse_node(text) == expected

    @pytest.mark.parametrize("bad", ["", "x", "2+2", "i2", "1+2j"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_node(bad)


class TestNetworkExports:
    def test_json_shape(self):
        payload = json.loads(network(3).to_json())
        assert payload["k"] == 3
        assert payload["alpha"] == {"x": 3, "y": 4}
        assert len(payload["nodes"]) == 25
        assert len(payload["edges"]) == 50  # degree-4: 4n/2
        seen = {tuple(sorted(((e[0]["x"], e[0]["y"]), (e[1]["x"], e[1]["y"]))))
                for e in payload["edges"]}
        assert len(seen) == 50

    @pytest.mark.parametrize("k", range(1, 31))
    def test_json_is_indented_json_dumps(self, k):
        # the rows are filled into templates: json.dumps(indent=2) is the oracle
        net = network(k)
        payload = {
            "k": k,
            "alpha": {"x": k, "y": k + 1},
            "nodes": [{"x": v.x, "y": v.y} for v in diamond_nodes(k)],
            "edges": [[{"x": a.x, "y": a.y}, {"x": b.x, "y": b.y}] for a, b in net.edges()],
        }
        assert net.to_json() == json.dumps(payload, indent=2)

    def test_indented_json_empty_and_odd_rows(self):
        template = row_template({"a{b}": [LEAF, {"c": LEAF}]})
        rows = [('"x"', 1), ("true", -2)]
        want = {"h": {"i": [1]}, "t": [{"a{b}": ['x', {"c": 1}]}, {"a{b}": [True, {"c": -2}]}],
                "e": []}
        got = indented_json({"h": {"i": [1]}}, t=(template, rows), e=(template, []))
        assert got == json.dumps(want, indent=2)

    def test_edges_listed_once_lexicographic(self):
        net = network(2)
        edges = net.edges()
        keys = [((a.x, a.y), (b.x, b.y)) for a, b in edges]
        assert keys == sorted(keys)
        assert all(ka < kb for ka, kb in keys)

    @pytest.mark.parametrize("k", range(1, 31))
    def test_edges_match_neighbor_loop(self, k):
        # the plain oracle: each node's neighbours of larger (x, y), sorted
        net = network(k)
        want = [(v, w) for v in net.nodes for w in net.neighbors(v) if (v.x, v.y) < (w.x, w.y)]
        want.sort(key=lambda e: (e[0].x, e[0].y, e[1].x, e[1].y))
        assert net.edges() == want

    def test_dot_dashed_wraparounds(self):
        net = network(2)
        wrap = sum(1 for a, b in net.edges() if (a - b).l1() != 1)
        dot = net.to_dot()
        assert dot.count("style=dashed") == wrap
        assert wrap > 0
        assert dot.startswith("graph gaussian_2 {")

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            Network(0)


@pytest.fixture
def tables(monkeypatch):
    """An empty cache of per-k tables, in place of the process's one."""
    fresh: dict[int, dict] = {}
    monkeypatch.setattr(core, "_TABLES", fresh)
    return fresh


class TestPerKTables:
    def test_paper_orders_stay_cached(self, tables):
        # every table of k = 1..9 fits the budget, so the paper's table
        # never rebuilds one
        for k in range(1, 10):
            sweep(k, 1)
            run(SimConfig(k=k))
            if k > 1:
                build_tree(4, k)
                route(ZERO, ONE, 2, k)
        assert list(tables) == list(range(1, 10))
        assert all(fault_singles.__wrapped__ in tables[k] for k in tables)

    def test_bound_over_a_range_of_k(self, tables):
        @per_k
        def cheap(k):
            return -k

        for k in range(1, 61):
            assert cheap(k) == -k
            if k == 16:  # the k's up to 15 weigh 838,863, within the budget
                assert list(tables) == list(range(1, 17))
        assert 60 in tables
        assert sum(node_count(k) ** 2 for k in tables if k != 60) <= TABLE_BUDGET

    def test_failed_build_stores_nothing(self, tables):
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            network(0)
        assert 0 not in tables

    def test_hit_takes_no_lock(self, tables, monkeypatch):
        net = network(3)
        monkeypatch.setattr(core, "_LOCK", None)  # a miss cannot enter it
        assert network(3) is net
        with pytest.raises((AttributeError, TypeError)):
            network(4)

    def test_threads_build_each_table_once(self, tables):
        builds = []

        @per_k
        def counted(k):
            builds.append(k)
            time.sleep(0.001)  # lets the other threads run mid-build
            return object()

        start = threading.Barrier(4)
        outs = [[] for _ in range(4)]

        def worker(out):
            start.wait(timeout=30)
            out.extend(counted(k) for k in (1, 2, 3) * 100)

        threads = [threading.Thread(target=worker, args=(out,)) for out in outs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(builds) == [1, 2, 3]
        assert all(out == outs[0] for out in outs)
