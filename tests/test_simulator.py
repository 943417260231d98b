"""Synchronous construction runs, fault sweeps, and the sweep kernel."""

import dataclasses
import itertools
import json
import math
import os
import random
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gaussnet import _kernels, core, simulator, trees
from gaussnet.core import (
    GaussInt,
    ZERO,
    diamond_nodes,
    network,
    node_count,
    parse_node,
    reduce,
)
from gaussnet.simulator import (
    SAMPLE_BLOCK,
    NodeState,
    SimConfig,
    SimulationError,
    STEP_CONVENTION,
    SweepStats,
    reachability_report,
    run,
    simrun_trace_json,
    sweep,
    sweep_metadata,
    sweep_table_csv,
    region_resolution_check,
    _sample_fault_sets,
    _uniform,
)
from gaussnet.trees import build_tree, parent_child_spec, tree_path

from oracles import classify, reach_tables


def n(text: str) -> GaussInt:
    return parse_node(text)


def oracle_first_receipt(k: int, faults: set[GaussInt]) -> dict[GaussInt, int]:
    """Independent oracle: min depth over trees whose root path avoids faults."""
    out = {ZERO: 0}
    for v in diamond_nodes(k):
        if v == ZERO or v in faults:
            continue
        best = None
        for j in (1, 2, 3, 4):
            path = tree_path(build_tree(j, k), v)
            if not any(p in faults for p in path):
                d = len(path) - 1
                best = d if best is None or d < best else best
        if best is not None:
            out[v] = best
    return out


def dense_sweep_rounds(B, LUT, faults):
    """Oracle of the flat kernel: the same lookup as a 2-D fancy index."""
    blocked = np.zeros((len(faults), len(B)), dtype=np.uint8)
    for q in range(faults.shape[1]):
        blocked |= B[faults[:, q]]
    return LUT[np.arange(len(B)), blocked].max(axis=1) + 1


def exhaustive_rows(k: int, f: int):
    """The enumeration oracle: (C(n-1, f), rows) for n = node_count(k), where
    rows(lo, hi) is rows lo..hi-1 of itertools.combinations(range(1, n), f)
    as an int array.

    A row is a first fault a followed by a tail, an (f - 1)-subset of
    1..n-1 whose elements all exceed a.  The tails are every (f - 1)-subset
    in lexicographic order, the whole of exhaustive_rows(k, f - 1), whose
    last C(n-1-a, f-1) rows are the tails of a; rows are numbered first
    fault by first fault.
    """
    if f == 0:
        return 1, lambda lo, hi: np.empty((hi - lo, 0), dtype=np.intp)
    n = node_count(k)
    n_tails, tail_rows = exhaustive_rows(k, f - 1)
    tails = tail_rows(0, n_tails)
    ends = np.cumsum([math.comb(n - 1 - a, f - 1) for a in range(1, n)])

    def rows(lo: int, hi: int) -> np.ndarray:
        r = np.arange(lo, hi)
        a = np.searchsorted(ends, r, side="right")  # row r has first fault a + 1
        block = np.empty((hi - lo, f), dtype=np.intp)
        block[:, 0] = a + 1
        block[:, 1:] = tails[r + len(tails) - ends[a]]
        return block

    return int(ends[-1]), rows


def exhaustive_blocks(k: int, f: int):
    """An exhaustive cell's C(n-1, f) fault sets, about 2^16 (fault set,
    node) pairs of the flat kernel at a time."""
    total, rows = exhaustive_rows(k, f)
    size = (1 << 16) // node_count(k)
    for lo in range(0, total, size):
        yield rows(lo, min(lo + size, total))


class TestRun:
    @pytest.mark.parametrize("k", range(1, 10))
    def test_fault_free_rounds_and_messages(self, k):
        sim = run(SimConfig(k=k))
        assert sim.last_active_round == k + 1
        assert sim.messages_sent == 6 * k * k + 6 * k + 4
        assert len(sim.first_receipt) == 2 * k * k + 2 * k + 1

    def test_k3_fault_free_rounds(self):
        assert run(SimConfig(k=3)).last_active_round == 4

    def test_fault_free_first_receipt_is_bfs_distance(self):
        from gaussnet.core import distances_from

        sim = run(SimConfig(k=4))
        assert dict(sim.first_receipt) == distances_from(ZERO, 4)

    @pytest.mark.parametrize("f", (1, 2))
    def test_faulty_first_receipt_oracle_k2(self, f):
        nodes = [v for v in diamond_nodes(2) if v != ZERO]
        for faults in itertools.combinations(nodes, f):
            sim = run(SimConfig(k=2, faults=frozenset(faults)))
            assert dict(sim.first_receipt) == oracle_first_receipt(2, set(faults))

    def test_faulty_first_receipt_oracle_k4_sampled(self):
        rng = random.Random(17)
        nodes = [v for v in diamond_nodes(4) if v != ZERO]
        for _ in range(25):
            faults = set(rng.sample(nodes, 3))
            sim = run(SimConfig(k=4, faults=frozenset(faults)))
            assert dict(sim.first_receipt) == oracle_first_receipt(4, faults)

    def test_messages_drop_under_faults(self):
        fault_free = run(SimConfig(k=3)).messages_sent
        faulty = run(SimConfig(k=3, faults=frozenset({n("1")}))).messages_sent
        assert faulty < fault_free

    def test_messages_per_round_consistent(self):
        sim = run(SimConfig(k=3, faults=frozenset({n("2")})))
        assert sim.messages_per_round[0] == 4
        assert sum(sim.messages_per_round) == sim.messages_sent
        assert len(sim.messages_per_round) == sim.last_active_round

    def test_deterministic(self):
        cfg = SimConfig(k=3, faults=frozenset({n("1"), n("-2i")}))
        a, b = run(cfg), run(cfg)
        assert a.first_receipt == b.first_receipt
        assert a.last_active_round == b.last_active_round
        assert a.messages_sent == b.messages_sent

    def test_monotone_under_added_faults(self):
        rng = random.Random(23)
        nodes = [v for v in diamond_nodes(3) if v != ZERO]
        for _ in range(20):
            base = set(rng.sample(nodes, 2))
            extra = base | {rng.choice([v for v in nodes if v not in base])}
            small = run(SimConfig(k=3, faults=frozenset(base))).first_receipt
            big = run(SimConfig(k=3, faults=frozenset(extra))).first_receipt
            for v, r in big.items():
                assert r >= small[v]

    def test_translated_root(self):
        s = n("1+i")
        base = run(SimConfig(k=3, faults=frozenset({n("2")})))
        shifted = run(
            SimConfig(k=3, root=s, faults=frozenset({reduce(n("2") + s, 3)}))
        )
        for v, r in base.first_receipt.items():
            assert shifted.first_receipt[reduce(v + s, 3)] == r

    def test_round_cap(self, monkeypatch):
        # a parent cycle in tree 1's child lists keeps its frontier alive:
        # every k, k = 1 with its star trees too, stops at round 4k + 4
        for k in (1, 3):
            children = list(map(list, trees._children(k)))
            children[0][1] = (*children[0][1], 0)  # the root is a child of node 1
            monkeypatch.setattr(simulator, "_children", lambda _k: children)
            with pytest.raises(SimulationError, match=f"exceeded {4 * k + 4} rounds"):
                run(SimConfig(k=k))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(k=2, faults=frozenset({ZERO}))
        with pytest.raises(ValueError):
            SimConfig(k=2, faults=frozenset({n("1"), n("-1"), n("i"), n("-i")}))
        with pytest.raises(ValueError):
            SimConfig(k=2, faults=frozenset({n("3")}))
        with pytest.raises(ValueError):
            SimConfig(k=0)

    def test_k1_complete_graph(self):
        sim = run(SimConfig(k=1, faults=frozenset({n("1"), n("-1"), n("i")})))
        assert sim.last_active_round == 2
        assert sim.first_receipt[n("-i")] == 1


class TestResolution:
    @pytest.mark.parametrize("k", (2, 3, 4, 5))
    def test_fault_free_resolution(self, k):
        assert region_resolution_check(k)

    def test_root_resolves_no_parent(self):
        sim = run(SimConfig(k=3))
        assert ZERO not in sim.trees_resolved

    def test_rotated_resolution_matches_tree3(self):
        sim = run(SimConfig(k=2))
        t3 = build_tree(3, 2)
        for v, state in sim.trees_resolved.items():
            parent_dir, _ = state.rows[3]
            assert reduce(v + parent_dir, 2) == t3.parent[v][0]

    def test_rows_shared_and_read_only(self):
        a = run(SimConfig(k=4))
        b = run(SimConfig(k=4, root=n("1-2i"), faults=frozenset({n("2")})))
        rows_a = {s.relative_address: s.rows for s in a.trees_resolved.values()}
        for state in b.trees_resolved.values():
            assert state.rows == rows_a[state.relative_address]
        state = next(iter(b.trees_resolved.values()))
        with pytest.raises(TypeError):
            state.rows[1] = (GaussInt(1, 0), frozenset())


def eager_trees_resolved(sim) -> dict[GaussInt, NodeState]:
    """Oracle: each reached non-root node's state, built eagerly in receipt order.

    The rows come from the node's region relative to the root, through
    parent_child_spec; k = 1 builds no trees, so its rows are empty.
    """
    k, root, out = sim.config.k, sim.config.root, {}
    for v, r in sim.first_receipt.items():
        if v != root:
            rel = reduce(v - root, k)
            rows = {} if k == 1 else {
                j: parent_child_spec(classify(rel, k), j) for j in (1, 2, 3, 4)
            }
            out[v] = NodeState(relative_address=rel, first_round=r, rows=rows)
    return out


class TestLazyResolution:
    def test_matches_eager_oracle(self):
        rng = random.Random(15)
        for k in range(1, 10):
            others = [v for v in diamond_nodes(k) if v != ZERO]
            for _ in range(6):
                root = rng.choice(others)
                pool = [v for v in diamond_nodes(k) if v != root]
                faults = frozenset(rng.sample(pool, rng.randint(0, min(3, len(pool)))))
                sim = run(SimConfig(k=k, root=root, faults=faults))
                want = eager_trees_resolved(sim)
                got = sim.trees_resolved
                assert list(got) == list(want) and dict(got) == want, (k, root, faults)

    def test_repeated_reads_share_one_read_only_mapping(self):
        sim = run(SimConfig(k=4, root=n("1-2i"), faults=frozenset({n("2")})))
        first = sim.trees_resolved
        assert sim.trees_resolved is first
        with pytest.raises(TypeError):
            first[n("1")] = next(iter(first.values()))

    def test_run_builds_no_state_and_reads_no_sweep_table(self, monkeypatch):
        made = []
        real = simulator.NodeState

        def counting(*args, **kwargs):
            made.append(args or kwargs)
            return real(*args, **kwargs)

        def no_table(*args):
            raise AssertionError("run() read a sweep table")

        monkeypatch.setattr(simulator, "NodeState", counting)
        for name in ("fault_singles", "fault_pairs", "fault_triples", "triple_values"):
            monkeypatch.setattr(simulator, name, no_table)
        sim = run(SimConfig(k=6, root=n("2+i"), faults=frozenset({n("1"), n("-3i")})))
        assert made == []
        assert len(sim.trees_resolved) == len(made) == len(sim.first_receipt) - 1


class TestReachability:
    def test_fault_free_all_true(self):
        report = reachability_report(run(SimConfig(k=2)))
        assert all(report.values())

    def test_exhaustive_triples_k2(self):
        nodes = [v for v in diamond_nodes(2) if v != ZERO]
        for faults in itertools.combinations(nodes, 3):
            report = reachability_report(run(SimConfig(k=2, faults=frozenset(faults))))
            for v, ok in report.items():
                assert ok == (v not in faults)


class TestSweep:
    def test_k1_always_two_rounds(self):
        for f in range(4):
            st = sweep(1, f)
            assert st.avg_max == 2 and st.max_max == 2

    def test_k2_single_fault_exact(self):
        st = sweep(2, 1)
        assert st.runs == 12
        assert st.avg_max == Fraction(40, 12)
        assert st.max_max == 4

    def test_k3_reference_row(self):
        st = sweep(3, 1)
        assert (st.avg_max, st.max_max, st.runs) == (Fraction(9, 2), 6, 24)
        st2 = sweep(3, 2)
        assert st2.runs == 276
        assert abs(float(st2.avg_max) - 4.847) < 0.005
        assert st2.max_max == 6

    @pytest.mark.parametrize("k", range(2, 31))
    def test_f_le_1_closed_form(self, k):
        # a single fault delays 4 positions by each e = 1..k-1 and leaves
        # the rest at k+1, so avg = (k+1) + (k-1)/(k+1) and max = 2k
        st0 = sweep(k, 0)
        assert (st0.runs, st0.avg_max, st0.max_max) == (1, k + 1, k + 1)
        st1 = sweep(k, 1)
        assert st1.runs == node_count(k) - 1
        assert st1.avg_max == (k + 1) + Fraction(k - 1, k + 1)
        assert st1.max_max == 2 * k

    def test_zero_faults(self):
        st = sweep(4, 0)
        assert st.runs == 1 and st.avg_max == 5 and st.max_max == 5

    @staticmethod
    def _forbid_threads(monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a sweep started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)

    def test_workers_merge(self, monkeypatch):
        # workers is validated and unused: a sweep runs in the calling thread,
        # so any workers count gives the one-worker result
        self._forbid_threads(monkeypatch)
        for sampling in ({}, {"sample": 3000, "seed": 5}):
            want = sweep(6, 3, **sampling)
            for workers in (2, 3):
                assert sweep(6, 3, workers=workers, **sampling) == want

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        # no pool is started, so a workers count far above the host's CPU
        # count, known or not, still runs in the calling thread
        self._forbid_threads(monkeypatch)
        sampling = {"sample": 3000, "seed": 5}
        want = sweep(5, 2, **sampling)
        for cpus in (3, None):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert sweep(5, 2, workers=10**6, **sampling) == want

    @pytest.mark.parametrize(
        "k, f, runs, avg, mx",
        [
            (7, 1, 112, "35/4", 14),
            (7, 2, 6216, "9761/1036", 14),
            (7, 3, 227920, "142579/14245", 14),
            (8, 1, 144, "88/9", 16),
            (8, 2, 10296, "27023/2574", 16),
            (8, 3, 487344, "452659/40612", 16),
            (9, 1, 180, "54/5", 18),
            (9, 2, 16110, "93146/8055", 18),
            (9, 3, 955860, "977099/79655", 18),
        ],
    )
    def test_exact_beyond_k6(self, k, f, runs, avg, mx):
        # the pinned .meta.json outputs fix avg_max exactly only up to k=6
        st = sweep(k, f)
        assert (st.runs, st.avg_max, st.max_max) == (runs, Fraction(avg), mx)
        if f == 3:  # the runs of 2k steps, ROADMAP item 8's top count
            assert st.step_counts[2 * k] == {7: 23336, 8: 39208, 9: 61960}[k]

    @pytest.mark.parametrize(
        "k, counts",
        [
            (2, [0, 0, 0, 84, 136, 0]),
            (3, [0, 0, 0, 0, 616, 600, 808, 0]),
            (4, [0, 0, 0, 0, 0, 3272, 1808, 2200, 2600, 0]),
            (5, [0] * 6 + [12596, 4696, 5008, 5640, 6280, 0]),
            (6, [0] * 7 + [38368, 10716, 10552, 10960, 11880, 12808, 0]),
        ],
    )
    def test_f3_step_histogram(self, k, counts):
        assert sweep(k, 3).step_counts == tuple(counts)

    def test_stats_store_only_the_histogram(self):
        # runs, avg_max and max_max are derived from step_counts
        assert [f.name for f in dataclasses.fields(SweepStats)] == [
            "k", "faults", "step_counts", "sampled"
        ]

    @pytest.mark.parametrize("k", range(1, 8))
    def test_step_counts_span_k_plus_1_to_2k(self, k):
        for f, sampling in itertools.product(range(4), ({}, dict(sample=300, seed=k))):
            st = sweep(k, f, **sampling)
            c = st.step_counts
            assert len(c) == 2 * k + 2
            runs = sampling.get("sample", math.comb(node_count(k) - 1, f))
            assert sum(c) == st.runs == runs
            steps = range(k + 1, 2 * k + 1) if f else [k + 1]  # f=0: k+1 steps only
            assert all(c[s] == 0 for s in range(2 * k + 2) if s not in steps), (f, c)

    def test_sampled_mode(self):
        exact = sweep(3, 2)
        sampled = sweep(3, 2, sample=3000, seed=42)
        assert sampled.runs == 3000 and sampled.sampled
        assert abs(float(sampled.avg_max) - float(exact.avg_max)) < 0.1
        again = sweep(3, 2, sample=3000, seed=42)
        assert again.avg_max == sampled.avg_max

    def test_kernel_matches_run(self):
        rng = random.Random(31)
        for k in range(1, 7):
            net = network(k)
            nodes = [v for v in net.nodes if v != ZERO]
            B, LUT = reach_tables(k)
            for f in (0, 1, 2, 3):
                for _ in range(10):
                    faults = frozenset(rng.sample(nodes, f))
                    sim = run(SimConfig(k=k, faults=faults))
                    block = np.array(
                        sorted(net.index(v) for v in faults), dtype=np.int64
                    ).reshape(1, f)
                    rounds = _kernels.sweep_rounds(B, LUT, block)
                    assert int(rounds[0]) == sim.last_active_round, (k, faults)

    def test_no_state_leak_between_calls(self):
        first = sweep(2, 2)
        run(SimConfig(k=2, faults=frozenset({n("1")})))
        second = sweep(2, 2)
        assert first.avg_max == second.avg_max

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep(3, 4)
        with pytest.raises(ValueError):
            sweep(0, 1)
        for sample in (0, -1, 2**32 + 1):
            with pytest.raises(ValueError, match="sample must be 1..2"):
                sweep(3, 2, sample=sample)
        for workers in (0, -3):
            with pytest.raises(ValueError):
                sweep(3, 2, workers=workers)
        with pytest.raises(ValueError, match="seed"):
            sweep(3, 2, seed=5)  # a seed without a sample would be ignored
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            sweep(3, 2, sample=10, seed=-1)


class TestKernel:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_flat_matches_dense_every_fault_set(self, k):
        B, LUT = reach_tables(k)
        for f in range(4):
            for block in exhaustive_blocks(k, f):
                want = dense_sweep_rounds(B, LUT, block)
                assert np.array_equal(_kernels.sweep_rounds(B, LUT, block), want)

    @pytest.mark.parametrize("k", [*range(8, 17), 45])
    def test_flat_matches_dense_sampled_triples(self, k):
        # k=45 is the first order whose flat index 16 v | mask needs uint32
        B, LUT = reach_tables(k)
        size = 512 if k < 45 else 32
        block = _sample_fault_sets(len(B) - 1, 3, size, random.Random(k)) + 1
        want = dense_sweep_rounds(B, LUT, block)
        assert np.array_equal(_kernels.sweep_rounds(B, LUT, block), want)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_combination_blocks_are_itertools_in_order(self, k):
        # rows(lo, hi) between any cut points, empty runs included, joins
        # to the exhaustive cell in itertools.combinations order
        n, rng = node_count(k), random.Random(k)
        for f in range(4):
            want = np.array(list(itertools.combinations(range(1, n), f)))
            want = want.reshape(math.comb(n - 1, f), f)
            total, rows = exhaustive_rows(k, f)
            assert total == len(want)
            for cuts in (
                [0, total],
                [*range(0, total, 7), total],
                sorted([0, total, *rng.choices(range(total + 1), k=6)]),
            ):
                blocks = [rows(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
                assert [len(b) for b in blocks] == np.diff(cuts).tolist()
                assert np.array_equal(np.concatenate(blocks), want), (f, cuts)

    @pytest.mark.parametrize("k", range(2, 31))
    def test_f1_step_histogram(self, k):
        # one fault delays 4 nodes' runs by each e = 1..k-1
        c = np.array(sweep(k, 1).step_counts)
        assert list(c[k + 2:2 * k + 1]) == [4] * (k - 1)
        assert c[k + 1] == node_count(k) - 1 - 4 * (k - 1)
        assert not c[:k + 1].any() and c[2 * k + 1] == 0

    @pytest.mark.parametrize("k", range(2, 21))
    def test_f2_step_histogram(self, k):
        # c_k(e) for runs of k+1+e steps, m = k - e: a closed form in k and m
        c = np.array(sweep(k, 2).step_counts)
        g = 8 * k * k + 8 * k - 14
        assert c[2 * k] == g
        for e in range(1, k - 1):
            m = k - e
            assert 3 * (c[k + 1 + e] - g) == 2 * m**3 - 6 * m**2 - 44 * m + 60, e
        assert not c[:k + 1].any() and c[2 * k + 1] == 0
        assert c[k + 1] == math.comb(node_count(k) - 1, 2) - c[k + 2:].sum()

    @pytest.mark.parametrize("k", range(2, 17))
    def test_f3_top_bin(self, k):
        # ROADMAP item 8's quartic: the f=3 runs of 2k steps
        assert sweep(k, 3).step_counts[2 * k] == 8 * k**4 + 16 * k**3 - 24 * k**2 - 32 * k + 40


class TestDecomposition:
    """Exhaustive cells by the root-path decomposition, against the flat kernel."""

    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_flat_kernel_every_fault_set(self, k):
        B, LUT = reach_tables(k)
        for f in range(4):
            counts = np.zeros(2 * k + 2, dtype=np.int64)
            for block in exhaustive_blocks(k, f):
                rounds = _kernels.sweep_rounds(B, LUT, block)
                counts += np.bincount(rounds, minlength=2 * k + 2)
            assert sweep(k, f).step_counts == tuple(counts.tolist()), f

    def test_k16_f3_step_histogram(self):
        # ROADMAP item 8's k=16 list, runs of k+1..2k steps, checked in full
        # against the flat kernel
        top = [15527348, 1236696, 1108352, 994060, 894224, 808928, 737956, 680812,
               636740, 604744, 583608, 571916, 568072, 570320, 576760, 583208]
        assert sweep(16, 3).step_counts == (0,) * 17 + tuple(top) + (0,)

    def test_each_fault_count_builds_only_its_tables(self, monkeypatch):
        # f=0 reads no table, f=1 no pair table, a sampled f=3 cell no
        # triple correction, and no cell reaches the flat kernel
        monkeypatch.setattr(_kernels, "sweep_rounds", None)
        for sampling, triples in (({}, {"fault_triples"}), ({"sample": 300, "seed": 2}, set())):
            built = {}
            monkeypatch.setattr(core, "_TABLES", built)

            def names():
                return {build.__name__ for build in built.get(5, ())}

            runs = []
            for f, new in ((0, set()), (1, {"fault_singles"}), (2, {"fault_pairs"}),
                           (3, triples)):
                before = names()
                runs.append(sweep(5, f, workers=4, **sampling).runs)
                assert names() - before - {"network", "region_codes", "parent_rows",
                                           "root_paths"} == new, (sampling, f)
            assert runs == [sampling.get("sample", math.comb(60, f)) for f in range(4)]

    def test_one_deepest_tree_is_refused(self, monkeypatch):
        # f=3 values have no triple term: the pair table needs every node's
        # deepest tree to be shared, or not deeper than k
        P, depth, LUT = trees.root_paths(4)
        forged = depth.copy()
        forged[7] = (1, 5, 5, 6)
        monkeypatch.setattr(trees, "root_paths", lambda _k: (P, forged, LUT))
        with pytest.raises(AssertionError, match="one deepest tree"):
            trees.fault_pairs.__wrapped__(4)


class TestSampled:
    """Sampled cells by lookups in the decomposition tables, against the flat kernel."""

    @pytest.mark.parametrize("k", [*range(1, 13), 16])
    def test_matches_flat_kernel_on_the_same_draws(self, k, monkeypatch):
        # blocks of 700 draws, the last one short, each recorded as drawn
        drawn, real = [], simulator._sample_fault_sets

        def recording(*args):
            drawn.append(real(*args) + 1)
            return drawn[-1] - 1

        monkeypatch.setattr(simulator, "_sample_fault_sets", recording)
        monkeypatch.setattr(simulator, "SAMPLE_BLOCK", 700)
        B, LUT = reach_tables(k)
        for f in range(4):
            drawn.clear()
            got = sweep(k, f, sample=2000, seed=k).step_counts
            assert [len(faults) for faults in drawn] == [700, 700, 600]
            counts = sum(np.bincount(_kernels.sweep_rounds(B, LUT, faults), minlength=2 * k + 2)
                         for faults in drawn)
            assert got == tuple(counts.tolist()), f

    def test_one_block_draws_as_one_call(self):
        # a sample of at most one block draws all its fault sets in one call
        for f in range(4):
            faults = _sample_fault_sets(node_count(5) - 1, f, 512, random.Random(9)) + 1
            rounds = _kernels.sweep_rounds(*reach_tables(5), faults)
            want = np.bincount(rounds, minlength=12)
            assert sweep(5, f, sample=512, seed=9).step_counts == tuple(want.tolist()), f
        assert SAMPLE_BLOCK >= 512  # the benchmark's sampled cells

    def test_uniform_refills_rejected_words(self):
        # words from top on are dropped, the last multiple of 7 a 32-bit
        # word holds, and only the shortfall is drawn again
        top = (1 << 32) // 7 * 7
        words = [top, 2**32 - 1, top - 1, top + 3, 5, top + 1, 6, 40, 99]
        asked = []

        class Stub:
            def randbytes(self, size):
                asked.append(size)
                take, words[:] = words[:size // 4], words[size // 4:]
                return np.array(take, dtype="<u4").tobytes()

        got = _uniform(Stub(), 7, 4)
        assert asked == [16, 12, 4] and words == [99]
        assert got.tolist() == [(top - 1) % 7, 5, 6, 40 % 7]

    def test_uniform_takes_wide_words_above_2_to_the_32(self):
        # a 32-bit word holds no multiple of 2^32 + 1, so 64-bit words
        # are drawn, where a 32-bit limit of 0 would reject every word
        asked = []

        class Recording(random.Random):
            def randbytes(self, size):
                asked.append(size)
                return super().randbytes(size)

        bound = 2**32 + 1
        got = _uniform(Recording(3), bound, 8)
        assert asked == [64] and len(got) == 8
        assert ((0 <= got) & (got < bound)).all()

    def test_uniform_covers_a_small_bound_evenly(self):
        counts = np.bincount(_uniform(random.Random(5), 6, 60_000), minlength=6)
        assert len(counts) == 6 and abs(counts - 10_000).max() < 400, counts

    def test_seed_fixes_the_counts(self):
        for f in range(4):
            a, b = (sweep(9, f, sample=5000, seed=11).step_counts for _ in range(2))
            assert a == b and sum(a) == 5000, f
        assert sweep(9, 3, sample=5000, seed=12) != sweep(9, 3, sample=5000, seed=11)

    def test_peak_is_flat_in_the_sample_size(self):
        # a block of draws at a time, not all 10^6 x 3 int64 draws (24 MB)
        sweep(4, 3, sample=1, seed=1)  # the k's tables
        tracemalloc.start()
        try:
            st = sweep(4, 3, sample=10**6, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st.runs == 10**6 and peak < 2**20, peak


class TestOutputs:
    def test_csv_layout(self):
        stats = {
            (k, f): sweep(k, f) for k in (1, 2) for f in (0, 1)
        }
        avg = sweep_table_csv(stats, [1, 2], [0, 1], "avg")
        mx = sweep_table_csv(stats, [1, 2], [0, 1], "max")
        assert avg.splitlines()[0] == "alpha,1+2i,2+3i"
        assert avg.splitlines()[1] == "No Faulty,2.000,3.000"
        assert avg.splitlines()[2] == "1 Faulty,2.000,3.333"
        assert mx.splitlines()[1] == "No Faulty,2,3"
        assert mx.splitlines()[2] == "1 Faulty,2,4"

    def test_metadata(self):
        stats = {(2, 1): sweep(2, 1)}
        meta = json.loads(sweep_metadata(stats))
        assert meta["step_convention"] == STEP_CONVENTION
        assert meta["cells"][0]["avg_max_exact"] == "10/3"

    def test_metadata_is_indented_json_dumps(self):
        # the cells are filled into one template: json.dumps(indent=2) is the oracle
        stats = {(k, f): sweep(k, f) for k in range(1, 10) for f in range(4)}
        stats[(5, 3, "sampled")] = sweep(5, 3, sample=100, seed=1)
        cells = [{"alpha": f"{st.k}+{st.k + 1}i", "faults": st.faults, "runs": st.runs,
                  "sampled": st.sampled, "avg_max": st.avg_text(),
                  "avg_max_exact": f"{st.avg_max.numerator}/{st.avg_max.denominator}",
                  "max_max": st.max_max} for st in stats.values()]
        for size in (0, 1, len(cells)):
            want = {"step_convention": STEP_CONVENTION, "engine": "lut", "cells": cells[:size]}
            got = sweep_metadata(dict(list(stats.items())[:size]))
            assert got == json.dumps(want, indent=2), size

    def test_trace_json(self):
        sim = run(SimConfig(k=2, faults=frozenset({n("1")})))
        payload = json.loads(simrun_trace_json(sim))
        assert payload["k"] == 2
        assert payload["faults"] == ["1"]
        assert payload["messages_per_round"][0] == 4
        assert payload["first_receipt"]["0"] == 0
