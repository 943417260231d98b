"""Synchronous construction runs, fault sweeps, and the sweep kernel."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from gaussnet import _kernels
from gaussnet.core import GaussInt, ZERO, diamond_nodes, network, parse_node, reduce
from gaussnet.simulator import (
    SimConfig,
    SimulationError,
    STEP_CONVENTION,
    reachability_report,
    run,
    simrun_trace_json,
    sweep,
    sweep_metadata,
    sweep_table_csv,
    region_resolution_check,
)
from gaussnet.trees import build_tree, reach_tables, tree_path


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

    def test_round_cap(self):
        with pytest.raises(SimulationError):
            run(SimConfig(k=3, max_rounds=1))

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

    def test_zero_faults(self):
        st = sweep(4, 0)
        assert st.runs == 1 and st.avg_max == 5 and st.max_max == 5

    def test_workers_merge(self):
        seq = sweep(3, 2, workers=1)
        par = sweep(3, 2, workers=3, chunk_size=64)
        assert (seq.avg_max, seq.max_max, seq.runs) == (par.avg_max, par.max_max, par.runs)

    def test_sampled_mode(self):
        exact = sweep(3, 2)
        sampled = sweep(3, 2, sample=3000, seed=42)
        assert sampled.runs == 3000 and sampled.sampled
        assert abs(float(sampled.avg_max) - float(exact.avg_max)) < 0.1
        again = sweep(3, 2, sample=3000, seed=42)
        assert again.avg_max == sampled.avg_max

    def test_kernel_matches_run(self):
        import numpy as np

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
        for sample in (0, -1):
            with pytest.raises(ValueError):
                sweep(3, 2, sample=sample)


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

    def test_trace_json(self):
        sim = run(SimConfig(k=2, faults=frozenset({n("1")})))
        payload = json.loads(simrun_trace_json(sim))
        assert payload["k"] == 2
        assert payload["faults"] == ["1"]
        assert payload["messages_per_round"][0] == 4
        assert payload["first_receipt"]["0"] == 0
