"""Property tests: residue arithmetic, node literals, routes and the sweep kernel."""

import numpy as np
from hypothesis import given, settings, strategies as st

from gaussnet import _kernels
from gaussnet.core import (
    GaussInt,
    IMAG,
    ZERO,
    format_node,
    network,
    node_count,
    parse_node,
    reduce,
    residue,
    rho,
    translate,
)
from gaussnet.router import broadcast, decide, route
from gaussnet.simulator import SimConfig, run
from gaussnet.trees import build_tree, tree_path

from oracles import reach_tables
from test_core import brute_reduce

coords = st.integers(-10**9, 10**9)
gauss = st.builds(GaussInt, coords, coords)
small_k = st.integers(1, 30)


@settings(deadline=None, max_examples=150)
@given(gauss, small_k)
def test_reduce_matches_brute_oracle(z, k):
    assert reduce(z, k) == brute_reduce(z, k)


@settings(deadline=None, max_examples=300)
@given(gauss, gauss, small_k)
def test_reduce_is_ring_homomorphism(a, b, k):
    ra, rb = reduce(a, k), reduce(b, k)
    assert reduce(ra, k) == ra
    assert reduce(a + b, k) == reduce(ra + rb, k)
    assert reduce(a * b, k) == reduce(ra * rb, k)


@settings(deadline=None, max_examples=300)
@given(gauss, gauss, small_k)
def test_residue_is_additive_and_turns_by_iota(a, b, k):
    # Z[i]/(alpha_k) = Z/n: translation adds residues, the quarter turn
    # multiplies by the residue of i
    n = node_count(k)
    assert residue(a + b, k) == (residue(a, k) + residue(b, k)) % n
    assert residue(rho(a), k) == residue(IMAG, k) * residue(a, k) % n
    assert residue(IMAG, k) == -(2 * k + 1) % n


@st.composite
def route_cases(draw):
    k = draw(st.integers(2, 20))
    nodes = network(k).nodes
    s, d = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True))
    return s, d, draw(st.integers(1, 4)), k


@settings(deadline=None, max_examples=300)
@given(route_cases())
def test_route_is_translated_tree_path(case):
    s, d, j, k = case
    rel = tree_path(build_tree(j, k), reduce(d - s, k))
    assert route(s, d, j, k) == [translate(v, s, k) for v in rel]


@settings(deadline=None, max_examples=300)
@given(route_cases())
def test_decide_is_the_step_route_takes(case):
    _, d, j, k = case
    if d == ZERO:
        d = network(k).nodes[1]
    path = route(ZERO, d, j, k)
    for t, nxt in zip(path[1:-1], path[2:]):
        decision = decide(t, d, k)
        assert decision.tree == j
        assert reduce(t + decision.direction, k) == nxt
    assert decide(d, d, k).is_consume


@settings(deadline=None, max_examples=300)
@given(gauss)
def test_node_literal_round_trip(v):
    assert parse_node(format_node(v)) == v


@st.composite
def fault_runs(draw):
    k = draw(st.integers(1, 20))
    others = [v for v in network(k).nodes if v != ZERO]
    faults = draw(st.lists(st.sampled_from(others), max_size=3, unique=True))
    return k, faults


@settings(deadline=None, max_examples=60)
@given(fault_runs())
def test_kernel_and_broadcast_match_run_oracle(case):
    k, faults = case
    net = network(k)
    block = np.array([net.index(f) for f in faults], dtype=np.int64).reshape(1, -1)
    rounds = _kernels.sweep_rounds(*reach_tables(k), block)
    sim = run(SimConfig(k=k, faults=frozenset(faults)))
    assert int(rounds[0]) == sim.last_active_round
    if k >= 2:
        delivered = broadcast(ZERO, faults, k)
        assert {v for v, trees in delivered.items() if trees} == sim.reached()
