"""Synchronous simulation of the parallel four-tree construction with faults.

The root emits its address on all four ports in round 1; each packet then
advances along its own tree, one hop per round, and dies at faulty nodes.
A node is reached (and resolves its parent/child directions for all four
trees from its relative address) at the first round any packet arrives over
a fully fault-free tree path.  On first receipt a node forwards on its three
other ports in the next round, so each reached node generates three messages
and the root four.

Step counting, calibrated against the reference step tables: a run's step
count is the worst first-receipt round over live nodes, plus the one final
forwarding round.  Fault-free runs therefore take exactly k+1 steps and
faulty runs at most 2k+1 (tree height 2k plus the forwarding round); the
exhaustive sweeps observe 2k.
"""

from __future__ import annotations

import itertools
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

import numpy as np

from . import _kernels
from .core import (
    GaussInt,
    ONE,
    ZERO,
    classify,
    diamond_nodes,
    format_node,
    is_canonical,
    network,
    reduce,
    rho,
    translate,
)
from .trees import build_tree, parent_child_spec, reach_tables

STEP_CONVENTION = (
    "first_receipt(v) = earliest round with a fault-free root-to-v tree path "
    "delivering the address (one hop per round, four packets started in round 1); "
    "steps(run) = max first_receipt over live nodes + 1 final forwarding round; "
    "fault-free runs take k+1 steps, faulty runs are bounded by 2k+1 and observed "
    "at 2k."
)

MAX_FAULTS = 3


class SimulationError(RuntimeError):
    """The round cap was exceeded; indicates a convention or construction bug."""


@dataclass(frozen=True)
class SimConfig:
    """One run: diameter parameter, root, fault set, and a safety round cap."""

    k: int
    root: GaussInt = ZERO
    faults: frozenset[GaussInt] = frozenset()
    max_rounds: int | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not is_canonical(self.root, self.k):
            raise ValueError(f"root {self.root} is not canonical for k={self.k}")
        faults = frozenset(self.faults)
        object.__setattr__(self, "faults", faults)
        for f in faults:
            if not is_canonical(f, self.k):
                raise ValueError(f"fault {f} is not canonical for k={self.k}")
        if self.root in faults:
            raise ValueError("the root cannot be faulty")
        if len(faults) > MAX_FAULTS:
            raise ValueError(f"at most {MAX_FAULTS} faults are supported")
        if self.max_rounds is None:
            object.__setattr__(self, "max_rounds", 4 * self.k + 4)


@dataclass(frozen=True)
class NodeState:
    """Per-node outcome: relative address, first-receipt round, resolved rows.

    rows maps each tree index to (parent direction, child directions); it is
    resolved from the relative address alone when the first packet arrives.
    """

    relative_address: GaussInt
    first_round: int
    rows: Mapping[int, tuple[GaussInt, frozenset[GaussInt]]]


@dataclass(frozen=True)
class SimRun:
    """Outcome of one synchronous run."""

    config: SimConfig
    first_receipt: Mapping[GaussInt, int]
    last_active_round: int
    messages_sent: int
    messages_per_round: tuple[int, ...]
    trees_resolved: Mapping[GaussInt, NodeState]

    def reached(self) -> set[GaussInt]:
        return {v for v in self.first_receipt if v != self.config.root}


@lru_cache(maxsize=32)
def _children_maps(k: int) -> tuple[dict[GaussInt, tuple[GaussInt, ...]], ...]:
    """Child adjacency of the four trees, in relative (root-at-0) space."""
    maps = []
    for j in (1, 2, 3, 4):
        ch = build_tree(j, k).children()
        maps.append({v: tuple(cs) for v, cs in ch.items()})
    return tuple(maps)


def run(config: SimConfig) -> SimRun:
    """Execute one run; a pure function of its configuration."""
    k = config.k
    rel_faults = {reduce(f - config.root, k) for f in config.faults}
    first_rel: dict[GaussInt, int] = {ZERO: 0}

    if k == 1:
        # complete 5-node network: each packet's tree is the single direct edge
        for j in range(4):
            v = rho(ONE, j)
            if v not in rel_faults:
                first_rel.setdefault(v, 1)
    else:
        children = _children_maps(k)
        frontiers: list[list[GaussInt]] = [[ZERO], [ZERO], [ZERO], [ZERO]]
        rnd = 0
        while any(frontiers):
            rnd += 1
            if rnd > config.max_rounds:
                raise SimulationError(
                    f"exceeded max_rounds={config.max_rounds} at round {rnd}"
                )
            for j in range(4):
                nxt = []
                for u in frontiers[j]:
                    for c in children[j][u]:
                        if c in rel_faults:
                            continue
                        nxt.append(c)
                        if c not in first_rel or rnd < first_rel[c]:
                            first_rel[c] = rnd
                frontiers[j] = nxt

    reached_rounds = [r for v, r in first_rel.items() if v != ZERO]
    last_active = (max(reached_rounds) + 1) if reached_rounds else 1
    messages_per_round = [0] * (last_active + 1)
    messages_per_round[1] = 4
    for v, r in first_rel.items():
        if v != ZERO:
            messages_per_round[r + 1] += 3

    resolved: dict[GaussInt, NodeState] = {}
    for rel_v, r in first_rel.items():
        if rel_v == ZERO:
            continue
        if k >= 2:
            region = classify(rel_v, k)
            rows = {j: parent_child_spec(region, j) for j in (1, 2, 3, 4)}
        else:
            rows = {}
        resolved[translate(rel_v, config.root, k)] = NodeState(
            relative_address=rel_v, first_round=r, rows=rows
        )

    first_receipt = {
        translate(rel_v, config.root, k): r for rel_v, r in first_rel.items()
    }
    return SimRun(
        config=config,
        first_receipt=first_receipt,
        last_active_round=last_active,
        messages_sent=sum(messages_per_round),
        messages_per_round=tuple(messages_per_round[1:]),
        trees_resolved=resolved,
    )


def reachability_report(sim: SimRun) -> dict[GaussInt, bool]:
    """True per node when the run delivered to it; faulty nodes are False."""
    out = {}
    for v in network(sim.config.k).nodes:
        out[v] = v in sim.first_receipt
    return out


def region_resolution_check(k: int) -> bool:
    """Fault-free run resolves exactly the constructive parent maps."""
    sim = run(SimConfig(k=k))
    for j in (1, 2, 3, 4):
        want = build_tree(j, k).parent
        for v, state in sim.trees_resolved.items():
            parent_dir, _ = state.rows[j]
            if reduce(v + parent_dir, k) != want[v][0]:
                return False
    return True


# -- sweeps -------------------------------------------------------------------

@dataclass(frozen=True)
class SweepStats:
    """Aggregate of one (k, fault count) sweep; avg_max is an exact rational."""

    k: int
    faults: int
    runs: int
    avg_max: Fraction
    max_max: int
    sampled: bool = False

    def avg_text(self) -> str:
        return f"{float(self.avg_max):.3f}"


def _chunks(it, size: int):
    while True:
        block = list(itertools.islice(it, size))
        if not block:
            return
        yield block


def _sample_fault_sets(
    n_others: int, f: int, budget: int, rng: np.random.Generator
) -> np.ndarray:
    """budget rows of f distinct indices into the non-root node list."""
    if f == 0:
        return np.zeros((budget, 0), dtype=np.int64)
    draws = rng.integers(0, n_others, size=(budget, f), dtype=np.int64)
    while f > 1:
        dup = np.zeros(budget, dtype=bool)
        for a in range(f):
            for b in range(a + 1, f):
                dup |= draws[:, a] == draws[:, b]
        if not dup.any():
            break
        draws[dup] = rng.integers(0, n_others, size=(int(dup.sum()), f))
    return draws


def sweep(
    k: int,
    faults: int,
    sample: int | None = None,
    seed: int | None = None,
    workers: int = 1,
    chunk_size: int | None = None,
) -> SweepStats:
    """Run every fault combination (or a sampled budget) and aggregate steps.

    Exhaustive mode enumerates all C(n-1, faults) subsets of non-root nodes.
    Sampling draws `sample` independent uniform subsets.  Chunks of runs are
    independent; with workers > 1 they execute on a thread pool and are
    merged by sum/max, so results do not depend on scheduling.  By default a
    chunk holds about 1 MiB of per-node kernel state.
    """
    if not 0 <= faults <= MAX_FAULTS:
        raise ValueError(f"fault count must be 0..{MAX_FAULTS}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if sample is not None and sample < 1:
        raise ValueError(f"sample must be >= 1, got {sample}")
    B, LUT = reach_tables(k)
    n = len(B)
    root = network(k).index(ZERO)
    chunk_size = chunk_size or max(1, (1 << 20) // n)
    others = np.array([i for i in range(n) if i != root], dtype=np.int64)

    if sample is None:
        combo_iter = itertools.combinations(others.tolist(), faults)
        blocks = (
            np.array(block, dtype=np.int64).reshape(len(block), faults)
            for block in _chunks(combo_iter, chunk_size)
        )
    else:
        rng = np.random.default_rng(seed)
        picks = _sample_fault_sets(len(others), faults, sample, rng)
        fault_sets = others[picks] if faults else picks
        blocks = (
            fault_sets[i: i + chunk_size]
            for i in range(0, len(fault_sets), chunk_size)
        )

    def run_block(block: np.ndarray) -> tuple[int, int, int]:
        rounds = _kernels.sweep_rounds(B, LUT, block)
        return int(rounds.sum()), int(rounds.max()), len(rounds)

    total = mx = count = 0
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for s, m, c in pool.map(run_block, blocks):
                total, mx, count = total + s, max(mx, m), count + c
    else:
        for block in blocks:
            s, m, c = run_block(block)
            total, mx, count = total + s, max(mx, m), count + c

    return SweepStats(
        k=k,
        faults=faults,
        runs=count,
        avg_max=Fraction(total, count),
        max_max=mx,
        sampled=sample is not None,
    )


def fault_label(f: int) -> str:
    return "No Faulty" if f == 0 else f"{f} Faulty"


def alpha_label(k: int) -> str:
    return f"{k}+{k + 1}i"


def sweep_table_csv(
    stats: Mapping[tuple[int, int], SweepStats],
    ks: list[int],
    fs: list[int],
    kind: str,
) -> str:
    """CSV in the reference table layout; kind is "avg" or "max"."""
    lines = ["alpha," + ",".join(alpha_label(k) for k in ks)]
    for f in fs:
        cells = []
        for k in ks:
            st = stats[(k, f)]
            cells.append(st.avg_text() if kind == "avg" else str(st.max_max))
        lines.append(fault_label(f) + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def sweep_metadata(stats: Mapping[tuple[int, int], SweepStats]) -> str:
    payload = {
        "step_convention": STEP_CONVENTION,
        "engine": _kernels.active_engine(),
        "cells": [
            {
                "alpha": alpha_label(st.k),
                "faults": st.faults,
                "runs": st.runs,
                "sampled": st.sampled,
                "avg_max": st.avg_text(),
                "avg_max_exact": f"{st.avg_max.numerator}/{st.avg_max.denominator}",
                "max_max": st.max_max,
            }
            for st in stats.values()
        ],
    }
    return json.dumps(payload, indent=2)


def simrun_trace_json(sim: SimRun) -> str:
    """Per-run trace: rounds, messages per round, first receipts."""
    payload = {
        "k": sim.config.k,
        "root": format_node(sim.config.root),
        "faults": sorted(format_node(f) for f in sim.config.faults),
        "last_active_round": sim.last_active_round,
        "messages_sent": sim.messages_sent,
        "messages_per_round": list(sim.messages_per_round),
        "first_receipt": {
            format_node(v): r for v, r in sorted(
                sim.first_receipt.items(), key=lambda it: (it[0].x, it[0].y)
            )
        },
        "step_convention": STEP_CONVENTION,
    }
    return json.dumps(payload, indent=2)
