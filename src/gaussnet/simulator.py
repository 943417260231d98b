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

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from . import _kernels
from .core import (
    GaussInt,
    Region,
    ZERO,
    format_node,
    is_canonical,
    network,
    node_count,
    reduce,
    residue,
    residue_regions,
)
from .trees import build_tree, parent_child_spec, parent_rows, reach_tables

STEP_CONVENTION = (
    "first_receipt(v) = earliest round with a fault-free root-to-v tree path "
    "delivering the address (one hop per round, four packets started in round 1); "
    "steps(run) = max first_receipt over live nodes + 1 final forwarding round; "
    "fault-free runs take k+1 steps, faulty runs are bounded by 2k+1 and observed "
    "at 2k."
)

MAX_FAULTS = 3

# (fault set, node) pairs per kernel block: 362 rows at k=9, 120 at k=16.
# The flat gather's time per run is about flat from 120 to 512 rows and
# grows beyond; `take` copies each block's index as intp, so larger blocks
# only hold more memory.
BLOCK_CELLS = 1 << 16


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

    def reached(self) -> set[GaussInt]:
        return {v for v in self.first_receipt if v != self.config.root}

    @cached_property
    def trees_resolved(self) -> Mapping[GaussInt, NodeState]:
        """Each reached node but the root: its state, derived on first read."""
        k, root = self.config.k, self.config.root
        nodes, rows, resolved = network(k).nodes, _region_rows(k), {}
        for v, r in self.first_receipt.items():
            if i := residue(v - root, k):  # v's residue relative to the root
                resolved[v] = NodeState(nodes[i], r, rows[i])
        return MappingProxyType(resolved)


@lru_cache(maxsize=32)
def _children(k: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """children[j][i]: the children of node i in tree j+1, by residue.

    Residues ascend within each list; k = 1 has the star trees of parent_rows.
    """
    n = node_count(k)
    out = [[[] for _ in range(n)] for _ in range(4)]
    for j, row in enumerate(parent_rows(k).tolist()):
        for i, p in enumerate(row[1:], start=1):
            out[j][p].append(i)
    return tuple(tuple(map(tuple, tree)) for tree in out)


@lru_cache(maxsize=None)
def _rows_of(region: Region) -> Mapping[int, tuple[GaussInt, frozenset[GaussInt]]]:
    """One region's rows for all four trees; runs share them, so read-only."""
    return MappingProxyType({j: parent_child_spec(region, j) for j in (1, 2, 3, 4)})


@lru_cache(maxsize=32)
def _region_rows(
    k: int,
) -> tuple[Mapping[int, tuple[GaussInt, frozenset[GaussInt]]], ...]:
    """Each node's rows for all four trees, by residue.

    The rows depend only on the region of the relative address, so the
    nodes of one region share one mapping.  k = 1 has no trees: every row
    mapping is empty, and the root's entry is unused.
    """
    empty = MappingProxyType({})
    if k == 1:
        return (empty,) * node_count(k)
    return (empty, *map(_rows_of, residue_regions(k)[1:]))


def run(config: SimConfig) -> SimRun:
    """Execute one run; a pure function of its configuration.

    The rounds run on residues in the root's frame (root at 0); each
    reached node is translated to its absolute address once, at the end,
    by adding the root's residue.
    """
    k = config.k
    nodes = network(k).nodes
    n, r_root = len(nodes), residue(config.root, k)
    faults = {(residue(f, k) - r_root) % n for f in config.faults}
    children = _children(k)
    first_rel: dict[int, int] = {0: 0}
    frontiers: list[list[int]] = [[0], [0], [0], [0]]
    rnd = 0
    while any(frontiers):
        rnd += 1
        # k = 1 builds no trees: its one round of unit edges is never capped
        if k > 1 and rnd > config.max_rounds:
            raise SimulationError(
                f"exceeded max_rounds={config.max_rounds} at round {rnd}"
            )
        for j in range(4):
            tree, nxt = children[j], []
            for u in frontiers[j]:
                for c in tree[u]:
                    if c in faults:
                        continue
                    nxt.append(c)
                    if c not in first_rel:  # rounds only grow
                        first_rel[c] = rnd
            frontiers[j] = nxt

    reached_rounds = [r for i, r in first_rel.items() if i]
    last_active = (max(reached_rounds) + 1) if reached_rounds else 1
    messages_per_round = [0] * (last_active + 1)
    messages_per_round[1] = 4
    for r in reached_rounds:
        messages_per_round[r + 1] += 3

    return SimRun(
        config=config,
        first_receipt={nodes[(i + r_root) % n]: r for i, r in first_rel.items()},
        last_active_round=last_active,
        messages_sent=sum(messages_per_round),
        messages_per_round=tuple(messages_per_round[1:]),
    )


def reachability_report(sim: SimRun) -> dict[GaussInt, bool]:
    """True per node when the run delivered to it; faulty nodes are False."""
    return {v: v in sim.first_receipt for v in network(sim.config.k).nodes}


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
    """Aggregate of one (k, fault count) sweep: step_counts[s] is the number
    of runs that took s steps (length 2k+2).  The run count, the exact
    rational average and the maximum are derived from it."""

    k: int
    faults: int
    step_counts: tuple[int, ...]
    sampled: bool = False

    @property
    def runs(self) -> int:
        return sum(self.step_counts)

    @property
    def avg_max(self) -> Fraction:
        return Fraction(sum(s * c for s, c in enumerate(self.step_counts)), self.runs)

    @property
    def max_max(self) -> int:
        return max(s for s, c in enumerate(self.step_counts) if c)

    def avg_text(self) -> str:
        return f"{float(self.avg_max):.3f}"


@lru_cache(maxsize=32)
def _exhaustive_rows(n: int, f: int) -> tuple[int, Callable[[int, int], np.ndarray]]:
    """(C(n-1, f), rows): rows(lo, hi) is rows lo..hi-1 of
    itertools.combinations(range(1, n), f) as an int array.

    A row is a first fault a followed by a tail, an (f - 1)-subset of
    1..n-1 whose elements all exceed a.  The tails are every (f - 1)-subset
    in lexicographic order, the whole of _exhaustive_rows(n, f - 1), whose
    last C(n-1-a, f-1) rows are the tails of a; rows are numbered first
    fault by first fault.
    """
    if f == 0:
        return 1, lambda lo, hi: np.empty((hi - lo, 0), dtype=np.intp)
    n_tails, tail_rows = _exhaustive_rows(n, f - 1)
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


def _sample_fault_sets(
    n_others: int, f: int, budget: int, rng: np.random.Generator
) -> np.ndarray:
    """budget rows of f distinct values in 0..n_others-1."""
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
) -> SweepStats:
    """Run every fault combination (or a sampled budget) and aggregate steps.

    Exhaustive mode enumerates all C(n-1, faults) subsets of non-root nodes.
    Sampling draws `sample` independent uniform subsets.  The cell's fault
    sets are cut into min(workers, os.cpu_count()) contiguous shares of
    rows; a single share runs inline, more run one per thread of a pool.
    A share runs its rows one block at a time, about BLOCK_CELLS (fault set,
    node) pairs of kernel state, into one step-count histogram, and the
    shares' histograms add, so results do not depend on the number of
    threads.
    """
    if not 0 <= faults <= MAX_FAULTS:
        raise ValueError(f"fault count must be 0..{MAX_FAULTS}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if sample is not None and sample < 1:
        raise ValueError(f"sample must be >= 1, got {sample}")
    if sample is None and seed is not None:
        raise ValueError("seed applies only to a sampled sweep")
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
    B, LUT = reach_tables(k)
    n = len(B)
    if sample is None:
        total, rows = _exhaustive_rows(n, faults)
    else:  # fault sets are drawn from every node but the root, residue 0
        rng = np.random.default_rng(seed)
        fault_sets = _sample_fault_sets(n - 1, faults, sample, rng)
        total, rows = sample, lambda lo, hi: fault_sets[lo:hi] + 1
    block_size = max(1, BLOCK_CELLS // n)

    def run_share(lo: int, hi: int) -> np.ndarray:
        """Step-count histogram of rows lo..hi-1, one block at a time."""
        counts = np.zeros(2 * k + 2, dtype=np.int64)
        for a in range(lo, hi, block_size):
            rounds = _kernels.sweep_rounds(B, LUT, rows(a, min(a + block_size, hi)))
            counts += np.bincount(rounds, minlength=2 * k + 2)
        return counts

    cuts = [total * i // workers for i in range(workers + 1)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = sum(pool.map(run_share, cuts[:-1], cuts[1:]))
    else:
        counts = run_share(0, total)

    return SweepStats(k, faults, tuple(counts.tolist()), sampled=sample is not None)


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
