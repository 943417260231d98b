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
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import _kernels
from .core import (
    GaussInt,
    LEAF,
    REGIONS,
    ZERO,
    format_node,
    indented_json,
    network,
    node_count,
    node_residue,
    region_codes,
    residue,
    row_template,
)
from .trees import (ResidueView, _children, fault_pairs, fault_singles, fault_triples,
                    parent_child_spec, parent_rows, triple_values)

STEP_CONVENTION = (
    "first_receipt(v) = earliest round with a fault-free root-to-v tree path "
    "delivering the address (one hop per round, four packets started in round 1); "
    "steps(run) = max first_receipt over live nodes + 1 final forwarding round; "
    "fault-free runs take k+1 steps, faulty runs are bounded by 2k+1 and observed "
    "at 2k."
)

MAX_FAULTS = 3

SAMPLE_BLOCK = 1 << 12  # fault sets a sampled cell draws and counts at once: memory flat in N


class SimulationError(RuntimeError):
    """The round cap was exceeded; indicates a convention or construction bug."""


@dataclass(frozen=True)
class SimConfig:
    """One run: diameter parameter, root and fault set."""

    k: int
    root: GaussInt = ZERO
    faults: frozenset[GaussInt] = frozenset()

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        node_residue(self.root, self.k, "root")
        faults = frozenset(self.faults)
        object.__setattr__(self, "faults", faults)
        for f in faults:
            node_residue(f, self.k, "fault")
        if self.root in faults:
            raise ValueError("the root cannot be faulty")
        if len(faults) > MAX_FAULTS:
            raise ValueError(f"at most {MAX_FAULTS} faults are supported")


@dataclass(frozen=True)
class NodeState:
    """Per-node outcome: relative address, first-receipt round, resolved rows.

    rows maps each tree index to (parent direction, child directions); it is
    resolved from the relative address alone when the first packet arrives.
    """

    relative_address: GaussInt
    first_round: int
    rows: Mapping[int, tuple[GaussInt, frozenset[GaussInt]]]


#: Each REGIONS code's rows for all four trees: they depend only on the
#: region of the relative address, so the nodes of one region share one
#: read-only mapping.  Code 0, the root, gets the empty mapping.
_REGION_ROWS = (MappingProxyType({}), *(
    MappingProxyType({j: parent_child_spec(reg, j) for j in (1, 2, 3, 4)}) for reg in REGIONS[1:]))


@dataclass(frozen=True)
class SimRun:
    """Outcome of one synchronous run."""

    config: SimConfig
    first_receipt: Mapping[GaussInt, int]
    last_active_round: int
    messages_sent: int
    messages_per_round: tuple[int, ...]

    def reached(self) -> set[GaussInt]:
        view = self.first_receipt  # run()'s ResidueView: i is a residue relative to the root
        return {v for v, i in zip(view, view._order) if i}

    @cached_property
    def trees_resolved(self) -> Mapping[GaussInt, NodeState]:
        """Each reached node but the root: its state, derived on first read."""
        view, k = self.first_receipt, self.config.k
        nodes, rounds = view._nodes, view._values
        codes = region_codes(k).tolist() if k > 1 else [0] * len(nodes)  # k = 1 has no trees
        return MappingProxyType({v: NodeState(nodes[i], rounds[i], _REGION_ROWS[codes[i]])
                                 for v, i in zip(view, view._order) if i})


def run(config: SimConfig) -> SimRun:
    """Execute one run; a pure function of its configuration.

    The rounds run on residues in the root's frame (root at 0): rounds[i] is
    node i's first-receipt round, and first_receipt a read-only ResidueView of
    it, keyed in order of first receipt.  A run past round 4k + 4 raises
    SimulationError: no trees of height 2k take that long.
    """
    k = config.k
    nodes = network(k).nodes
    n, r_root = len(nodes), residue(config.root, k)
    faults = [(residue(f, k) - r_root) % n for f in config.faults]
    rounds: list = [None] * n  # None until reached; -1 marks a fault, so a child costs one read
    for f in faults:
        rounds[f] = -1
    rounds[0], order = 0, [0]
    messages_per_round = [4]  # round 1: the root's four
    children = _children(k)
    frontiers: list[list[int]] = [[0], [0], [0], [0]]
    rnd = 0
    while any(frontiers):
        rnd += 1
        if rnd > 4 * k + 4:
            raise SimulationError(f"exceeded {4 * k + 4} rounds (4k + 4) at round {rnd}")
        received = len(order)
        for j in range(4):
            tree, nxt = children[j], []
            for u in frontiers[j]:
                for c in tree[u]:
                    got = rounds[c]
                    if got is None:  # rounds only grow: the first receipt
                        rounds[c] = rnd
                        order.append(c)
                    elif got < 0:
                        continue
                    nxt.append(c)
            frontiers[j] = nxt
        messages_per_round.append(3 * (len(order) - received))  # sent in round rnd + 1
    for f in faults:
        rounds[f] = None  # no key
    last_active = rounds[order[-1]] + 1  # the last receipt's round, then one forwarding round
    del messages_per_round[last_active:]

    return SimRun(
        config=config,
        first_receipt=ResidueView(k, nodes, r_root, rounds, order),
        last_active_round=last_active,
        messages_sent=sum(messages_per_round),
        messages_per_round=tuple(messages_per_round),
    )


def reachability_report(sim: SimRun) -> dict[GaussInt, bool]:
    """True per node when the run delivered to it; faulty nodes are False."""
    view = sim.first_receipt
    rounds, at = view._values, -view._base  # rounds[at:] + rounds[:at] is by absolute residue
    return dict(zip(view._nodes, [r is not None for r in rounds[at:] + rounds[:at]]))


def region_resolution_check(k: int) -> bool:
    """A fault-free run resolves, at every node and in all four trees, the
    parent port and the child ports of parent_rows: each child port leads to
    a node whose parent is this one, and there are as many as it has children."""
    sim = run(SimConfig(k=k))
    parent = parent_rows(k)
    kids = [np.bincount(row[1:], minlength=len(row)).tolist() for row in parent]
    rows = parent.tolist()
    for v, state in sim.trees_resolved.items():
        i = residue(v, k)
        for j in (1, 2, 3, 4):
            (parent_dir, child_dirs), row = state.rows[j], rows[j - 1]
            if (row[i] != residue(v + parent_dir, k) or len(child_dirs) != kids[j - 1][i]
                    or any(row[residue(v + d, k)] != i for d in child_dirs)):
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


def _exhaustive_counts(k: int, f: int) -> tuple[int, ...]:
    """Step counts of all C(n-1, f) fault sets of non-root nodes from the
    trees.fault_* tables: a run whose best value is w takes w + 1 steps."""
    size = 2 * k + 1
    if f == 0:  # the one fault-free run reads no table
        counts = np.bincount([k], minlength=size)
    elif f == 1:
        counts = np.bincount(fault_singles(k)[1][1:, 0], minlength=size)
    elif f == 2:
        W, rows = fault_pairs(k)[1], np.arange(node_count(k))
        # the strict upper triangle, less row 0's n - 1 cells (the root is no fault)
        counts = np.bincount(W[rows[:, None] < rows][len(W) - 1:], minlength=size)
    else:
        counts = _kernels.triple_counts(fault_pairs(k)[1], size) + fault_triples(k)
    return (0, *counts.tolist())


def _uniform(rng: random.Random, bound: int, size: int) -> np.ndarray:
    """size values uniform in 0..bound-1, by exact rejection: little-endian
    words of rng.randbytes, 32-bit (64-bit for a bound above 2^32), are kept
    below the largest multiple of bound they can hold and taken mod bound;
    the shortfall is drawn again."""
    dtype = np.dtype("<u4" if bound <= 1 << 32 else "<u8")
    top = (1 << 8 * dtype.itemsize) // bound * bound - 1  # the last word kept
    words = np.empty(0, dtype=dtype)
    while len(words) < size:
        more = np.frombuffer(rng.randbytes(dtype.itemsize * (size - len(words))), dtype=dtype)
        words = np.concatenate([words, more[more <= top]])
    return (words % bound).astype(np.intp)


def _sample_fault_sets(n_others: int, f: int, budget: int, rng: random.Random) -> np.ndarray:
    """budget rows of f distinct values in 0..n_others-1."""
    draws = _uniform(rng, n_others, budget * f).reshape(budget, f)
    while f > 1:
        dup = np.zeros(budget, dtype=bool)
        for a in range(f):
            for b in range(a + 1, f):
                dup |= draws[:, a] == draws[:, b]
        if not dup.any():
            break
        draws[dup] = _uniform(rng, n_others, int(dup.sum()) * f).reshape(-1, f)
    return draws


def _sampled_counts(k: int, f: int, sample: int, seed: int | None) -> tuple[int, ...]:
    """Step counts of `sample` draws of f distinct non-root nodes, SAMPLE_BLOCK
    at a time, read from the trees.fault_* tables: value w takes w + 1 steps."""
    rng, counts = random.Random(seed), np.zeros(2 * k + 1, dtype=np.int64)
    for lo in range(0, sample, SAMPLE_BLOCK):
        # residue 0 is the root, so draws index the other nodes from 1
        faults = _sample_fault_sets(node_count(k) - 1, f, min(SAMPLE_BLOCK, sample - lo), rng) + 1
        if f == 0:
            values = np.full(len(faults), k)
        elif f == 1:
            values = fault_singles(k)[1][faults[:, 0], 0]
        elif f == 2:
            values = fault_pairs(k)[1][faults[:, 0], faults[:, 1]]
        else:
            values = triple_values(k, *faults.T)
        counts += np.bincount(values, minlength=len(counts))
    return (0, *counts.tolist())


def check_sweep(k: int, faults: int, sample: int | None = None,
                seed: int | None = None, workers: int = 1) -> None:
    """Raise ValueError, naming the argument, unless sweep() accepts these."""
    if not 0 <= faults <= MAX_FAULTS:
        raise ValueError(f"fault count must be 0..{MAX_FAULTS}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if sample is not None and not 1 <= sample <= 1 << 32:
        raise ValueError(f"sample must be 1..2^32, got {sample}")
    if sample is None and seed is not None:
        raise ValueError("seed applies only to a sampled sweep")
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def sweep(
    k: int,
    faults: int,
    sample: int | None = None,
    seed: int | None = None,
    workers: int = 1,
) -> SweepStats:
    """Step-count histogram of every fault combination, or of a sampled budget.

    Exhaustive mode counts all C(n-1, faults) subsets of non-root nodes by
    the root-path decomposition, enumerating none.  Sampling draws `sample`
    independent uniform subsets, SAMPLE_BLOCK at a time, and reads each one's
    step count from the same tables: one lookup per fault set, and for three
    faults the max of three pair lookups.  `workers` is validated and
    unused: no sweep starts a thread.
    """
    check_sweep(k, faults, sample, seed, workers)
    if sample is None:
        return SweepStats(k, faults, _exhaustive_counts(k, faults))
    return SweepStats(k, faults, _sampled_counts(k, faults, sample, seed), sampled=True)


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


_CELL_ROW = row_template(dict.fromkeys(
    ("alpha", "faults", "runs", "sampled", "avg_max", "avg_max_exact", "max_max"), LEAF))


def sweep_metadata(stats: Mapping[tuple[int, int], SweepStats]) -> str:
    cells = [(json.dumps(alpha_label(st.k)), st.faults, st.runs, json.dumps(st.sampled),
              json.dumps(st.avg_text()), f'"{st.avg_max.numerator}/{st.avg_max.denominator}"',
              st.max_max) for st in stats.values()]
    return indented_json({"step_convention": STEP_CONVENTION, "engine": _kernels.active_engine()},
                         cells=(_CELL_ROW, cells))


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
