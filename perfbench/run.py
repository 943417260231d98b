#!/usr/bin/env python3
"""gaussnet benchmark: one process, one closed-loop client, workers=1.

    python3 perfbench/run.py --workload table-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload local-ops --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --selfcheck

Workloads (see perfbench/README.md for why each was chosen):

  table-sweep  `gaussnet sweep --k K --faults F` through cli.main, into a
               temporary directory, once per cell of k=1..5, f=0..3, timed;
               then the paper's full `--k 1..7` table once, untimed, as a
               check.
  sampled-k16  sweep(16, 1) exhaustively, then sweep(16, 3, sample=N, seed=S)
               for a few seeds S.
  local-ops    a seeded request stream at k=8: per cycle, 10 route() calls,
               then one secure_split(), broadcast() and oracle run().

Each workload is a fixed list of short pieces whose inputs are drawn once
from --seed.  With --trace 0 the run sets up (cold per-k first calls,
timed), runs a fixed number of passes over the pieces (fewer only if
--seconds would be overrun), checks every output, and prints the end-to-end
metrics.  With --trace 1 it runs a fixed number of passes twice each,
untraced and traced, and prints the per-layer metrics taken from the spans
plus the tracing overhead.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.  A failed output check makes
the exit code 1.

The program is reached only through its public calls; nothing under src/
is modified.  Each run also writes a record with its provenance (commit,
versions, kernel engine, nproc, seed, parameters) to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import platform
import random
import resource
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(ROOT / "src"))
# numpy asks for transparent huge pages on large arrays; whether the host
# grants them varies from run to run, which moved peak_rss_mb in 2 MB steps
# and made some runs' sweeps slower.  Set before numpy is imported.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
try:
    import numpy as np
    from gaussnet import _kernels, cli, core, router, simulator, trees
except ImportError as exc:
    sys.exit(f"perfbench: cannot import gaussnet from {ROOT / 'src'}: {exc}")

from spans import NullTracer, Tracer, patched  # noqa: E402

# A pass runs a fixed list of pieces (calls with inputs drawn once from the
# seed); throughput_per_s is the work of a pass over the sum, across pieces,
# of the fastest time each piece took in `passes` passes.  Pieces are short
# (0.1 ms-0.15 s) because a shared 2-vCPU machine runs at one of two speeds,
# about 1.45x apart, in phases of seconds to minutes: a short piece often
# lands wholly inside a fast phase, a multi-second one averages over both.
# table-sweep therefore times the k=1..5 table cell by cell (the k=6 and k=7
# cells are single calls of 1.5-7 s), then runs the paper's full k=1..7
# table once, untimed, as a check.
WORKLOADS = {
    "table-sweep": {"ks": (1, 5), "check_ks": (1, 7), "faults": (0, 3),
                    "passes": 64, "trace_passes": 4},
    "sampled-k16": {"k": 16, "pieces": 8, "sample": 512, "passes": 32,
                    "trace_passes": 6},
    "local-ops": {"k": 8, "cycles": 50, "routes_per_cycle": 10, "passes": 30,
                  "trace_passes": 6},
}
# --tiny: every workload and every check, at sizes that finish in seconds.
TINY = {
    "table-sweep": {"ks": (1, 3), "check_ks": (1, 4), "faults": (0, 3),
                    "passes": 2, "trace_passes": 1},
    "sampled-k16": {"k": 4, "pieces": 2, "sample": 250, "passes": 2,
                    "trace_passes": 2},
    "local-ops": {"k": 3, "cycles": 5, "routes_per_cycle": 10, "passes": 2,
                  "trace_passes": 2},
}
# setup_s is the fastest of this many cold set-ups: this process plus
# fresh child processes started with --setup-only.
SETUP_SAMPLES = 16

# Reference step tables of the acceptance suite (tests/test_acceptance.py),
# columns k = 1..7: average of per-run maxima and maximum of maxima.
REFERENCE_AVG = {
    0: [2, 3, 4, 5, 6, 7, 8],
    1: [2, 3.333, 4.5, 5.6, 6.666, 7.714, 8.75],
    2: [2, 3.515, 4.847, 6.061, 7.213, 8.329, 9.421],
    3: [2, 3.618, 5.094, 6.417, 7.658, 8.849, 10.009],
}
REFERENCE_MAX = {
    0: [2, 3, 4, 5, 6, 7, 8],
    1: [2, 4, 6, 8, 10, 12, 14],
    2: [2, 4, 6, 8, 10, 12, 14],
    3: [2, 4, 6, 8, 10, 12, 14],
}
AVG_TOL = 0.005
# Exact averages (`avg_max_exact` in .meta.json) produced by the seed
# implementation, k = 1..7; any later kernel must reproduce them exactly.
PINNED_EXACT = {
    0: ["2/1", "3/1", "4/1", "5/1", "6/1", "7/1", "8/1"],
    1: ["2/1", "10/3", "9/2", "28/5", "20/3", "54/7", "35/4"],
    2: ["2/1", "116/33", "223/46", "394/65", "2128/295", "2074/249", "9761/1036"],
    3: ["2/1", "199/55", "1289/253", "7926/1235", "65518/8555", "30116/3403",
        "142579/14245"],
}

TRACE_TARGETS = [
    (_kernels, "sweep_rounds", "kernels.sweep_rounds", lambda a, out: (len(out),)),
    (cli, "sweep", "simulator.sweep", None),
    (simulator, "sweep", "simulator.sweep", None),
    (simulator, "run", "simulator.run",
     lambda a, out: (out.last_active_round, out.messages_sent)),
    (router, "route", "router.route", lambda a, out: (len(out) - 1,)),
    (router, "broadcast", "router.broadcast", None),
    (router, "secure_split", "router.secure_split", None),
]

# tail percentile reported for each local-ops request type
LATENCIES = {
    "route": 0.99, "split": 0.95, "broadcast": 0.95, "oracle_run": 0.95,
}


class Pass:
    """Outcome of one pass: ops checked, failures, and per piece the work
    done and the time spent inside program calls."""

    failures_shown = 0  # per process, so a broken program cannot flood stderr

    def __init__(self) -> None:
        self.ops = 0
        self.failed = 0
        self.pieces: list[tuple[int, float]] = []  # (work, busy_s)
        self.latencies: dict[str, list[float]] = {}
        self.notes: dict[str, str] = {}

    @property
    def work(self) -> int:
        """sweeps: simulated runs; local-ops: requests"""
        return sum(w for w, _ in self.pieces)

    @property
    def busy_s(self) -> float:
        return sum(s for _, s in self.pieces)

    def check(self, ok: bool, what: str) -> None:
        self.ops += 1
        if not ok:
            self.failed += 1
            if Pass.failures_shown < 20:
                Pass.failures_shown += 1
                print(f"CHECK FAILED: {what}", file=sys.stderr)


def setup_k(k: int, tr) -> None:
    """Cold per-k structures: network, the four trees."""
    with tr.span("core.network"):
        core.network(k)
    if k >= 2:
        with tr.span("trees.build_tree"):
            for j in (1, 2, 3, 4):
                trees.build_tree(j, k)


def seeded(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{i}")


class TableSweep:
    unit = "simulated runs/s"

    def __init__(self, params: dict, seed: int) -> None:
        self.ks = list(range(params["ks"][0], params["ks"][1] + 1))
        self.check_ks = list(range(params["check_ks"][0], params["check_ks"][1] + 1))
        self.fs = list(range(params["faults"][0], params["faults"][1] + 1))

    def setup(self, tr) -> None:
        for k in self.check_ks:
            setup_k(k, tr)
            simulator.sweep(k, 0)

    def run_pass(self, tr) -> Pass:
        """One `gaussnet sweep` per cell: each cell is one piece."""
        rd = Pass()
        for k in self.ks:
            for f in self.fs:
                self._table(rd, [k], [f], tr)
        return rd

    def final_check(self) -> Pass:
        """The paper's full table in one call, untimed: pins the k=6, 7 cells."""
        rd = Pass()
        self._table(rd, self.check_ks, self.fs, NullTracer())
        return rd

    def _table(self, rd: Pass, ks: list[int], fs: list[int], tr) -> None:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            avg_csv, max_csv = Path(tmp, "avg.csv"), Path(tmp, "max.csv")
            argv = [
                "sweep", "--k", f"{ks[0]}..{ks[-1]}",
                "--faults", f"{fs[0]}..{fs[-1]}",
                "--avg-out", str(avg_csv), "--max-out", str(max_csv),
                "--workers", "1",
            ]
            with contextlib.redirect_stderr(io.StringIO()), tr.span("cli.main"):
                t0 = time.perf_counter()
                code = cli.main(argv)
                busy_s = time.perf_counter() - t0
            if code != 0:
                rd.check(False, f"cli.main exit code {code}")
                return
            avgs = _read_table(avg_csv, float)
            maxes = _read_table(max_csv, int)
            meta = json.loads(Path(str(avg_csv) + ".meta.json").read_text())
        exact = {(c["alpha"], c["faults"]): c for c in meta["cells"]}
        work = 0
        for k in ks:
            n = core.node_count(k)
            for f in fs:
                cell = exact.get((simulator.alpha_label(k), f), {})
                work += cell.get("runs", 0)
                ok = (
                    abs(avgs[f][k] - REFERENCE_AVG[f][k - 1]) <= AVG_TOL + 1e-9
                    and maxes[f][k] == REFERENCE_MAX[f][k - 1]
                    and cell.get("avg_max_exact") == PINNED_EXACT[f][k - 1]
                    and (f != 0 or Fraction(cell["avg_max_exact"]) == k + 1)
                    and cell.get("runs") == math.comb(n - 1, f)
                )
                rd.check(ok, f"table-sweep cell k={k} f={f}: avg {avgs[f][k]} "
                             f"max {maxes[f][k]} cell {cell}")
        rd.pieces.append((work, busy_s))


def _read_table(path: Path, cast) -> dict[int, dict[int, float]]:
    """CSV in the reference layout -> {faults: {k: value}}."""
    lines = path.read_text().splitlines()
    ks = [int(label.split("+")[0]) for label in lines[0].split(",")[1:]]
    table = {}
    for line in lines[1:]:
        label, *cells = line.split(",")
        f = 0 if label == "No Faulty" else int(label.split()[0])
        table[f] = {k: cast(c) for k, c in zip(ks, cells)}
    return table


class SampledSweep:
    unit = "simulated runs/s"

    def __init__(self, params: dict, seed: int) -> None:
        self.k = params["k"]
        self.sample = params["sample"]
        self.sample_seeds = [seeded("sampled-k16", seed, i).getrandbits(63)
                             for i in range(params["pieces"])]

    def setup(self, tr) -> None:
        setup_k(self.k, tr)
        simulator.sweep(self.k, 0)

    def run_pass(self, tr) -> Pass:
        rd = Pass()
        k, n = self.k, core.node_count(self.k)
        t0 = time.perf_counter()
        one = simulator.sweep(k, 1)
        rd.pieces.append((one.runs, time.perf_counter() - t0))
        rd.check(
            one.runs == n - 1
            and one.avg_max == Fraction(k + 1) + Fraction(k - 1, k + 1)
            and one.max_max == 2 * k,
            f"sweep({k}, 1): runs {one.runs} avg {one.avg_max} max {one.max_max}",
        )
        for seed in self.sample_seeds:
            t0 = time.perf_counter()
            three = simulator.sweep(k, 3, sample=self.sample, seed=seed)
            rd.pieces.append((three.runs, time.perf_counter() - t0))
            rd.check(
                three.runs == self.sample
                and k + 1 <= three.avg_max <= 2 * k + 1
                and three.max_max <= 2 * k + 1,
                f"sweep({k}, 3, sample={self.sample}, seed={seed}): runs "
                f"{three.runs} avg {three.avg_max} max {three.max_max}",
            )
            if "sampled_avg_exact" not in rd.notes:
                avg = three.avg_max
                rd.notes["sampled_avg_exact"] = f"{avg.numerator}/{avg.denominator}"
        return rd


class LocalOps:
    unit = "requests/s"

    def __init__(self, params: dict, seed: int) -> None:
        self.k = k = params["k"]
        self.nodes = nodes = core.diamond_nodes(k)
        self.node_set = frozenset(nodes)
        rng = seeded("local-ops", seed, 0)
        # per cycle: routes, then a split, a broadcast and a run; each
        # request is one piece
        self.cycles = []
        for _ in range(params["cycles"]):
            routes = [(*rng.sample(nodes, 2), rng.randint(1, 4))
                      for _ in range(params["routes_per_cycle"])]
            split = (*rng.sample(nodes, 2), rng.randbytes(32))
            s = rng.choice(nodes)
            bcast = (s, rng.sample([v for v in nodes if v != s], rng.randint(0, 3)))
            run_faults = frozenset(rng.sample(
                [v for v in nodes if v != core.ZERO], rng.randint(0, 3)))
            self.cycles.append((routes, split, bcast, run_faults))

    def setup(self, tr) -> None:
        k = self.k
        setup_k(k, tr)
        s, d = core.ZERO, core.ONE
        router.route(s, d, 1, k)
        router.secure_split(s, d, k, b"setup")
        router.broadcast(s, (), k)
        simulator.run(simulator.SimConfig(k=k))

    def _tree_route(self, s, d, j: int) -> list:
        k = self.k
        rel = trees.tree_path(trees.build_tree(j, k), core.reduce(d - s, k))
        return [core.translate(v, s, k) for v in rel]

    def run_pass(self, tr) -> Pass:
        rd = Pass()
        k = self.k
        lat = {name: [] for name in LATENCIES}
        for routes, (ss, sd, message), (bs, faults), run_faults in self.cycles:
            for s, d, j in routes:
                t0 = time.perf_counter()
                path = router.route(s, d, j, k)
                dt = time.perf_counter() - t0
                lat["route"].append(dt)
                rd.pieces.append((1, dt))
                rd.check(path == self._tree_route(s, d, j),
                         f"route({s}, {d}, {j}) = {path}")

            t0 = time.perf_counter()
            parts = router.secure_split(ss, sd, k, message)
            dt = time.perf_counter() - t0
            lat["split"].append(dt)
            rd.pieces.append((1, dt))
            interiors = [v for _, path in parts for v in path[1:-1]]
            rd.check(
                len(interiors) == len(set(interiors))
                and b"".join(p.payload for p, _ in parts) == message
                and all(path[0] == ss and path[-1] == sd for _, path in parts),
                f"secure_split({ss}, {sd})",
            )

            t0 = time.perf_counter()
            delivered = router.broadcast(bs, faults, k)
            dt = time.perf_counter() - t0
            lat["broadcast"].append(dt)
            rd.pieces.append((1, dt))
            others = self.node_set - {bs}
            rd.check(
                set(delivered) == others
                and all(delivered[v] for v in others.difference(faults)),
                f"broadcast({bs}, {faults})",
            )

            config = simulator.SimConfig(k=k, faults=run_faults)
            t0 = time.perf_counter()
            sim = simulator.run(config)
            dt = time.perf_counter() - t0
            lat["oracle_run"].append(dt)
            rd.pieces.append((1, dt))
            rd.check(
                set(sim.first_receipt) == self.node_set - run_faults
                and sim.last_active_round <= 2 * k + 1,
                f"run(faults={sorted(map(str, run_faults))}): "
                f"{sim.last_active_round} rounds",
            )
        rd.latencies = lat
        return rd


KINDS = {"table-sweep": TableSweep, "sampled-k16": SampledSweep, "local-ops": LocalOps}


def percentile(values: list[float], p: float) -> float | None:
    """Nearest-rank percentile; None unless >= 10 samples lie beyond it."""
    n = len(values)
    rank = math.ceil(p * n)
    if n == 0 or n - rank < 10:
        return None
    return sorted(values)[rank - 1]


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, params: dict) -> dict:
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "engine": _kernels.active_engine(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "params": params,
        "loop": "closed loop, 1 client, 1 process, workers=1",
    }


def setup_in_child(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def timed_setup(workload, tracer) -> float:
    t0 = time.perf_counter()
    workload.setup(tracer)
    return time.perf_counter() - t0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(args, workload, params) -> tuple[dict, dict, dict, list[Pass]]:
    setups = [timed_setup(workload, NullTracer())]
    passes: list[Pass] = []
    measured_s = 0.0  # --seconds bounds the time spent in passes
    while len(passes) < params["passes"]:
        t0 = time.perf_counter()
        passes.append(workload.run_pass(NullTracer()))
        pass_s = time.perf_counter() - t0
        measured_s += pass_s
        # spread the set-up children over the run, not bunched at one end
        share = measured_s / max(args.seconds, 1e-9)
        while len(setups) < SETUP_SAMPLES * min(1.0, share):
            setups.append(setup_in_child(args))
        # on a machine much slower than expected, stop before a pass that
        # would overrun --seconds
        if measured_s + pass_s > args.seconds:
            break
    setups += [setup_in_child(args) for _ in range(SETUP_SAMPLES - len(setups))]
    checked = passes + ([workload.final_check()]
                        if hasattr(workload, "final_check") else [])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Each piece has the same inputs in every pass; its fastest time is the
    # one least touched by other tenants of the machine.  The pass count is
    # fixed, so a faster program gets no more tries than a slower one.
    fastest = [min(p.pieces[i][1] for p in passes)
               for i in range(len(passes[0].pieces))]
    metrics = {
        "setup_s": metric(min(setups), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "throughput_per_s": metric(passes[0].work / sum(fastest), "1/s"),
    }
    # Per-workload figures (op latencies); printed and recorded, not part of
    # the gated metric set.
    extra = {"failed_ops_frac": metric(failed_frac(checked), "frac")}
    info = {
        "passes": len(passes),
        "pieces": len(fastest),
        "pass_rates_per_s": [p.work / p.busy_s for p in passes],
        "setup_samples_s": setups,
        "throughput_unit": workload.unit,
    }
    if isinstance(workload, LocalOps):
        for name, p in LATENCIES.items():
            samples = [x for rd in passes for x in rd.latencies[name]]
            for label, q in (("p50", 0.5), (f"p{round(p * 100)}", p)):
                value = percentile(samples, q)
                extra[f"{name}_{label}_us"] = metric(
                    None if value is None else value * 1e6, "us")
            info[f"{name}_samples"] = len(samples)
    return metrics, extra, info, checked


def failed_frac(passes: list[Pass]) -> float:
    return sum(rd.failed for rd in passes) / max(1, sum(rd.ops for rd in passes))


def run_traced(workload, params) -> tuple[dict, dict, dict, list[Pass], Tracer]:
    setup_tr = Tracer()
    with patched(setup_tr, TRACE_TARGETS):
        workload.setup(setup_tr)
    tr = Tracer()
    passes: list[Pass] = []
    plain_s = traced_s = 0.0
    for r in range(params["trace_passes"]):
        # alternate which pass goes first, so warm-up favours neither
        for traced in ((False, True) if r % 2 == 0 else (True, False)):
            if traced:
                with patched(tr, TRACE_TARGETS):
                    rd = workload.run_pass(tr)
                traced_s += rd.busy_s
            else:
                rd = workload.run_pass(NullTracer())
                plain_s += rd.busy_s
            passes.append(rd)

    setup, spans = setup_tr.summary(), tr.summary()

    def get(summary, name, key, q=0):
        agg = summary.get(name)
        if agg is None:
            return 0
        return agg["counts"][q] if key == "counts" else agg[key]

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    kernel_runs = get(spans, "kernels.sweep_rounds", "counts")
    kernel_s = get(spans, "kernels.sweep_rounds", "busy_s")
    hops = get(spans, "router.route", "counts")
    route_s = get(spans, "router.route", "busy_s")
    layer = {
        "kernels.calls": (get(spans, "kernels.sweep_rounds", "calls"), "count"),
        "kernels.runs": (kernel_runs, "count"),
        "kernels.busy_s": (kernel_s, "s"),
        "kernels.ns_per_run": (ratio(kernel_s, kernel_runs, 1e9), "ns/run"),
        "simulator.sweep_calls": (get(spans, "simulator.sweep", "calls"), "count"),
        "simulator.sweep_self_s": (get(spans, "simulator.sweep", "self_s"), "s"),
        "core.network_s": (get(setup, "core.network", "busy_s"), "s"),
        "trees.build_s": (get(setup, "trees.build_tree", "busy_s"), "s"),
        "simulator.path_tables_s": (get(setup, "simulator.sweep", "self_s"), "s"),
        "cli.calls": (get(spans, "cli.main", "calls"), "count"),
        "cli.self_s": (get(spans, "cli.main", "self_s"), "s"),
        "router.route_calls": (get(spans, "router.route", "calls"), "count"),
        "router.route_busy_s": (route_s, "s"),
        "router.hops": (hops, "count"),
        "router.ns_per_hop": (ratio(route_s, hops, 1e9), "ns/hop"),
        "router.split_calls": (get(spans, "router.secure_split", "calls"), "count"),
        "router.split_self_s": (get(spans, "router.secure_split", "self_s"), "s"),
        "router.broadcast_calls": (get(spans, "router.broadcast", "calls"), "count"),
        "router.broadcast_busy_s": (get(spans, "router.broadcast", "busy_s"), "s"),
        "simulator.run_calls": (get(spans, "simulator.run", "calls"), "count"),
        "simulator.run_busy_s": (get(spans, "simulator.run", "busy_s"), "s"),
        "simulator.rounds": (get(spans, "simulator.run", "counts", 0), "count"),
        "simulator.messages": (get(spans, "simulator.run", "counts", 1), "count"),
        "trace.overhead_frac": (traced_s / plain_s - 1.0, "frac"),
    }
    metrics = {name: metric(v, u) for name, (v, u) in layer.items()}
    extra = {"failed_ops_frac": metric(failed_frac(passes), "frac")}
    info = {
        "trace_passes": params["trace_passes"],
        "untraced_s": plain_s,
        "traced_s": traced_s,
    }
    return metrics, extra, info, passes, tr


def run_workload(args) -> int:
    params = (TINY if args.tiny else WORKLOADS)[args.workload]
    workload = KINDS[args.workload](params, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": timed_setup(workload, NullTracer())}))
        return 0

    OUT.mkdir(exist_ok=True)
    record = {"provenance": provenance(args, params)}
    if args.trace:
        metrics, extra, info, passes, tr = run_traced(workload, params)
        record["spans"] = tr.to_json()
    else:
        metrics, extra, info, passes = run_untraced(args, workload, params)
    notes = [rd.notes for rd in passes if rd.notes]
    if notes:
        info["notes_pass0"] = notes[0]
    attempted = sum(rd.ops for rd in passes)
    failed = sum(rd.failed for rd in passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record.update(info=info, also_reported=extra, result=result)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    prov = record["provenance"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"engine {prov['engine']}, numba importable {prov['numba_importable']}, "
          f"python {prov['python']}, numpy {prov['numpy']}, "
          f"nproc {prov['nproc']}, commit {prov['git_commit']}")
    for key, m in metrics.items():
        print(f"  {key:26s} {m['value']:.6g} {m['unit']}")
    for key, m in extra.items():
        value = "n/a (fewer than 10 samples beyond)" if m["value"] is None \
            else f"{m['value']:.6g}"
        print(f"  also {key:21s} {value} {m['unit']}")
    for key, value in info.items():
        if not isinstance(value, list):
            print(f"  info {key:21s} {value}")
    print(f"  checks: {attempted - failed}/{attempted} passed; record {OUT / name}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def selfcheck() -> int:
    """Every workload at tiny size, untraced and traced (twice, for exact
    repeats), checked against the metric names and units in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    exact = ["kernels.runs", "kernels.calls", "router.hops", "router.route_calls",
             "simulator.rounds", "simulator.messages", "simulator.sweep_calls"]
    names = [w["name"] for w in spec["workloads"]]
    problems = [] if set(names) == set(KINDS) else [f"workloads {names} != {sorted(KINDS)}"]
    for wl in names:
        seen = []
        for trace in (0, 1, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl,
                   "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            tag = f"{wl} trace {trace}"
            before = len(problems)
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{tag}: metrics {got} != {want[trace]}")
            if not (result["correct"] and result["attempted"] > 0
                    and result["failed"] == 0):
                problems.append(f"{tag}: {result}")
            if trace == 0 and any(m["value"] <= 0 for m in result["metrics"].values()):
                problems.append(f"{tag}: non-positive end-to-end metric")
            if trace == 1:
                record = json.loads((OUT / f"{wl}-seed7-trace1.json").read_text())
                notes = record["info"].get("notes_pass0")
                seen.append(([result["metrics"][n]["value"] for n in exact], notes))
            print(f"selfcheck {tag}: {'ok' if len(problems) == before else 'FAIL'}")
        if len(seen) == 2 and seen[0] != seen[1]:
            problems.append(f"{wl}: counts differ between identical traced runs: {seen}")
    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    print("selfcheck: " + ("FAILED" if problems else "all workloads passed"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(KINDS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny k: every workload and check in seconds")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run every workload with --tiny and validate the output")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
