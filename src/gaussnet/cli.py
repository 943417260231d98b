"""Command-line front end: gen, tree, route, verify, simulate, sweep."""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import lru_cache
from itertools import accumulate
from pathlib import Path

import numpy as np

from .core import (
    REGIONS,
    ZERO,
    diamond_nodes,
    distances_from,
    format_node,
    network,
    node_count,
    parse_node,
    region_codes,
    residue,
    rho,
)
from .router import (
    RoutingError,
    _shared_interior,
    format_trace,
    route,
    route_to_json,
)
from .simulator import (
    SimConfig,
    SimulationError,
    check_sweep,
    fault_label,
    reachability_report,
    run,
    simrun_trace_json,
    sweep,
    sweep_metadata,
    sweep_table_csv,
    region_resolution_check,
)
from .trees import (_ancestor_blocks, build_tree, path_word, root_paths, tree_path,
                    verify_independence)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def _parse_range(text: str) -> list[int]:
    """"2..6" -> [2,3,4,5,6]; "4" -> [4]."""
    lo_s, dots, hi_s = text.partition("..")
    try:
        lo, hi = int(lo_s), int(hi_s if dots else lo_s)
    except ValueError:
        raise ValueError(f"malformed range {text!r}: expected N or LO..HI") from None
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return list(range(lo, hi + 1))


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _check_outputs(paths: list[str]) -> None:
    """Fail before any work unless each absolute path can be written as a
    file: not a directory, in a directory that exists and is writable."""
    for p in paths:
        if os.path.isdir(p):
            raise IsADirectoryError(f"output is a directory: {p}")
    for parent in dict.fromkeys(os.path.dirname(p) for p in paths):
        if not os.path.isdir(parent):
            raise FileNotFoundError(f"no such output directory: {parent}")
        if not os.access(parent, os.W_OK):
            raise PermissionError(f"output directory is not writable: {parent}")


def _cmd_gen(args) -> int:
    _check_outputs([os.path.abspath(args.out)] if args.out else [])
    net = network(args.k)
    text = net.to_json() + "\n" if args.format == "json" else net.to_dot()
    _write_output(text, args.out)
    return EXIT_OK


def _cmd_tree(args) -> int:
    indices = [1, 2, 3, 4] if args.j == "all" else [int(args.j)]
    if len(indices) > 1:
        outdir = Path(args.out or ".")
        outdir.mkdir(parents=True, exist_ok=True)
        for j in indices:
            t = build_tree(j, args.k)
            text = t.to_json() + "\n" if args.format == "json" else t.to_dot()
            (outdir / f"tree_j{j}_k{args.k}.{args.format}").write_text(text)
    else:
        _check_outputs([os.path.abspath(args.out)] if args.out else [])
        t = build_tree(indices[0], args.k)
        text = t.to_json() + "\n" if args.format == "json" else t.to_dot()
        _write_output(text, args.out)
    return EXIT_OK


def _cmd_route(args) -> int:
    if args.all and args.json:
        raise ValueError("--json emits one route and cannot be used with --all")
    s, d = parse_node(args.s), parse_node(args.d)
    if args.all:
        routes = []
        for j in (1, 2, 3, 4):
            routes.append(route(s, d, j, args.k))
            print(format_trace(routes[-1], j, args.k))
        disjoint = _shared_interior(routes) is None
        print(f"disjoint: {'yes' if disjoint else 'NO'}")
        return EXIT_OK if disjoint else EXIT_VERIFY_FAILED
    j = int(args.j)
    if args.json:
        print(route_to_json(s, d, j, args.k))
    else:
        print(format_trace(route(s, d, j, args.k), j, args.k))
    return EXIT_OK


def _verify_one(k: int) -> list[tuple[str, bool, str]]:
    """Run the invariant suite for one k; returns (name, ok, detail) rows."""
    results: list[tuple[str, bool, str]] = []
    n = node_count(k)

    dist = distances_from(ZERO, k)
    by_level: dict[int, int] = {}
    for v, dv in dist.items():
        by_level[dv] = by_level.get(dv, 0) + 1
    topo_ok = (
        len(dist) == n
        and max(dist.values()) == k
        and all(by_level.get(j, 0) == 4 * j for j in range(1, k + 1))
    )
    results.append(("topology", topo_ok, f"{n} nodes, diameter {max(dist.values())}"))

    counts = np.bincount(region_codes(k), minlength=len(REGIONS)).tolist()
    expected_sizes = {"S": 1, "P": 1, "B": k - 2, "R": k - 1,
                      "Q": (k - 1) * (k - 2) // 2}
    partition_ok = counts == [1, *(expected_sizes[reg.cls.value] for reg in REGIONS[1:])]
    results.append(("partition", partition_ok,
                    f"{sum(map(bool, counts[1:]))} quadrant regions"))

    try:  # root_paths words why the parent table is not four spanning trees
        depth = root_paths(k)[0]
    except AssertionError as reason:
        return [*results, ("spanning", False, str(reason))]
    results.append(("spanning", True, f"{n - 1} edges per tree"))

    trees = [build_tree(j, k) for j in (1, 2, 3, 4)]

    height = int(depth.max())
    results.append(("height", height == 2 * k, f"height {height}"))

    edges1 = trees[0].edges()
    rot_ok = all(
        trees[j].edges() == frozenset(frozenset(rho(q, j) for q in e) for e in edges1)
        for j in range(4)
    )
    results.append(("rotation", rot_ok, "tree j = rho^(j-1) of tree 1"))

    nodes = network(k).nodes
    words_ok = all(  # each word walked from the root as sums of its steps' residues
        [w % n for w in accumulate(
            sum(([residue(d, k)] * m for d, m in path_word(nodes[r], k).steps), []), initial=0)]
        == A[0, depth[r, 0]::-1, i].tolist()
        for _, A in _ancestor_blocks(k, np.arange(1, n)) for i, r in enumerate(A[0, 0].tolist())
    )
    results.append(("path-words", words_ok, "word table matches tree 1"))

    indep_ok, witness = verify_independence(k)
    detail = "all pairs"
    if witness:  # the first node with a shared interior node, two trees, that node
        v, j, j2, u = witness
        detail = f"{format_node(v)}: trees {j} and {j2} share {format_node(u)}"
    results.append(("independence", indep_ok, detail))

    router_ok = True
    try:
        for v in diamond_nodes(k):
            if v == ZERO:
                continue
            for j in (1, 2, 3, 4):
                if route(ZERO, v, j, k) != tree_path(trees[j - 1], v):
                    router_ok = False
    except RoutingError:
        router_ok = False
    results.append(("router-oracle", router_ok, "routes equal tree paths"))

    results.append(("region-resolution", region_resolution_check(k), "simulated rows"))

    sim = run(SimConfig(k=k))
    sim_ok = (
        sim.last_active_round == k + 1
        and sim.messages_sent == 6 * k * k + 6 * k + 4
    )
    results.append(
        ("fault-free-run", sim_ok,
         f"{sim.last_active_round} rounds, {sim.messages_sent} messages"),
    )
    return results


def _cmd_verify(args) -> int:
    failed = False
    for k in _parse_range(args.k):
        if k < 2:
            raise ValueError("verify requires k >= 2")
        for name, ok, detail in _verify_one(k):
            status = "PASS" if ok else "FAIL"
            print(f"k={k} {name}: {status} ({detail})")
            failed = failed or not ok
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def _cmd_simulate(args) -> int:
    if args.trace:
        _check_outputs([os.path.abspath(args.trace)])
    faults = [parse_node(t) for t in args.faults.split(",")] if args.faults else []
    if len(set(faults)) != len(faults):
        raise ValueError(f"duplicate fault literal in {args.faults!r}")
    config = SimConfig(
        k=args.k, root=parse_node(args.root), faults=frozenset(faults)
    )
    sim = run(config)
    report = reachability_report(sim)
    live = [v for v in report if v not in config.faults]
    unreachable = [v for v in live if not report[v]]
    print(f"k={config.k} faults={sorted(map(format_node, config.faults))}")
    print(f"rounds: {sim.last_active_round}")
    print(f"messages: {sim.messages_sent}")
    print(f"reached: {len(sim.first_receipt)}/{len(live)} live nodes")
    if unreachable:
        print(f"CRITICAL unreachable: {sorted(map(format_node, unreachable))}")
    if args.trace:
        Path(args.trace).write_text(simrun_trace_json(sim) + "\n")
    return EXIT_VERIFY_FAILED if unreachable else EXIT_OK


def _cmd_sweep(args) -> int:
    meta_out = args.meta_out or args.avg_out + ".meta.json"
    outs = (args.avg_out, args.max_out, meta_out)
    abs_outs = [os.path.abspath(p) for p in outs]
    if len(set(abs_outs)) < len(outs):
        raise ValueError(f"output paths must differ: {', '.join(outs)}")
    _check_outputs(abs_outs)
    ks = _parse_range(args.k)
    fs = _parse_range(args.faults)
    for k in ks:  # every cell's arguments, before the first cell runs
        for f in fs:
            check_sweep(k, f, args.sample, args.seed, args.workers)
    stats = {}
    for k in ks:
        for f in fs:
            t0 = time.perf_counter()
            st = sweep(k, f, sample=args.sample, seed=args.seed, workers=args.workers)
            stats[(k, f)] = st
            dt = time.perf_counter() - t0
            print(
                f"k={k} {fault_label(f)}: {st.runs} runs "
                f"avg={st.avg_text()} max={st.max_max} ({dt:.1f}s)",
                file=sys.stderr,
            )
    Path(args.avg_out).write_text(sweep_table_csv(stats, ks, fs, "avg"))
    Path(args.max_out).write_text(sweep_table_csv(stats, ks, fs, "max"))
    Path(meta_out).write_text(sweep_metadata(stats) + "\n")
    return EXIT_OK


def _positive_k(text: str) -> int:
    k = int(text)
    if k < 1:
        raise argparse.ArgumentTypeError(f"k must be >= 1, got {k}")
    return k


def _tree_k(text: str) -> int:
    k = int(text)
    if k < 2:
        raise argparse.ArgumentTypeError(f"k must be >= 2, got {k}")
    return k


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process so that repeated main() calls do
    not rebuild it.  It is shared: callers must not mutate it.  Each verb's
    handler is bound at that first build; patch what a handler calls."""
    parser = argparse.ArgumentParser(
        prog="gaussnet",
        description="Dense Gaussian networks: trees, routing, fault simulation.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="emit the network as DOT or JSON")
    p.add_argument("--k", type=_positive_k, required=True)
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("tree", help="emit spanning tree(s)")
    p.add_argument("--k", type=_tree_k, required=True)
    p.add_argument("--j", choices=["1", "2", "3", "4", "all"], default="all")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("--out", help="file (single tree) or directory (--j all)")
    p.set_defaults(fn=_cmd_tree)

    p = sub.add_parser("route", help="trace a route between two nodes")
    p.add_argument("--k", type=_tree_k, required=True)
    p.add_argument("--s", required=True,
                   help='source literal, e.g. "0"; write --s=-2+2i for a leading minus')
    p.add_argument("--d", required=True, help="destination literal")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--j", choices=["1", "2", "3", "4"], default="1")
    group.add_argument("--all", action="store_true",
                       help="trace all four trees and check disjointness")
    p.add_argument("--json", action="store_true", help="emit the route as JSON")
    p.set_defaults(fn=_cmd_route)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--k", required=True, help='range, e.g. "2..6" or "4"')
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("simulate", help="one synchronous construction run")
    p.add_argument("--k", type=_positive_k, required=True)
    p.add_argument("--root", default="0")
    p.add_argument("--faults", help='comma-separated node literals, e.g. "1,-2+2i"')
    p.add_argument("--trace", help="write a JSON trace to this path")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("sweep", help="fault-combination sweeps, CSV output")
    p.add_argument("--k", required=True, help='range, e.g. "1..9"')
    p.add_argument("--faults", default="0..3", help='range, e.g. "0..3"')
    p.add_argument("--avg-out", required=True)
    p.add_argument("--max-out", required=True)
    p.add_argument("--meta-out", help="default: <avg-out>.meta.json")
    p.add_argument("--sample", type=int, help="sampled runs per cell (default: exhaustive)")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RoutingError, SimulationError, OSError, MemoryError) as exc:
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
