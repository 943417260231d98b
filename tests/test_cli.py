"""Command-line surface: verbs, formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gaussnet import cli
from gaussnet.cli import EXIT_OK, EXIT_USAGE, build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


def test_gen_json_node_counts(tmp_path, capsys):
    out = tmp_path / "net.json"
    assert main(["gen", "--k", "3", "--format", "json", "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert len(payload["nodes"]) == 25
    # nodes are numbered by residue but listed in (x, y) order
    nodes = [(v["x"], v["y"]) for v in payload["nodes"]]
    assert nodes == sorted(nodes)

    assert main(["gen", "--k", "1", "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["nodes"]) == 5


def test_gen_rejects_k0():
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--k", "0"])
    assert exc.value.code == EXIT_USAGE


def test_gen_dot_dashed(capsys):
    assert main(["gen", "--k", "2", "--format", "dot"]) == EXIT_OK
    assert "style=dashed" in capsys.readouterr().out


def test_tree_single(tmp_path):
    out = tmp_path / "t1.json"
    assert main(["tree", "--k", "4", "--j", "1", "--format", "json",
                 "--out", str(out)]) == EXIT_OK
    assert len(json.loads(out.read_text())["parents"]) == 40


def test_tree_all_writes_four_files(tmp_path):
    assert main(["tree", "--k", "3", "--j", "all", "--format", "dot",
                 "--out", str(tmp_path)]) == EXIT_OK
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == [f"tree_j{j}_k3.dot" for j in (1, 2, 3, 4)]


def test_tree_rejects_k1():
    with pytest.raises(SystemExit) as exc:
        main(["tree", "--k", "1"])
    assert exc.value.code == EXIT_USAGE


def test_route_trace(capsys):
    assert main(["route", "--k", "4", "--s", "0", "--d=-2+2i", "--j", "1"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    assert lines[0] == "step 1: node (0) --+1--> node (1) [tree 1]"
    assert lines[-1].endswith("node (-2+2i) [tree 1]")


def test_route_tree2_example(capsys):
    assert main(["route", "--k", "4", "--s", "0", "--d=-2-2i", "--j", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    for node in ("(i)", "(2i)", "(3i)", "(1+3i)", "(-2-2i)"):
        assert node in out


def test_route_all_disjoint(capsys):
    assert main(["route", "--k", "3", "--s", "1", "--d=-1+i", "--all"]) == EXIT_OK
    assert capsys.readouterr().out.strip().endswith("disjoint: yes")


def test_route_all_not_disjoint(monkeypatch, capsys):
    from gaussnet import router

    real = router.route

    def forged(s, d, j, k):  # tree 2 retraces tree 1's path
        return real(s, d, 1 if j == 2 else j, k)

    monkeypatch.setattr(router, "route", forged)
    monkeypatch.setattr(cli, "route", forged)
    assert main(["route", "--k", "3", "--s", "0", "--d", "2+i", "--all"]) == 1
    out = capsys.readouterr().out.strip().splitlines()
    assert sum(line.startswith("step 1:") for line in out) == 4
    assert out[-1] == "disjoint: NO"


def test_route_json(capsys):
    assert main(["route", "--k", "4", "--s", "0", "--d", "2+i", "--j", "1",
                 "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["path"][0] == {"x": 0, "y": 0}
    assert payload["path"][-1] == {"x": 2, "y": 1}


def test_route_bad_literal():
    assert main(["route", "--k", "3", "--s", "zzz", "--d", "1"]) == EXIT_USAGE


def test_route_same_endpoints():
    assert main(["route", "--k", "3", "--s", "1", "--d", "1"]) == EXIT_USAGE


def test_verify_passes(capsys):
    assert main(["verify", "--k", "2..3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "k=2 independence: PASS" in out
    assert "k=3 router-oracle: PASS" in out
    assert "k=3 height: PASS (height 6)" in out


def test_simulate_fault_free(capsys):
    assert main(["simulate", "--k", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "rounds: 4" in out
    assert "messages: 76" in out


def test_simulate_trace_and_faults(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert main(["simulate", "--k", "2", "--faults=1,-i",
                 "--trace", str(trace)]) == EXIT_OK
    payload = json.loads(trace.read_text())
    assert payload["faults"] == ["-i", "1"]
    assert payload["messages_per_round"][0] == 4


def test_simulate_rejects_faulty_root():
    assert main(["simulate", "--k", "2", "--faults", "0"]) == EXIT_USAGE


def test_sweep_small_grid(tmp_path, capsys):
    avg = tmp_path / "avg.csv"
    mx = tmp_path / "max.csv"
    assert main(["sweep", "--k", "1..2", "--faults", "0..2",
                 "--avg-out", str(avg), "--max-out", str(mx)]) == EXIT_OK
    avg_lines = avg.read_text().splitlines()
    assert avg_lines[0] == "alpha,1+2i,2+3i"
    assert avg_lines[1] == "No Faulty,2.000,3.000"
    assert avg_lines[2] == "1 Faulty,2.000,3.333"
    assert avg_lines[3] == "2 Faulty,2.000,3.515"
    mx_lines = mx.read_text().splitlines()
    assert mx_lines[1] == "No Faulty,2,3"
    assert mx_lines[3] == "2 Faulty,2,4"
    meta = json.loads((tmp_path / "avg.csv.meta.json").read_text())
    assert "step_convention" in meta


def test_sweep_sampled(tmp_path):
    avg = tmp_path / "avg.csv"
    mx = tmp_path / "max.csv"
    assert main(["sweep", "--k", "2", "--faults", "2", "--sample", "500",
                 "--seed", "7", "--avg-out", str(avg), "--max-out", str(mx)]) == EXIT_OK
    cell = avg.read_text().splitlines()[1].split(",")[1]
    assert abs(float(cell) - 3.515) < 0.2


@pytest.mark.parametrize("argv", [
    ["sweep", "--k", "2", "--faults", "1", "--sample", "0"],
    ["sweep", "--k", "2", "--faults", "1", "--sample=-1"],
    ["simulate", "--k", "3", "--faults=100"],
    ["simulate", "--k", "3", "--root=100"],
    ["simulate", "--k", "3", "--faults=1,1"],
    ["sweep", "--k", "2", "--faults", "1", "--workers", "0"],
    ["sweep", "--k", "2", "--faults", "1", "--workers=-3"],
    ["route", "--k", "2", "--s", "0", "--d", "5"],
    ["route", "--k", "2", "--s", "5", "--d", "0"],
    ["sweep", "--k", "2", "--faults", "1", "--seed", "5"],
    ["sweep", "--k", "2", "--faults", "1", "--sample", "1000000000000000"],  # 7 PiB
    ["route", "--k", "2", "--s", "0", "--d", "1", "--all", "--json"],
    ["sweep", "--k", "2", "--faults", "1", "--max-out", "a.csv"],
    ["sweep", "--k", "2", "--faults", "1", "--meta-out", "./m.csv"],
    ["sweep", "--k", "2", "--faults", "1", "--max-out", "nodir/m.csv"],
    ["sweep", "--k", "2", "--faults", "1", "--avg-out", "."],
    ["simulate", "--k", "2", "--trace", "nodir/t.json"],
    ["sweep", "--k", "1..2", "--faults", "0..1", "--sample", "5", "--seed=-1"],
    ["gen", "--k", "3", "--out", "nodir/g.dot"],
    ["gen", "--k", "3", "--out", "."],
    ["tree", "--k", "3", "--j", "1", "--out", "nodir/t.json"],
])
def test_bad_input_one_line_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "sweep":  # the case's own outputs, if any, come last and win
        argv = argv[:1] + ["--avg-out", "a.csv", "--max-out", "m.csv"] + argv[1:]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert captured.out == ""  # no report, no progress: it failed before any work
    assert list(tmp_path.iterdir()) == []


def test_bad_output_fails_before_the_build(tmp_path, monkeypatch, capsys):
    def no_build(*args):
        raise AssertionError("built before the output was checked")

    monkeypatch.setattr(cli, "network", no_build)
    monkeypatch.setattr(cli, "build_tree", no_build)
    for argv in (["gen", "--k", "3", "--out", str(tmp_path / "nodir" / "g.dot")],
                 ["tree", "--k", "3", "--j", "2", "--out", str(tmp_path)]):
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_entry_point_bad_output_exits_2(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "gaussnet", "sweep", "--k", "2", "--faults", "1",
         "--avg-out", str(tmp_path / "nodir" / "a.csv"),
         "--max-out", str(tmp_path / "m.csv")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == EXIT_USAGE
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_simulation_error_is_usage_error(monkeypatch, capsys):
    from gaussnet.simulator import SimulationError

    def capped(config):
        raise SimulationError("exceeded max_rounds=1 at round 2")

    # the shared parser is built before the patch, and the patch still holds
    assert main(["simulate", "--k", "2"]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(cli, "run", capped)
    assert main(["simulate", "--k", "3"]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: exceeded max_rounds=1 at round 2"]


def test_parser_built_once():
    assert build_parser() is build_parser()


def test_repeated_main_calls_share_no_state(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--k", "0"])
    assert exc.value.code == EXIT_USAGE
    first = tmp_path / "first"
    second = tmp_path / "second"
    for d in (first, second):
        d.mkdir()
    assert main(["sweep", "--k", "2", "--faults", "1",
                 "--avg-out", str(first / "a.csv"), "--max-out", str(first / "m.csv"),
                 "--meta-out", str(first / "meta.json")]) == EXIT_OK
    assert main(["sweep", "--k", "2", "--faults", "1",
                 "--avg-out", str(second / "a.csv"),
                 "--max-out", str(second / "m.csv")]) == EXIT_OK
    assert sorted(p.name for p in first.iterdir()) == ["a.csv", "m.csv", "meta.json"]
    assert sorted(p.name for p in second.iterdir()) == [
        "a.csv", "a.csv.meta.json", "m.csv"]


def _sweep_outputs(tmp_path, ks, fs):
    """One `sweep` call -> ({(alpha, row label): (avg, max)}, {(alpha, f): exact})."""
    avg, mx = tmp_path / "a.csv", tmp_path / "m.csv"
    assert main(["sweep", "--k", ks, "--faults", fs,
                 "--avg-out", str(avg), "--max-out", str(mx)]) == EXIT_OK
    cells = {}
    avg_rows, max_rows = avg.read_text().splitlines(), mx.read_text().splitlines()
    header = avg_rows[0].split(",")[1:]
    for avg_row, max_row in zip(avg_rows[1:], max_rows[1:]):
        label, *avg_cells = avg_row.split(",")
        for alpha, a, m in zip(header, avg_cells, max_row.split(",")[1:]):
            cells[(alpha, label)] = (a, m)
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    exact = {(c["alpha"], c["faults"]): c["avg_max_exact"] for c in meta["cells"]}
    return cells, exact


def test_one_call_per_cell_matches_one_table_call(tmp_path, capsys):
    per_cell, per_cell_exact = {}, {}
    for k in range(1, 5):
        for f in range(4):
            out = tmp_path / f"k{k}f{f}"
            out.mkdir()
            cells, exact = _sweep_outputs(out, str(k), str(f))
            per_cell.update(cells)
            per_cell_exact.update(exact)
    whole = tmp_path / "whole"
    whole.mkdir()
    cells, exact = _sweep_outputs(whole, "1..4", "0..3")
    assert len(cells) == len(exact) == 16
    assert per_cell == cells
    assert per_cell_exact == exact
