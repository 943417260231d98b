"""Command-line surface: verbs, formats, exit codes."""

import json

import pytest

from gaussnet.cli import EXIT_OK, EXIT_USAGE, main


def test_gen_json_node_counts(tmp_path, capsys):
    out = tmp_path / "net.json"
    assert main(["gen", "--k", "3", "--format", "json", "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert len(payload["nodes"]) == 25

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
])
def test_bad_input_one_line_usage_error(argv, tmp_path, capsys):
    if argv[0] == "sweep":
        argv = argv + ["--avg-out", str(tmp_path / "a.csv"),
                       "--max-out", str(tmp_path / "m.csv")]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
