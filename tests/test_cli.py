import json
import subprocess
import sys

import pytest

from ddbnb.cli import main


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def misp_file(tmp_path):
    path = tmp_path / "misp.gr"
    assert main(["gen", "misp", "--n", "10", "--p", "0.4", "--seed", "3",
                 "-o", str(path)]) == 0
    return path


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.gr", tmp_path / "b.gr"
    run_cli("gen", "mcp", "--n", "8", "--p", "0.5", "--seed", "1", "-o",
            str(a), capsys=capsys)
    run_cli("gen", "mcp", "--n", "8", "--p", "0.5", "--seed", "1", "-o",
            str(b), capsys=capsys)
    assert a.read_bytes() == b.read_bytes()


def test_gen_requires_density_for_graph_problems(tmp_path, capsys):
    code, _, err = run_cli("gen", "mcp", "--n", "8", "--seed", "1", "-o",
                           str(tmp_path / "x.gr"), capsys=capsys)
    assert code == 1
    assert "--p" in err


def test_solve_reports_closed_gap(misp_file, capsys):
    code, out, _ = run_cli("solve", "misp", str(misp_file), capsys=capsys)
    assert code == 0
    assert "status=optimal gap=0.0" in out
    assert "objective=" in out and "explored=" in out


def test_solve_json_fields(misp_file, capsys):
    code, out, _ = run_cli("solve", "misp", str(misp_file), "--json",
                           capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "optimal"
    assert payload["gap"] == 0.0
    assert set(payload) >= {"objective", "bound", "explored", "seconds",
                            "problem", "instance"}


def test_solve_configs_agree(misp_file, capsys):
    objectives = set()
    for rub in ("on", "off"):
        for locb in ("on", "off"):
            code, out, _ = run_cli("solve", "misp", str(misp_file),
                                   "--rub", rub, "--locb", locb, "--json",
                                   capsys=capsys)
            assert code == 0
            objectives.add(json.loads(out)["objective"])
    assert len(objectives) == 1


def test_solve_timeout_exit_code(tmp_path, capsys):
    path = tmp_path / "mcp.gr"
    run_cli("gen", "mcp", "--n", "30", "--p", "0.5", "--seed", "2", "-o",
            str(path), capsys=capsys)
    code, out, _ = run_cli("solve", "mcp", str(path), "--timeout", "0",
                           "--json", capsys=capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "timeout"
    assert payload["gap"] == 100.0
    assert "bound" in payload and "objective" in payload


def test_solve_json_is_valid_on_infeasible_instance(tmp_path, capsys):
    # the two-city instance whose only tour misses city 1's window: no
    # objective and no bound exist, and JSON has no Infinity to say so
    path = tmp_path / "infeasible.tw"
    path.write_text("2\n0 5\n5 0\n0 100\n0 1\n")

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    code, out, _ = run_cli("solve", "tsptw", str(path), "--json",
                           capsys=capsys)
    assert code == 0
    payload = json.loads(out, parse_constant=reject)
    assert payload["status"] == "optimal"
    assert payload["gap"] == 0.0
    assert payload["objective"] is None and payload["bound"] is None


def test_solve_missing_file(capsys):
    code, _, err = run_cli("solve", "misp", "no-such-file.gr", capsys=capsys)
    assert code == 1
    assert "no such instance" in err


def test_unknown_problem_is_usage_error(capsys):
    assert main(["solve", "sudoku", "x.gr"]) == 1


def test_solve_tsptw_reports_makespan(tmp_path, capsys):
    path = tmp_path / "t.tw"
    run_cli("gen", "tsptw", "--n", "6", "--seed", "4", "-o", str(path),
            capsys=capsys)
    code, out, _ = run_cli("solve", "tsptw", str(path), "--json",
                           capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["objective"] > 0  # sign-corrected to a makespan
    assert payload["bound"] == payload["objective"]


def test_dot_dump(misp_file, tmp_path, capsys):
    target = tmp_path / "dd.dot"
    code, _, _ = run_cli("solve", "misp", str(misp_file), "--width", "3",
                         "--dot", str(target), capsys=capsys)
    assert code == 0
    assert target.read_text().startswith("digraph")


@pytest.fixture
def manifest(tmp_path):
    for seed in (0, 1):
        main(["gen", "misp", "--n", "8", "--p", "0.5", "--seed", str(seed),
              "-o", str(tmp_path / f"m{seed}.gr")])
    path = tmp_path / "manifest.txt"
    path.write_text("misp m0.gr\nmisp m1.gr\n")
    return path


def test_bench_rows_and_header(manifest, tmp_path, capsys):
    out_csv = tmp_path / "out.csv"
    code, _, _ = run_cli("bench", str(manifest), "-o", str(out_csv),
                         "--no-time", capsys=capsys)
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "instance,problem,config,status,objective,bound,gap,explored,seconds"
    assert len(lines) == 1 + 2 * 4  # two instances, four configs


def test_bench_reruns_are_identical(manifest, tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("bench", str(manifest), "-o", str(a), "--no-time", capsys=capsys)
    run_cli("bench", str(manifest), "-o", str(b), "--no-time", capsys=capsys)
    assert a.read_bytes() == b.read_bytes()


def test_bench_skips_missing_instances(manifest, tmp_path, capsys):
    manifest.write_text(manifest.read_text() + "misp missing.gr\n")
    out_csv = tmp_path / "out.csv"
    code, _, err = run_cli("bench", str(manifest), "-o", str(out_csv),
                           "--no-time", capsys=capsys)
    assert code == 0
    assert "missing.gr" in err
    assert len(out_csv.read_text().splitlines()) == 1 + 2 * 4


def test_threads_is_a_positive_bench_option(manifest, misp_file, capsys):
    code, _, err = run_cli("bench", str(manifest), "--threads", "0",
                           capsys=capsys)
    assert code == 1
    assert ">= 1" in err
    code, _, _ = run_cli("solve", "misp", str(misp_file), "--threads", "2",
                         capsys=capsys)
    assert code == 1


def test_pooled_bench_reports_a_malformed_instance(manifest, capfd):
    # the worker's ParseError reaches the parent intact: one error line, no
    # traceback from the parent or from a worker process
    (manifest.parent / "broken.gr").write_text("p edge 2 1\ne 1 5 3\n")
    manifest.write_text(manifest.read_text() + "misp broken.gr\n")
    code = main(["bench", str(manifest), "--threads", "2", "--no-time",
                 "-o", str(manifest.parent / "out.csv")])
    _, err = capfd.readouterr()
    assert code == 1
    assert "error: line 2: edge endpoints out of range" in err
    assert "Traceback" not in err


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "ddbnb.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "solve" in proc.stdout
