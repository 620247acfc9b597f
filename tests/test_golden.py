"""Golden outputs: `bench --no-time` CSVs and the assignments of pinned cases.

Speed work on the compiler must return the same results, down to which of
several optimal assignments a solve reports.  The files under `golden/`
were recorded before the restricted and exact diagrams were compiled as
state-keyed layers, which rewrote best-path reconstruction and its
tie-breaking.  The CSVs were re-recorded when the mcp and max2sat loaders
began to renumber an instance heaviest variable first: only the `explored`
cells of mcp and max2sat rows changed.  The assignments, solved through
the index-order library models, did not.  They were re-recorded again
when TSPTW's redirected arcs began to be re-based on the merged state's
earliest arrival: only the `explored` cells of tsptw `locb` rows changed,
since sound local bounds prune less.  A change that alters them on
purpose re-records them with `PYTHONPATH=src python tests/test_golden.py`
and says why.
"""

import json
from pathlib import Path

import pytest

from ddbnb import SolveConfig, solve
from ddbnb.cli import main

from support import make_problem
from test_counts import CONFIGS, PINNED, PINNED_BY_BOUND

GOLDEN = Path(__file__).parent / "golden"

# (problem, n, density, seeds) generated through `ddbnb gen`
GENERATED = [("misp", 40, 0.5), ("mcp", 20, 0.2), ("max2sat", 22, 0.1),
             ("tsptw", 11, None)]
SEEDS = range(3)
# two cities whose only tour misses city 1's window
INFEASIBLE_TSPTW = "2\n0 5\n5 0\n0 100\n0 1\n"
WIDTHS = {"default": (), "w2": ("--width", "2"), "w4": ("--width", "4")}


def write_instances(root: Path) -> Path:
    """Write the instance set and its manifest under `root`."""
    lines = []
    for problem, n, density in GENERATED:
        for seed in SEEDS:
            name = f"{problem}-{n}-{seed}.txt"
            argv = ["gen", problem, "--n", str(n), "--seed", str(seed),
                    "-o", str(root / name)]
            if density is not None:
                argv += ["--p", str(density)]
            assert main(argv) == 0
            lines.append(f"{problem} {name}")
    (root / "tsptw-infeasible.txt").write_text(INFEASIBLE_TSPTW)
    lines.append("tsptw tsptw-infeasible.txt")
    manifest = root / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def bench_csv(manifest: Path, width: str) -> str:
    out = manifest.parent / f"bench-{width}.csv"
    assert main(["bench", str(manifest), "--no-time", "--threads", "1",
                 "-o", str(out), *WIDTHS[width]]) == 0
    return out.read_text()


CASES = ([(case, False) for case in PINNED]
         + [(case, None) for case in PINNED_BY_BOUND])


def case_id(case, rank_by_bound) -> str:
    ranking = "by-value" if rank_by_bound is False else "default"
    return "-".join(map(str, case)) + f"-{ranking}"


def assignments(case, rank_by_bound) -> dict:
    """{config: returned assignment} of one pinned case, ranked as
    `tests/test_counts.py` ranks it."""
    name, n, density, seed, width = case
    _, problem, relaxation = make_problem(name, seed, n, density)
    if rank_by_bound is not None:
        problem.rank_by_bound = rank_by_bound
    found = {}
    for config, (use_rub, use_locb) in CONFIGS.items():
        out = solve(problem, relaxation,
                    SolveConfig(width=width, use_rub=use_rub, use_locb=use_locb))
        assert out.optimal
        found[config] = out.assignment
    return found


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    return write_instances(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("width", list(WIDTHS))
def test_bench_csv_matches_golden(manifest, width):
    expected = (GOLDEN / f"bench-{width}.csv").read_text()
    assert bench_csv(manifest, width) == expected


@pytest.mark.parametrize("case,rank_by_bound", CASES,
                         ids=[case_id(*c) for c in CASES])
def test_assignments_match_golden(case, rank_by_bound):
    pinned = json.loads((GOLDEN / "assignments.json").read_text())
    key = case_id(case, rank_by_bound)
    for config, assignment in assignments(case, rank_by_bound).items():
        assert assignment == pinned[f"{key}/{config}"], config


def record(root: Path) -> None:
    """Re-record every golden file from the current solver."""
    GOLDEN.mkdir(exist_ok=True)
    manifest = write_instances(root)
    for width in WIDTHS:
        (GOLDEN / f"bench-{width}.csv").write_text(bench_csv(manifest, width))
    lines = [f"{json.dumps(case_id(*c) + '/' + config)}: {json.dumps(found)}"
             for c in CASES for config, found in assignments(*c).items()]
    (GOLDEN / "assignments.json").write_text(
        "{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as scratch:
        record(Path(scratch))
