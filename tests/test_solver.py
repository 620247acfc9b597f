import time

import pytest

from ddbnb import (Fringe, NEG_INF, POS_INF, SolveConfig, Status, SubProblem,
                   best_solution, brute_force_optimum, end_gap,
                   evaluate_assignment, solve)
from ddbnb import instances as io
from ddbnb.cli import main as cli_main
from ddbnb.problems import tsptw
from ddbnb.solver import _Search

from support import make_problem

PROBLEMS = ["misp", "mcp", "max2sat", "tsptw"]
ALL_CONFIGS = [(False, False), (True, False), (False, True), (True, True)]


def test_end_gap_formula():
    assert end_gap(20, 25) == 20.0
    assert end_gap(42, 42) == 0.0
    assert end_gap(0, 0) == 0.0


def test_end_gap_open_and_invalid():
    assert end_gap(NEG_INF, 10) == 100.0
    assert end_gap(3, POS_INF) == 100.0
    with pytest.raises(ValueError):
        end_gap(5, 4)


def test_fringe_pop_order():
    fringe = Fringe()
    fringe.push(SubProblem("low", 1, (), 5))
    fringe.push(SubProblem("tie-late", 2, (), 9))
    fringe.push(SubProblem("high", 0, (), 12))
    fringe.push(SubProblem("tie-early", 2, (), 9))
    fringe.push(SubProblem("tie-weak", 1, (), 9))
    assert fringe.max_ub() == 12
    order = [fringe.pop().state for _ in range(len(fringe))]
    # ub desc, then value desc, then first-in first-out
    assert order == ["high", "tie-late", "tie-early", "tie-weak", "low"]


@pytest.mark.parametrize("name", PROBLEMS)
@pytest.mark.parametrize("seed", range(5))
def test_all_configs_return_the_optimum(name, seed):
    _, problem, relaxation = make_problem(name, seed, 7)
    best, _ = brute_force_optimum(problem)
    # an unpruned run over heavily merged TSPTW diagrams re-explores
    # overlapping prefixes forever, so that problem branches at full width
    width = None if name == "tsptw" else 3
    values = set()
    for use_rub, use_locb in ALL_CONFIGS:
        out = solve(problem, relaxation,
                    SolveConfig(width=width, use_rub=use_rub, use_locb=use_locb))
        assert out.status is Status.OPTIMAL
        assert out.gap == 0.0
        values.add(out.value)
    assert values == {best}


@pytest.mark.parametrize("name", PROBLEMS)
def test_returned_assignment_replays_to_value(name):
    from ddbnb import evaluate_assignment

    for seed in range(5):
        _, problem, relaxation = make_problem(name, seed, 6)
        width = None if name == "tsptw" else 2
        out = solve(problem, relaxation, SolveConfig(width=width))
        if out.value == NEG_INF:
            assert out.assignment is None
            continue
        assert evaluate_assignment(problem, out.assignment) == out.value


def test_incumbent_monotone_and_bound_nonincreasing():
    for seed in range(4):
        _, problem, relaxation = make_problem("mcp", seed, 8)
        incumbents, bounds = [], []
        cfg = SolveConfig(width=2, iteration_hook=lambda lb, ub:
                          (incumbents.append(lb), bounds.append(ub)))
        solve(problem, relaxation, cfg)
        assert incumbents == sorted(incumbents)
        assert bounds == sorted(bounds, reverse=True)


def test_pruning_changes_work_not_answers():
    explored = {}
    for seed in range(4):
        _, problem, relaxation = make_problem("misp", seed, 9)
        values = set()
        for use_rub, use_locb in ALL_CONFIGS:
            out = solve(problem, relaxation,
                        SolveConfig(width=2, use_rub=use_rub, use_locb=use_locb))
            values.add(out.value)
            explored[(seed, use_rub, use_locb)] = out.explored
        assert len(values) == 1
    # pruning everything on must never explore more than pruning nothing
    assert all(explored[(s, True, True)] <= explored[(s, False, False)]
               for s in range(4))


def test_exact_restricted_root_short_circuits():
    # a wide enough width makes the root restricted diagram exact, so the
    # instance is solved in a single exploration with no relaxed compile
    _, problem, relaxation = make_problem("misp", 1, 6)
    seen = []
    cfg = SolveConfig(width=1 << 10,
                      dd_observer=lambda kind, dd, sub, inc: seen.append(kind))
    out = solve(problem, relaxation, cfg)
    assert out.explored == 1
    assert seen == ["restricted"]


def test_locb_skips_hopeless_pops():
    # white box: a popped subproblem whose bound cannot beat the incumbent is
    # dropped before any compilation happens
    _, problem, relaxation = make_problem("misp", 0, 5)
    search = _Search(problem, relaxation, SolveConfig(use_locb=True))
    search.incumbent = 110
    search.fringe.push(SubProblem(problem.initial_state, 0, (), 102))
    search.run()
    assert search.explored == 1
    assert search.dd_nodes == 0


def test_infeasible_instance_is_optimal_without_incumbent():
    inst = io.TsptwInstance.make([[0, 5], [5, 0]], [(0, 100), (0, 1)])
    out = solve(tsptw.Tsptw(inst), tsptw.TsptwRelaxation(), SolveConfig())
    assert out.status is Status.OPTIMAL
    assert out.value == NEG_INF
    assert out.assignment is None
    assert out.gap == 0.0


def test_zero_timeout_reports_open_bounds():
    _, problem, relaxation = make_problem("mcp", 0, 8)
    out = solve(problem, relaxation, SolveConfig(timeout=0.0))
    assert out.status is Status.TIMEOUT
    assert out.value == NEG_INF
    assert out.bound == POS_INF
    assert out.gap == 100.0
    assert out.explored == 0


def test_deadline_cuts_a_long_exploration_short():
    # one exploration of this instance at this width compiles for seconds;
    # the deadline is checked before every layer, so the solve returns
    # within about one layer of it, with the cut subproblem's bound intact
    _, problem, relaxation = make_problem("mcp", 0, 50)
    timeout = 0.3
    started = time.monotonic()
    out = solve(problem, relaxation, SolveConfig(width=3000, timeout=timeout))
    elapsed = time.monotonic() - started
    assert out.status is Status.TIMEOUT
    assert elapsed < timeout + 1.5
    assert out.explored == 1
    assert out.bound >= out.value
    assert out.bound == POS_INF  # the root went back onto the fringe


def test_minimization_gap_is_sign_corrected_on_timeout():
    # the hook outlasts the deadline on the second pop, so the solve stops
    # after exactly two explorations with a tour found and a tour bounded
    _, problem, relaxation = make_problem("tsptw", 4, 6)
    timeout = 0.2
    pops = []

    def hook(incumbent, bound):
        pops.append(incumbent)
        if len(pops) == 2:
            time.sleep(timeout + 0.01)

    out = solve(problem, relaxation,
                SolveConfig(width=1, timeout=timeout, iteration_hook=hook))
    assert out.status is Status.TIMEOUT
    assert out.explored == 2
    assert NEG_INF < out.value < out.bound < POS_INF
    # reported makespans: -value is the tour found, -bound its lower bound
    assert 0.0 < out.gap < 100.0
    assert out.gap == end_gap(-out.bound, -out.value)


def test_deadline_in_relaxed_compile_keeps_the_restricted_solution():
    # the observer outlasts the deadline after the root's restricted compile,
    # so the relaxed compile stops at its first layer check; the restricted
    # diagram's nodes and best path still count
    _, problem, relaxation = make_problem("mcp", 0, 20)
    restricted = []

    def observer(kind, dd, sub, incumbent):
        if kind == "restricted":
            restricted.append(dd)
            time.sleep(0.25)

    out = solve(problem, relaxation,
                SolveConfig(timeout=0.2, dd_observer=observer))
    assert out.status is Status.TIMEOUT
    assert len(restricted) == 1 and not restricted[0].is_exact
    assert out.value > NEG_INF
    assert out.value == best_solution(restricted[0])[0]
    assert evaluate_assignment(problem, out.assignment) == out.value
    assert out.dd_nodes == restricted[0].nodes_created
    assert out.bound >= out.value


def test_workers_must_be_one():
    # a solve is one loop on one thread; parallelism lives in `bench --threads`
    assert SolveConfig(workers=1).workers == 1
    for workers in (0, 2, 4):
        with pytest.raises(ValueError, match="workers"):
            SolveConfig(workers=workers)


def test_workers_agree_with_single_thread(tmp_path):
    # `bench --threads 2` solves rows in worker processes; the rows come back
    # in manifest order, so the timeless CSV is the single-process one
    lines = []
    # sizes at which the unpruned config branches on every problem
    for name, n, seed in (("misp", 40, 0), ("mcp", 12, 2), ("max2sat", 10, 0),
                          ("tsptw", 12, 0)):
        instance, _, _ = make_problem(name, seed, n)
        emit = {"misp": io.emit_graph, "mcp": io.emit_graph,
                "max2sat": io.emit_wcnf, "tsptw": io.emit_tsptw}[name]
        (tmp_path / f"{name}.txt").write_text(emit(instance))
        lines.append(f"{name} {name}.txt\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("".join(lines))
    csvs = []
    for threads in (1, 2):
        out = tmp_path / f"threads-{threads}.csv"
        assert cli_main(["bench", str(manifest), "--no-time",
                         "--threads", str(threads), "-o", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]
    assert len(csvs[0].splitlines()) == 1 + 4 * 4  # four problems, configs
