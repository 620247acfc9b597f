import itertools
import time
from collections import Counter

import pytest

from ddbnb import (DiagramKind, Fringe, NEG_INF, POS_INF, SolveConfig, Status,
                   SubProblem, best_solution, brute_force_optimum,
                   compile_diagram, compute_local_bounds, end_gap,
                   evaluate_assignment, exact_cutset, solve)
from ddbnb import instances as io
from ddbnb import mdd, solver
from ddbnb.cli import main as cli_main
from ddbnb.problems import misp, tsptw
from ddbnb.solver import _Search, diagram_width

from support import make_problem, tsptw_optimum

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
def test_every_width_and_ranking_reaches_the_optimum(name):
    # at widths 1 and 2 the layer below a subproblem's root can overflow; a
    # relaxed diagram keeps that layer whole, so its cutset lies below the
    # root and the search never re-enqueues a subproblem forever
    for seed in range(3):
        _, problem, relaxation = make_problem(name, seed, 7)
        best, _ = brute_force_optimum(problem)
        for rank_by_bound in (False, True):
            problem.rank_by_bound = rank_by_bound
            for width in (1, 2, 3, None):
                for use_rub, use_locb in ALL_CONFIGS:
                    out = solve(problem, relaxation,
                                SolveConfig(width=width, use_rub=use_rub,
                                            use_locb=use_locb, timeout=10))
                    case = (seed, rank_by_bound, width, use_rub, use_locb)
                    assert out.status is Status.OPTIMAL, case
                    assert out.value == best, case
                    if best > NEG_INF:
                        assert evaluate_assignment(problem,
                                                   out.assignment) == best


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


def key_of(problem):
    """The key the solve's marks and compiles compare nodes by: the model's
    dominance key, else the state itself."""
    return problem.dominance_key or (lambda state: state)


def rooted_search(problem, relaxation, config):
    """The state of a solve with its root on the fringe, not yet run, so
    that hooks can read its memos and marks."""
    search = _Search(problem, relaxation, config)
    search.fringe.push(SubProblem(problem.initial_state, problem.initial_value,
                                  (), POS_INF))
    return search


@pytest.mark.parametrize("name", PROBLEMS)
def test_memo_holds_each_states_own_estimate_at_its_layer(name):
    # after whole rub+locb solves, at width 1 too, every memo entry is
    # rough_bound(state, 0, layer) of its own layer, and rough_bound ran only
    # to fill the entries: one call per entry
    for seed in range(3):
        _, problem, relaxation = make_problem(name, seed, 7)
        bound = problem.rough_bound
        for width in (1, 2, None):
            calls = []

            def counted(state, value_top, k):
                calls.append(value_top)
                return bound(state, value_top, k)

            problem.rough_bound = counted
            search = rooted_search(problem, relaxation, SolveConfig(width=width))
            search.run()
            entries = sum(len(estimates) for estimates in search.bounds)
            assert 0 < len(calls) == entries, (seed, width)
            assert set(calls) == {0}
            for k, estimates in enumerate(search.bounds):
                for state, rest in estimates.items():
                    assert rest == bound(state, 0, k), (seed, width, k, state)


@pytest.mark.parametrize("name", PROBLEMS)
def test_relaxed_diagrams_keep_their_roots_children(name):
    # at every width, a relaxed diagram's first layer holds one node per
    # distinct state among the root's successors that survive RUB, at the
    # best value into it, less all but the best (the first on ties) of the
    # states with equal dominance keys and those that do not beat the
    # solve's mark on their key; an inexact diagram's last exact layer lies
    # below its root, so a branching never hands back its own subproblem
    inexact = dominated = 0
    for seed in range(3):
        _, problem, relaxation = make_problem(name, seed, 7)
        key = key_of(problem)
        best, _ = brute_force_optimum(problem)
        for width in (1, 2, 3, None):
            for use_rub, use_locb in ALL_CONFIGS:

                def observer(kind, dd, sub, incumbent):
                    nonlocal inexact, dominated
                    if kind != "relaxed":
                        return
                    if not dd.is_exact:
                        inexact += 1
                        assert dd.last_exact_layer > dd.first_layer
                    k = dd.first_layer
                    children = {}
                    for _, state, weight in problem.successors(sub.state, k):
                        value = sub.value_top + weight
                        if (use_rub and not problem.rough_bound(
                                state, value, k + 1) > incumbent):
                            continue
                        children[state] = max(children.get(state, NEG_INF),
                                              value)
                    top = {}
                    for state, value in children.items():
                        label = key(state)
                        if label not in top or value > children[top[label]]:
                            top[label] = state
                    seen = search.marks[k + 1]
                    for state, value in list(children.items()):
                        label = key(state)
                        if (top[label] != state
                                or value <= seen.get(label, NEG_INF)):
                            del children[state]
                            dominated += 1
                    first = {node.state: node.value_top
                             for node in dd.layers[1]}
                    assert len(first) == len(dd.layers[1])
                    assert first == children

                search = rooted_search(
                    problem, relaxation,
                    SolveConfig(width=width, use_rub=use_rub,
                                use_locb=use_locb, dd_observer=observer))
                search.run()
                assert search.incumbent == best
    assert inexact > 0
    # at these sizes only misp subproblems reach dominated children
    assert dominated > 0 or name != "misp"


@pytest.mark.parametrize("name", PROBLEMS)
def test_the_successors_memo_changes_no_result(name, monkeypatch):
    # with the memo, repeat expansions become lookups of the first one's
    # arcs: value, assignment and every count are those of direct calls,
    # with fewer successors calls
    for seed in range(2):
        _, problem, relaxation = make_problem(name, seed, 9)
        expand = problem.successors
        calls = {False: 0, True: 0}
        for width in (2, None):
            for use_rub, use_locb in ALL_CONFIGS:
                results = {}
                for memoize in (False, True):

                    def counted(state, k):
                        calls[memoize] += 1
                        return expand(state, k)

                    monkeypatch.setattr(problem, "memoize_successors", memoize)
                    monkeypatch.setattr(problem, "successors", counted)
                    out = solve(problem, relaxation,
                                SolveConfig(width=width, use_rub=use_rub,
                                            use_locb=use_locb))
                    assert out.optimal
                    results[memoize] = (out.value, out.assignment,
                                        out.explored, out.dd_nodes)
                assert results[False] == results[True], (seed, width,
                                                          use_rub, use_locb)
        assert 0 < calls[True] < calls[False]


@pytest.mark.parametrize("name", ["mcp", "tsptw"])
def test_the_memo_expands_each_layer_state_once_per_solve(name):
    # the relaxed compile and the cutset children's compiles re-reach the
    # states that earlier compiles of the solve expanded; none of them calls
    # successors, or live_successors under rough-bound filtering, again for
    # a (layer, state)
    repeats = 0
    for seed in range(3):
        _, problem, relaxation = make_problem(name, seed, 10)
        expand, live = problem.successors, problem.live_successors
        for width in (2, None):
            for use_rub, use_locb in ((False, False), (True, True)):
                seen = Counter()

                def counted(state, k, call=expand):
                    seen[k, state] += 1
                    return call(state, k)

                problem.successors = counted
                if live is not None:
                    problem.live_successors = (
                        lambda state, k: counted(state, k, live))
                out = solve(problem, relaxation,
                            SolveConfig(width=width, use_rub=use_rub,
                                        use_locb=use_locb))
                assert out.optimal
                assert max(seen.values()) == 1, (seed, width, use_rub)
                repeats += out.explored > 1
    assert repeats > 0


def test_config_rejects_nan_timeout_and_width_below_one():
    # no deadline comparison is ever true for NaN, and a width below 1 used
    # to run silently at width 1
    for width in (0, -3):
        with pytest.raises(ValueError, match="width"):
            SolveConfig(width=width)
    with pytest.raises(ValueError, match="timeout"):
        SolveConfig(timeout=float("nan"))
    assert SolveConfig(width=1, timeout=float("inf")).width == 1
    assert SolveConfig(timeout=0.0).timeout == 0.0


def restricted_first(problem, relaxation, width, use_rub, use_locb):
    """The search with every subproblem's restricted diagram compiled
    before its relaxed one: (value, assignment, explored, dd_nodes).  It
    marks the exact diagrams that close a subproblem and the cutset
    children it pushes, as the solver does."""
    fringe = Fringe()
    fringe.push(SubProblem(problem.initial_state, problem.initial_value))
    incumbent, assignment, explored, nodes = NEG_INF, None, 0, 0
    marks = mdd.dominance_marks(problem)
    key = problem.dominance_key

    def compile(sub, kind):
        nonlocal nodes
        dd = compile_diagram(problem, relaxation, sub, kind,
                             diagram_width(problem, sub, width), incumbent,
                             use_rub, rank_by_bound=problem.rank_by_bound,
                             marks=marks)
        nodes += dd.nodes_created
        found = best_solution(dd)
        return dd, found and found[0] > incumbent and found

    while fringe:
        sub = fringe.pop()
        explored += 1
        if use_locb and sub.ub <= incumbent:
            continue
        restricted, found = compile(sub, DiagramKind.RESTRICTED)
        if found:
            incumbent, assignment = found[0], list(sub.path) + found[1]
        if restricted.is_exact:
            mdd.mark_diagram(marks, restricted, key)
            continue
        relaxed, found = compile(sub, DiagramKind.RELAXED)
        if relaxed.is_exact:
            if found:
                incumbent, assignment = found[0], list(sub.path) + found[1]
            mdd.mark_diagram(marks, relaxed, key)
            continue
        if relaxed.value <= incumbent:
            continue
        if use_locb:
            compute_local_bounds(relaxed)
        for child in exact_cutset(relaxed, use_local_bounds=use_locb):
            child.ub = min(child.ub, sub.ub)
            if not (use_locb and child.ub <= incumbent):
                child.path = sub.path + child.path
                fringe.push(child)
                mdd.mark(marks, len(child.path),
                         {child.state: child.value_top}, key)
    return incumbent, assignment, explored, nodes


def compiles_by_exploration(config):
    """Hooks `config` to record, per explored subproblem, the incumbent at
    its pop and the (kind, diagram) of each of its compiles."""
    explorations = []
    config.iteration_hook = lambda incumbent, bound: explorations.append(
        (incumbent, []))
    config.dd_observer = lambda kind, dd, sub, incumbent: (
        explorations[-1][1].append((kind, dd)))
    return explorations


def check_against_restricted_first(problem, relaxation, widths):
    """Solves under every config at each width and compares with
    `restricted_first`; returns the diagram nodes saved."""
    saved = 0
    for width in widths:
        for use_rub, use_locb in ALL_CONFIGS:
            config = SolveConfig(width=width, use_rub=use_rub,
                                 use_locb=use_locb)
            explorations = compiles_by_exploration(config)
            out = solve(problem, relaxation, config)
            value, assignment, explored, nodes = restricted_first(
                problem, relaxation, width, use_rub, use_locb)
            case = (width, use_rub, use_locb)
            assert out.optimal, case
            assert (out.value, out.assignment, out.explored) == (
                value, assignment, explored), case
            again = sum(compiles[0][1].nodes_created
                        for _, compiles in explorations if len(compiles) == 3)
            assert out.dd_nodes - again <= nodes, case
            saved += nodes - out.dd_nodes
    return saved


@pytest.mark.parametrize("name", PROBLEMS)
def test_bounding_first_matches_the_restricted_first_search(name):
    # once an incumbent exists a subproblem's relaxed diagram is compiled
    # first; the search finds the same value and assignment after the same
    # explorations, and creates no more nodes, apart from the relaxed
    # diagrams compiled again after a restricted one raised the incumbent
    saved = 0
    for seed in range(3):
        _, problem, relaxation = make_problem(
            name, seed, 18 if name == "misp" else 9)
        saved += check_against_restricted_first(problem, relaxation,
                                                (1, 2, 3, None))
    assert saved > 0


def test_an_exact_bound_with_an_overflowing_first_layer_still_samples():
    # at width 1, a subproblem's exact relaxed diagram keeps two nodes
    # below its root, where a restricted diagram keeps one; the optimum
    # has paths through both, and the restricted diagram's path is the one
    # returned, as in the restricted-first search
    graph = io.Graph(5, {(0, 1): 1, (0, 2): 1, (0, 3): 1, (1, 2): 1},
                     (1, 1, 1, 1, 0))
    problem, relaxation = misp.MaxIndependentSet(graph), misp.MispRelaxation()
    check_against_restricted_first(problem, relaxation, (1,))
    assert solve(problem, relaxation, SolveConfig(width=1)).assignment == [
        0, 1, 0, 1, 0]


@pytest.mark.parametrize("name", PROBLEMS)
def test_no_restricted_compile_follows_a_pruning_bound(name):
    # the root, with no incumbent yet, samples first; every later
    # subproblem is bounded first, and one whose relaxed value cannot beat
    # the incumbent compiles nothing else
    pruned = 0
    for seed in range(2):
        _, problem, relaxation = make_problem(name, seed, 12)
        for width in (2, None):
            for use_rub, use_locb in ALL_CONFIGS:
                config = SolveConfig(width=width, use_rub=use_rub,
                                     use_locb=use_locb)
                explorations = compiles_by_exploration(config)
                assert solve(problem, relaxation, config).optimal
                assert explorations[0][1][0][0] == "restricted"
                for incumbent, compiles in explorations:
                    if not compiles:
                        continue        # dropped at its pop by LocB
                    kinds = [kind for kind, _ in compiles]
                    if incumbent == NEG_INF:
                        assert kinds[0] == "restricted"
                        continue
                    assert kinds[0] == "relaxed"
                    if compiles[0][1].value <= incumbent:
                        assert kinds == ["relaxed"]
                        pruned += 1
                    else:
                        assert kinds in (["relaxed"],
                                         ["relaxed", "restricted"],
                                         ["relaxed", "restricted", "relaxed"])
    assert pruned > 0


def test_marks_change_only_between_explorations():
    # every compile of an exploration reads the marks the exploration began
    # with, and every node it keeps above its first merge beats the mark on
    # its layer and dominance key.  So an exact relaxed diagram whose first
    # layer overflowed, and which therefore samples next, is not marked before
    # its restricted compile: that compile's nodes would all be dominated
    # and the sample would find nothing
    sampled = 0
    for name, seed in itertools.product(PROBLEMS, range(3)):
        _, problem, relaxation = make_problem(name, seed, 9)
        key = key_of(problem)
        for width in (1, 2, None):
            for use_rub, use_locb in ALL_CONFIGS:
                before, kinds = [], []

                def hook(incumbent, bound):
                    before[:] = [dict(seen) for seen in search.marks]
                    kinds.clear()

                def observer(kind, dd, sub, incumbent):
                    nonlocal sampled
                    assert search.marks == before
                    sampled += kinds == [("relaxed", True)]
                    kinds.append((kind, dd.is_exact))
                    cut = (len(dd.layers) if dd.last_exact_layer is None
                           else dd.last_exact_layer - dd.first_layer + 1)
                    for rel in range(1, cut):
                        seen = before[dd.first_layer + rel]
                        for node in dd.layers[rel]:
                            assert node.value_top > seen.get(key(node.state),
                                                             NEG_INF)

                search = rooted_search(
                    problem, relaxation,
                    SolveConfig(width=width, use_rub=use_rub,
                                use_locb=use_locb, dd_observer=observer,
                                iteration_hook=hook))
                search.run()
                assert search.incumbent == brute_force_optimum(problem)[0]
    assert sampled > 0


def test_kept_tsptw_nodes_have_distinct_keys_that_beat_their_marks():
    # above its first merge, no layer of a compiled diagram holds two nodes
    # with equal dominance keys, and each node beats the mark on its key
    # that the exploration began with; wide windows let many exact states
    # of a layer share a city and an unvisited set
    marked = 0
    for seed in range(4):
        inst = io.random_tsptw(9, seed, early_slack=55, late_slack=55)
        problem, relaxation = tsptw.Tsptw(inst), tsptw.TsptwRelaxation()
        key = problem.dominance_key
        for width in (1, 2, None):
            for use_rub, use_locb in ALL_CONFIGS:
                before = []

                def hook(incumbent, bound):
                    before[:] = [dict(seen) for seen in search.marks]

                def observer(kind, dd, sub, incumbent):
                    nonlocal marked
                    cut = (len(dd.layers) if dd.last_exact_layer is None
                           else dd.last_exact_layer - dd.first_layer + 1)
                    for rel in range(1, cut):
                        seen = before[dd.first_layer + rel]
                        labels = [key(node.state) for node in dd.layers[rel]]
                        assert len(set(labels)) == len(labels)
                        for node, label in zip(dd.layers[rel], labels):
                            assert node.value_top > seen.get(label, NEG_INF)
                            marked += label in seen

                search = rooted_search(
                    problem, relaxation,
                    SolveConfig(width=width, use_rub=use_rub,
                                use_locb=use_locb, dd_observer=observer,
                                iteration_hook=hook))
                search.run()
                assert -search.incumbent == tsptw_optimum(inst)
    assert marked > 0


@pytest.mark.parametrize("name", PROBLEMS)
def test_capped_marks_still_reach_the_optimum(name, monkeypatch):
    # a layer's marks are emptied once they hold their share of
    # MARK_ENTRIES, here two entries; that loses pruning, never a solution
    from support import oracle_optimum

    cleared = 0

    class Marks(dict):
        def clear(self):
            nonlocal cleared
            cleared += 1
            super().clear()

    monkeypatch.setattr(solver, "dominance_marks", lambda problem: [
        Marks() for _ in range(problem.n + 1)])
    for seed in range(3):
        instance, problem, relaxation = make_problem(name, seed, 9)
        monkeypatch.setattr(mdd, "MARK_ENTRIES", 2 * (problem.n + 1))
        best = oracle_optimum(name, instance)
        for width in (1, 2, None):
            for use_rub, use_locb in ALL_CONFIGS:
                out = solve(problem, relaxation,
                            SolveConfig(width=width, use_rub=use_rub,
                                        use_locb=use_locb))
                assert out.optimal and out.value == (
                    NEG_INF if best is None else best), (seed, width)
    assert cleared > 0
