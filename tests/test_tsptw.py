import pytest

from ddbnb import (DiagramKind, NEG_INF, SolveConfig, SubProblem,
                   best_completion, best_solution, brute_force_optimum,
                   compile_diagram, evaluate_assignment, solve)
from ddbnb import instances as io
from ddbnb.problems import tsptw
from ddbnb.problems.tsptw import TsptwState

from support import make_problem, tour_makespan, tsptw_optimum


def build(dist, windows):
    return tsptw.Tsptw(io.TsptwInstance.make(dist, windows))


def three_city():
    dist = [[0, 2, 4], [2, 0, 3], [4, 3, 0]]
    windows = [(0, 50), (3, 10), (0, 40)]
    return build(dist, windows)


def test_transition_waits_for_window_opening():
    prob = three_city()
    state = prob.transition(prob.initial_state, 0, 1)
    assert state == TsptwState(0b10, 3, 3, 0b100, 0)


def test_transition_rejects_unlisted_city():
    prob = three_city()
    gone = TsptwState(0b10, 3, 3, 0b100, 0)
    assert prob.transition(gone, 1, 1) is None


def test_transition_rejects_arrival_after_close():
    prob = build([[0, 2], [2, 0]], [(0, 50), (0, 1)])
    assert prob.transition(prob.initial_state, 0, 1) is None


def test_cost_is_travel_plus_wait():
    prob = three_city()
    # travel 2 toward a window opening at 3: one unit of waiting
    assert prob.transition_cost(prob.initial_state, 0, 1) == -3
    # arrival after opening waits nothing
    assert prob.transition_cost(prob.initial_state, 0, 2) == -4


def test_cost_from_merged_position_uses_cheapest_leg():
    prob = three_city()
    merged = TsptwState(0b110, 3, 4, 0, 0b110)
    # travel from position {1, 2} into 2 is min(dist(1,2), dist(2,2)) = 0,
    # the optimistic leg a merged state is allowed to take
    assert prob.transition_cost(merged, 1, 2) == 0


def test_merge_operator_shapes():
    relaxation = tsptw.TsptwRelaxation()
    a = TsptwState(0b010, 3, 3, 0b100, 0)
    b = TsptwState(0b100, 4, 4, 0b010, 0)
    assert relaxation.merge([a, b]) == TsptwState(0b110, 3, 4, 0, 0b110)
    assert relaxation.merge([a]) == a
    shared = TsptwState(0b100, 1, 2, 0b010, 0)
    other = TsptwState(0b001, 0, 5, 0b010, 0)
    merged = relaxation.merge([shared, other])
    assert merged.must == 0b010  # the common mandatory city stays mandatory
    # a redirected arc gains its old head's earliest (3) minus the merge's
    # (0), so paths into the merge telescope to minus the merge's earliest
    assert relaxation.relax_arc(9, a, merged) == 12


def test_bound_prunes_unreachable_mandatory_city():
    prob = build([[0, 5, 9], [5, 0, 9], [9, 9, 0]],
                 [(0, 100), (0, 100), (0, 3)])
    state = TsptwState(0b010, 5, 5, 0b100, 0)
    assert prob.rough_bound(state, -5, 1) == NEG_INF


def test_bound_direct_return_case():
    prob = build([[0, 3, 4], [3, 0, 2], [4, 2, 0]],
                 [(0, 100), (0, 100), (0, 100)])
    state = TsptwState(0b100, 6, 6, 0, 0)
    assert prob.rough_bound(state, -6, 2) == -10


def test_bound_prunes_when_depot_closes_too_early():
    prob = build([[0, 3], [3, 0]], [(0, 7), (0, 100)])
    state = TsptwState(0b10, 5, 5, 0, 0)
    assert prob.rough_bound(state, -5, 1) == NEG_INF


def test_bound_counts_window_reachable_candidates():
    # merged state with nothing mandatory but two tour slots left: only one
    # window-reachable candidate remains, so no completion can exist
    prob = build([[0, 2, 2, 2], [2, 0, 2, 2], [2, 2, 0, 2], [2, 2, 2, 0]],
                 [(0, 100), (0, 100), (0, 3), (0, 3)])
    state = TsptwState(0b0010, 9, 9, 0, 0b1100)
    assert prob.rough_bound(state, -9, 1) == NEG_INF


@pytest.mark.parametrize("seed", range(12))
def test_model_matches_permutation_oracle(seed):
    inst, problem, _ = make_problem("tsptw", seed, 6)
    value, assignment = brute_force_optimum(problem)
    oracle = tsptw_optimum(inst)
    if oracle is None:
        assert value == NEG_INF
    else:
        assert -value == oracle
        assert tour_makespan(inst, assignment[:-1]) == oracle


@pytest.mark.parametrize("seed", range(8))
def test_exact_nodes_collapse_to_classical_dp(seed):
    # without merging: single position, a zero-width time interval, no
    # optional cities
    inst, problem, relaxation = make_problem("tsptw", seed, 6)
    dd = compile_diagram(problem, relaxation,
                         SubProblem(problem.initial_state, 0),
                         DiagramKind.EXACT)
    assert dd.is_exact
    for layer in dd.layers:
        for node in layer:
            assert node.state.position.bit_count() == 1
            assert node.state.earliest == node.state.latest
            assert node.state.may == 0


@pytest.mark.parametrize("seed", range(8))
def test_restricted_tours_are_replayable(seed):
    inst, problem, relaxation = make_problem("tsptw", seed, 7)
    dd = compile_diagram(problem, relaxation,
                         SubProblem(problem.initial_state, 0),
                         DiagramKind.RESTRICTED, 3)
    solution = best_solution(dd)
    if solution is None:
        return
    value, decisions = solution
    assert evaluate_assignment(problem, decisions) == value
    assert tour_makespan(inst, decisions[:-1]) == -value


@pytest.mark.parametrize("seed", range(8))
def test_relaxed_bound_below_optimal_makespan(seed):
    inst, problem, relaxation = make_problem("tsptw", seed, 7)
    oracle = tsptw_optimum(inst)
    for width in (2, 3, 5):
        dd = compile_diagram(problem, relaxation,
                             SubProblem(problem.initial_state, 0),
                             DiagramKind.RELAXED, width)
        if oracle is not None:
            assert -dd.value <= oracle


@pytest.mark.parametrize("seed", range(8))
def test_bound_admissible_and_prune_sound(seed):
    _, problem, relaxation = make_problem("tsptw", seed, 6)
    dd = compile_diagram(problem, relaxation,
                         SubProblem(problem.initial_state, 0),
                         DiagramKind.EXACT)
    for depth, layer in enumerate(dd.layers):
        k = depth + dd.first_layer
        for node in layer:
            bound = problem.rough_bound(node.state, node.value_top, k)
            true_best = best_completion(problem, node.state, k, node.value_top)
            assert bound >= true_best
            if bound == NEG_INF:
                assert true_best == NEG_INF


@pytest.mark.parametrize("seed", range(6))
def test_value_top_is_minus_earliest_on_every_compiled_node(seed):
    # arc costs telescope to parent.earliest - child.earliest and a merge
    # keeps the smallest earliest, so the prefix value of every node the
    # solver compiles is -earliest; that is what makes the completion
    # estimate earliest - total a function of the state alone
    _, problem, relaxation = make_problem("tsptw", seed, 8)
    seen = []

    def check(kind, dd, sub, incumbent):
        for layer in dd.layers:
            for node in layer:
                assert node.value_top == -node.state.earliest, (kind, node)
                seen.append(kind)

    for width in (2, 3, None):
        for use_rub in (False, True):
            solve(problem, relaxation,
                  SolveConfig(width=width, use_rub=use_rub, dd_observer=check))
    assert "restricted" in seen and "relaxed" in seen


@pytest.mark.parametrize("seed,n", [(25, 9), (19, 10), (17, 11)])
def test_local_bounds_through_merges_keep_the_optimum(seed, n):
    # at width 1, the best tour of these instances passes through a node
    # that a later layer merges with an earlier-arriving one; a redirected
    # arc that kept its weight lost the gap between the two arrivals, and
    # LocB pruned the optimum
    inst, problem, relaxation = make_problem("tsptw", seed, n)
    for use_rub, use_locb in ((True, True), (False, True)):
        out = solve(problem, relaxation,
                    SolveConfig(width=1, use_rub=use_rub, use_locb=use_locb))
        assert out.optimal and -out.value == tsptw_optimum(inst)


@pytest.mark.parametrize("n", [9, 10, 11])
def test_width_one_local_bounds_match_the_exact_diagram(n):
    # the exact diagram is the DP the permutation oracle checks above; at
    # width 1 every layer below a cutset merges, so local bounds read the
    # most redirected arcs there
    for seed in range(40):
        _, problem, relaxation = make_problem("tsptw", seed, n)
        exact = compile_diagram(problem, relaxation,
                                SubProblem(problem.initial_state, 0),
                                DiagramKind.EXACT).value
        for use_rub in (False, True):
            out = solve(problem, relaxation,
                        SolveConfig(width=1, use_rub=use_rub, use_locb=True))
            assert out.optimal and out.value == exact, (seed, use_rub)


def test_dominance_key_is_city_and_unvisited_set_of_exact_states():
    prob = three_city()
    early = TsptwState(0b10, 3, 3, 0b100, 0)
    late = TsptwState(0b10, 9, 9, 0b100, 0)
    assert prob.dominance_key(early) == prob.dominance_key(late) == (0b10,
                                                                     0b100)
    # a merged position, a time interval or an optional city is its own key
    for merged in (TsptwState(0b110, 3, 4, 0, 0b110),
                   TsptwState(0b10, 3, 4, 0b100, 0),
                   TsptwState(0b10, 3, 3, 0, 0b100)):
        assert prob.dominance_key(merged) == merged


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_dominance_key_solves_match_the_permutation_oracle(n):
    # keeping only the earliest arrival per (city, unvisited set) loses no
    # optimum, under every config and width, tight windows or wide
    for seed in range(25):
        for slack in (10, 55):
            inst = io.random_tsptw(n, seed, early_slack=slack,
                                   late_slack=slack)
            oracle = tsptw_optimum(inst)
            problem, relaxation = tsptw.Tsptw(inst), tsptw.TsptwRelaxation()
            for width in (1, 2, 3, None):
                for use_rub in (False, True):
                    for use_locb in (False, True):
                        out = solve(problem, relaxation,
                                    SolveConfig(width=width, use_rub=use_rub,
                                                use_locb=use_locb))
                        case = (seed, slack, width, use_rub, use_locb)
                        assert out.optimal, case
                        if oracle is None:
                            assert out.assignment is None, case
                        else:
                            assert -out.value == oracle == tour_makespan(
                                inst, out.assignment[:-1]), case


def test_dominance_key_pins_wide_window_counts():
    # (value, explored, dd_nodes) per config, with the key and with the
    # model's key switched off, which compares states only
    inst = io.random_tsptw(14, 1, span=40, early_slack=55, late_slack=55)
    pinned = {
        True: {"none": (-348, 279, 39668), "rub": (-348, 1, 72),
               "locb": (-348, 249, 39659), "rub+locb": (-348, 1, 72)},
        False: {"none": (-348, 342, 53733), "rub": (-348, 15, 807),
                "locb": (-348, 310, 53813), "rub+locb": (-348, 10, 801)},
    }
    configs = {"none": (False, False), "rub": (True, False),
               "locb": (False, True), "rub+locb": (True, True)}
    for keyed, counts in pinned.items():
        problem = tsptw.Tsptw(inst)
        if not keyed:
            problem.dominance_key = None
        for config, (use_rub, use_locb) in configs.items():
            out = solve(problem, tsptw.TsptwRelaxation(),
                        SolveConfig(use_rub=use_rub, use_locb=use_locb))
            assert out.optimal
            assert (out.value, out.explored, out.dd_nodes) == counts[config], (
                keyed, config)


@pytest.mark.parametrize("n", [6, 8, 10])
def test_live_successors_drop_only_children_the_rough_bound_kills(n):
    # on the states of exact, restricted and relaxed diagrams, merged ones
    # included, the live expansion keeps the arcs of `successors` in order
    # and drops only children whose rough bound is NEG_INF, which RUB drops
    # anyway: a compile under RUB builds the same diagram with the hook as
    # without it
    dropped = merged = 0
    for seed in range(6):
        _, problem, relaxation = make_problem("tsptw", seed, n)
        root = SubProblem(problem.initial_state, 0)
        states = set()
        for kind, width in ((DiagramKind.EXACT, 0), (DiagramKind.RESTRICTED, 2),
                            (DiagramKind.RELAXED, 1), (DiagramKind.RELAXED, 2)):
            dd = compile_diagram(problem, relaxation, root, kind, width)
            states.update((k, node.state)
                          for k, layer in enumerate(dd.layers[:n])
                          for node in layer)
            diagrams = []
            for live in (problem.live_successors, None):
                problem.live_successors = live
                dd = compile_diagram(problem, relaxation, root, kind, width,
                                     use_rub=True)
                diagrams.append((dd._values, dd._arcs, dd.nodes_created))
            del problem.live_successors
            assert diagrams[0] == diagrams[1], (seed, kind, width)
        for k, state in states:
            full = list(problem.successors(state, k))
            live = list(problem.live_successors(state, k))
            assert [arc for arc in full if arc in live] == live, (seed, k)
            for arc in full:
                if arc not in live:
                    assert problem.rough_bound(arc[1], 0, k + 1) == NEG_INF
                    dropped += 1
            merged += state.position.bit_count() > 1
    assert dropped and merged
