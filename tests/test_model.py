import pytest

from ddbnb import (DiagramKind, NEG_INF, Problem, SubProblem,
                   brute_force_optimum, compile_diagram, evaluate_assignment)
from ddbnb import instances as io
from ddbnb.problems import mcp, misp

from support import independent_set_optimum, make_problem, max_cut_optimum


def misp_problem(n, edges, weights):
    return misp.MaxIndependentSet(io.Graph(n, {e: 1 for e in edges}, weights))


def test_evaluate_edgeless_pair():
    prob = misp_problem(2, [], (4, 7))
    assert evaluate_assignment(prob, [1, 1]) == 11


def test_evaluate_conflict_is_infeasible():
    prob = misp_problem(2, [(0, 1)], (4, 7))
    assert evaluate_assignment(prob, [1, 1]) is None


def test_evaluate_k2_cut():
    graph = io.Graph(2, {(0, 1): 3}, (1, 1))
    assert max_cut_optimum(graph) == 3  # both bipartitions of K2 enumerated
    prob = mcp.MaxCut(graph)
    assert evaluate_assignment(prob, [mcp.S, mcp.T]) == 3


def test_evaluate_wrong_length_rejected():
    prob = misp_problem(2, [], (4, 7))
    with pytest.raises(ValueError):
        evaluate_assignment(prob, [1])


def test_brute_force_triangle():
    graph = io.Graph(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1}, (1, 1, 1))
    assert independent_set_optimum(graph) == 1
    value, assignment = brute_force_optimum(misp.MaxIndependentSet(graph))
    assert value == 1
    assert sorted(assignment) == [0, 0, 1]


def test_brute_force_k2_cut():
    value, _ = brute_force_optimum(mcp.MaxCut(io.Graph(2, {(0, 1): 3}, (1, 1))))
    assert value == 3


def test_brute_force_empty_model():
    prob = misp_problem(0, [], ())
    assert brute_force_optimum(prob) == (0, [])
    assert evaluate_assignment(prob, []) == 0


def test_brute_force_refuses_oversized():
    prob = misp_problem(30, [], tuple([1] * 30))
    with pytest.raises(ValueError):
        brute_force_optimum(prob, limit=1000)


def test_brute_force_infeasible_reports_neg_inf():
    inst = io.TsptwInstance.make([[0, 5], [5, 0]], [(0, 100), (0, 1)])
    from ddbnb.problems import tsptw

    value, assignment = brute_force_optimum(tsptw.Tsptw(inst))
    assert value == NEG_INF and assignment is None


@pytest.mark.parametrize("name", ["misp", "mcp", "max2sat", "tsptw"])
def test_successors_match_the_reference_triple(name):
    # every node of the exact diagram of every criterion-1 suite instance:
    # the model's one-pass successors must list the same values in domain
    # order, with the states and costs of transition/transition_cost
    from test_acceptance import SUITE_SHAPE

    count, size, density = SUITE_SHAPE[name]
    nodes = 0
    for seed in range(count):
        _, problem, relaxation = make_problem(name, seed, size(seed),
                                              density(seed))
        assert type(problem).successors is not Problem.successors
        dd = compile_diagram(problem, relaxation,
                             SubProblem(problem.initial_state,
                                        problem.initial_value),
                             DiagramKind.EXACT)
        for k, layer in enumerate(dd.layers[:problem.n]):
            for node in layer:
                assert (list(problem.successors(node.state, k))
                        == list(Problem.successors(problem, node.state, k)))
                nodes += 1
    assert nodes > count


def test_rank_by_bound_is_chosen_per_model():
    # the completion bound ranks squeezed mcp and max2sat layers well; on
    # misp and tsptw it explores more than the longest-path ranking
    ranks = {name: make_problem(name, 0, 4)[1].rank_by_bound
             for name in ("misp", "mcp", "max2sat", "tsptw")}
    assert ranks == {"misp": False, "mcp": True, "max2sat": True,
                     "tsptw": False}
    assert Problem.rank_by_bound is False


def test_only_tsptw_names_a_dominance_key():
    # the others compare states only, with no key call per node; a misp
    # key would need subset dominance, which equal keys cannot express
    assert Problem.dominance_key is None
    for name in ("misp", "mcp", "max2sat"):
        assert make_problem(name, 0, 4)[1].dominance_key is None, name
    assert make_problem("tsptw", 0, 4)[1].dominance_key is not None


@pytest.mark.parametrize("name", ["misp", "mcp", "max2sat", "tsptw"])
def test_rough_bound_is_prefix_value_plus_a_state_estimate(name):
    # the compiler memoises rough_bound(s, v, k) - v per (layer, state), so
    # on every node of exact, restricted and relaxed diagrams the difference
    # must not depend on v
    nodes = 0
    for seed in range(3):
        _, problem, relaxation = make_problem(name, seed, 6)
        root = SubProblem(problem.initial_state, problem.initial_value)
        for kind, width in ((DiagramKind.EXACT, 0),
                            (DiagramKind.RESTRICTED, 2),
                            (DiagramKind.RELAXED, 2),
                            (DiagramKind.RELAXED, 3)):
            dd = compile_diagram(problem, relaxation, root, kind, width)
            for depth, layer in enumerate(dd.layers):
                k = dd.first_layer + depth
                for node in layer:
                    v = node.value_top
                    for other in (v - 7, v + 3):
                        assert (problem.rough_bound(node.state, v, k) - v
                                == problem.rough_bound(node.state, other, k)
                                - other), (seed, kind, k, node.state)
                    nodes += 1
    assert nodes > 50
