from itertools import product

import pytest

from ddbnb import (DiagramKind, SubProblem, best_completion,
                   brute_force_optimum, compile_diagram, evaluate_assignment)
from ddbnb import instances as io
from ddbnb.problems import mcp
from ddbnb.problems.mcp import S, T

from support import make_problem, max_cut_optimum


def build(n, weighted_edges):
    return mcp.MaxCut(io.Graph(n, dict(weighted_edges), tuple([1] * n)))


def test_root_value_sums_negative_edges():
    assert build(2, {(0, 1): 3}).initial_value == 0
    assert build(2, {(0, 1): -3}).initial_value == -3
    assert build(3, {(0, 1): 1, (0, 2): -1, (1, 2): -2}).initial_value == -3


def test_transition_from_root():
    prob = build(2, {(0, 1): 3})
    # a layer-k state is (m, s_k, ..., s_{n-1}), m the sum of |s_l|
    assert prob.transition((0, 0, 0), 0, S) == (3, 3)
    assert prob.transition((0, 0, 0), 0, T) == (3, -3)


def test_two_step_replay_matches_hand_calculation():
    # chain on K3 with w01=1, w02=-1, w12=-2, assignments x0=S, x1=T
    prob = build(3, {(0, 1): 1, (0, 2): -1, (1, 2): -2})
    s1 = prob.transition((0, 0, 0, 0), 0, S)
    assert s1 == (2, 1, -1)
    s2 = prob.transition(s1, 1, T)
    assert s2 == (1, 1)


def test_first_decision_costs_nothing():
    prob = build(3, {(0, 1): 5, (0, 2): -4, (1, 2): 2})
    assert prob.transition_cost((0, 0, 0, 0), 0, S) == 0
    assert prob.transition_cost((0, 0, 0, 0), 0, T) == 0


def test_second_decision_collects_benefit():
    prob = build(2, {(0, 1): 3})
    assert prob.transition_cost((3, 3), 1, T) == 3
    assert prob.transition_cost((3, 3), 1, S) == 0


@pytest.mark.parametrize("seed", range(10))
def test_full_replay_reproduces_cut_value(seed):
    # the telescoped costs must reproduce the exact cut value of every
    # assignment, not just the optimum; this pins the sign of the
    # cancellation condition in the cost of a T decision
    graph = io.random_mcp(5, 0.7, seed)
    prob = mcp.MaxCut(graph)
    for bits in product((S, T), repeat=5):
        cut = sum(w for (u, v), w in graph.edges.items()
                  if bits[u] != bits[v])
        assert evaluate_assignment(prob, list(bits)) == cut


def test_merge_keeps_smallest_common_sign():
    relaxation = mcp.McpRelaxation()
    # the magnitude is recomputed from the merged components
    assert relaxation.merge([(5, 3, -2), (9, 5, -4)]) == (5, 3, -2)
    assert relaxation.merge([(1, -1), (2, 2)]) == (0, 0)
    assert relaxation.merge([(11, 4, -7)]) == (11, 4, -7)


def test_relax_arc_adds_lost_magnitude():
    relaxation = mcp.McpRelaxation()
    merged = relaxation.merge([(5, 3, -2), (9, 5, -4)])
    assert relaxation.relax_arc(7, (9, 5, -4), merged) == 11
    assert relaxation.relax_arc(7, (5, 3, -2), merged) == 7


def test_rough_bound_on_k2():
    prob = build(2, {(0, 1): 3})
    assert prob.rough_bound((3, 3), 0, 1) == 3
    assert prob.rough_bound((0,), 5, 2) == 5  # terminal layer: bound = value


def old_merge(vectors):
    """The componentwise merge on full n-component vectors."""
    merged = []
    for comps in zip(*vectors):
        lo, hi = min(comps), max(comps)
        merged.append(lo if lo >= 0 else hi if hi <= 0 else 0)
    return tuple(merged)


@pytest.mark.parametrize("name", ["mcp", "max2sat"])
def test_states_keep_their_undecided_tail_and_its_magnitude(name):
    # every layer-k state of exact, restricted and relaxed root diagrams,
    # merged ones included, is (m, s_k, ..., s_{n-1}) with m = sum |s_l|;
    # the bound, merge and relax_arc agree with their definitions on the
    # full vector (0, ..., 0, s_k, ..., s_{n-1}), whose first k entries are
    # zero
    nodes = merges = 0
    for n in range(4, 10):
        for seed in range(10):
            _, problem, relaxation = make_problem(name, seed, n)
            root = SubProblem(problem.initial_state, problem.initial_value)
            for kind, width in ((DiagramKind.EXACT, 0),
                                (DiagramKind.RESTRICTED, 2),
                                (DiagramKind.RELAXED, 1),
                                (DiagramKind.RELAXED, 2)):
                dd = compile_diagram(problem, relaxation, root, kind, width,
                                     rank_by_bound=True)
                for k, layer in enumerate(dd.layers):
                    full = {}
                    for node in layer:
                        state = node.state
                        assert len(state) == n - k + 1, (n, seed, kind, k)
                        assert state[0] == sum(abs(s) for s in state[1:])
                        vector = full[state] = (0,) * k + state[1:]
                        v = node.value_top
                        assert (problem.rough_bound(state, v, k)
                                == v + sum(abs(s) for s in vector)
                                + problem.rest[k])
                        nodes += 1
                    if len(layer) < 2:
                        continue
                    merged = relaxation.merge([node.state for node in layer])
                    assert (0,) * k + merged[1:] == old_merge(full.values())
                    assert merged[0] == sum(abs(s) for s in merged[1:])
                    for state, vector in full.items():
                        assert (relaxation.relax_arc(7, state, merged)
                                == 7 + sum(abs(s) for s in vector)
                                - sum(abs(s) for s in merged[1:]))
                    merges += 1
    assert nodes > 4_000 and merges > 900


@pytest.mark.parametrize("seed", range(10))
def test_exact_compile_matches_cut_oracle(seed):
    graph, problem, relaxation = make_problem("mcp", seed, 4 + seed % 9)
    dd = compile_diagram(problem, relaxation,
                         SubProblem(problem.initial_state,
                                    problem.initial_value),
                         DiagramKind.EXACT)
    assert dd.value == max_cut_optimum(graph)


@pytest.mark.parametrize("seed", range(6))
def test_rough_bound_admissible_everywhere(seed):
    # executable form of the completion-bound inequality, checked at every
    # node of the exact diagram
    _, problem, relaxation = make_problem("mcp", seed, 8)
    dd = compile_diagram(problem, relaxation,
                         SubProblem(problem.initial_state,
                                    problem.initial_value),
                         DiagramKind.EXACT)
    for depth, layer in enumerate(dd.layers):
        k = depth + dd.first_layer
        for node in layer:
            bound = problem.rough_bound(node.state, node.value_top, k)
            assert bound >= best_completion(problem, node.state, k,
                                            node.value_top)


@pytest.mark.parametrize("width", [1, 2, 3, 5])
def test_relaxed_dominates_at_every_width(width):
    for seed in range(6):
        _, problem, relaxation = make_problem("mcp", seed, 8)
        best, _ = brute_force_optimum(problem)
        for rank_by_bound in (False, True):
            dd = compile_diagram(problem, relaxation,
                                 SubProblem(problem.initial_state,
                                            problem.initial_value),
                                 DiagramKind.RELAXED, width,
                                 rank_by_bound=rank_by_bound)
            assert dd.value >= best, rank_by_bound
