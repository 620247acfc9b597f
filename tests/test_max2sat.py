from itertools import product

import pytest

from ddbnb import (DiagramKind, SubProblem, best_completion,
                   brute_force_optimum, compile_diagram, evaluate_assignment)
from ddbnb import instances as io
from ddbnb.problems import max2sat

from support import make_problem, max2sat_optimum, satisfied_weight

F, TRUE = 0, 1


def build(n_vars, clauses):
    return max2sat.Max2Sat(io.CnfFormula(n_vars, tuple(clauses)))


@pytest.mark.parametrize("seed", range(5))
def test_pairs_of_lists_each_variables_later_partners_in_order(seed):
    formula, _, _ = make_problem("max2sat", seed, 14, 0.3)
    prob = max2sat.Max2Sat(formula)
    pair = {}
    for weight, lits in formula.clauses:
        if len(lits) == 2 and abs(lits[0]) != abs(lits[1]):
            (a, b) = sorted(lits, key=abs)
            slot = pair.setdefault((abs(a) - 1, abs(b) - 1), [0, 0, 0, 0])
            slot[(0 if a > 0 else 2) + (0 if b > 0 else 1)] += weight
    n = formula.n_vars
    assert prob.pairs_of == tuple(
        tuple((j, *pair[(i, j)]) for j in range(i + 1, n) if (i, j) in pair)
        for i in range(n))
    assert any(prob.pairs_of)


def test_unit_clause_collected_only_when_satisfied():
    prob = build(1, [(5, (1,))])
    assert prob.transition_cost((0, 0), 0, TRUE) == 5
    assert prob.transition_cost((0, 0), 0, F) == 0


def test_tautology_feeds_initial_value():
    prob = build(1, [(2, (1, -1))])
    assert prob.initial_value == 2
    assert evaluate_assignment(prob, [TRUE]) == 2
    assert evaluate_assignment(prob, [F]) == 2


def test_pending_benefit_state_update():
    # clause (-x0 or x1): deciding x0 true leaves weight 7 pending on x1 true
    # a layer-k state is (m, s_k, ..., s_{n-1}), m the sum of |s_l|
    prob = build(2, [(7, (-1, 2))])
    assert prob.transition((0, 0, 0), 0, TRUE) == (7, 7)
    assert prob.transition((0, 0, 0), 0, F) == (0, 0)  # satisfied immediately
    assert prob.transition_cost((0, 0, 0), 0, F) == 7
    assert prob.transition_cost((0, 0, 0), 0, TRUE) == 0
    assert prob.transition_cost((7, 7), 1, TRUE) == 7
    assert prob.transition_cost((7, 7), 1, F) == 0


def test_opposed_pending_weights_lock_in_their_overlap():
    # (-x0 or x1) weight 4 and (-x0 or -x1) weight 9: setting x0 true leaves
    # x1 with min(4, 9) guaranteed and a net pull of -5 toward false
    prob = build(2, [(4, (-1, 2)), (9, (-1, -2))])
    assert prob.transition((0, 0, 0), 0, TRUE) == (5, -5)
    assert prob.transition_cost((0, 0, 0), 0, TRUE) == 4
    assert prob.transition_cost((5, -5), 1, F) == 5
    assert prob.transition_cost((5, -5), 1, TRUE) == 0


@pytest.mark.parametrize("seed", range(12))
def test_replay_counts_satisfied_weight_exactly(seed):
    # binding contract: total value of any complete assignment equals the
    # brute-force weighted count of its satisfied clauses
    formula = io.random_max2sat(8, 0.7, seed)
    prob = max2sat.Max2Sat(formula)
    for bits in product((0, 1), repeat=formula.n_vars):
        expected = formula and satisfied_weight(formula, bits)
        assert evaluate_assignment(prob, list(bits)) == expected


def test_three_variable_exact_compile_matches_oracle():
    for seed in range(10):
        formula = io.random_max2sat(6, 0.8, seed)
        prob = max2sat.Max2Sat(formula)
        dd = compile_diagram(prob, max2sat.Max2SatRelaxation(),
                             SubProblem(prob.initial_state, prob.initial_value),
                             DiagramKind.EXACT)
        assert dd.value == max2sat_optimum(formula)


def test_merge_and_relax_arc_shapes():
    relaxation = max2sat.Max2SatRelaxation()
    assert relaxation.merge([(5, 3, 2), (5, 5, 0)]) == (3, 3, 0)
    assert relaxation.merge([(3, -3), (4, 4)]) == (0, 0)
    merged = relaxation.merge([(3, 3), (5, 5)])
    assert relaxation.relax_arc(7, (5, 5), merged) == 9


def test_rough_bound_terminal_and_single_pair():
    prob = build(2, [(6, (1, 2))])
    # at the terminal layer nothing remains: bound equals the path value
    assert prob.rough_bound((0,), 11, 2) == 11
    # at the root the bound is the best pairwise payoff, at least the optimum
    best = max(satisfied_weight(prob_formula, bits)
               for prob_formula in [io.CnfFormula(2, ((6, (1, 2)),))]
               for bits in product((0, 1), repeat=2))
    assert prob.rough_bound((0, 0, 0), 0, 0) >= best
    assert prob.rough_bound((0, 0, 0), 0, 0) == 6


@pytest.mark.parametrize("seed", range(6))
def test_rough_bound_admissible_everywhere(seed):
    _, problem, relaxation = make_problem("max2sat", seed, 7)
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


@pytest.mark.parametrize("width", [1, 2, 3])
def test_relaxed_dominates_at_every_width(width):
    for seed in range(6):
        _, problem, relaxation = make_problem("max2sat", seed, 7)
        best, _ = brute_force_optimum(problem)
        for rank_by_bound in (False, True):
            dd = compile_diagram(problem, relaxation,
                                 SubProblem(problem.initial_state,
                                            problem.initial_value),
                                 DiagramKind.RELAXED, width,
                                 rank_by_bound=rank_by_bound)
            assert dd.value >= best, rank_by_bound


def test_duplicate_literal_clause_acts_as_unit():
    prob = build(1, [(3, (1, 1))])
    assert prob.transition_cost((0, 0), 0, TRUE) == 3
    assert prob.transition_cost((0, 0), 0, F) == 0
