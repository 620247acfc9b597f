import pytest

from ddbnb import (DecisionDiagram, DiagramKind, NEG_INF, Node, SubProblem,
                   best_completion, compile_diagram, compute_local_bounds,
                   exact_cutset)
from ddbnb.problems import misp
from ddbnb import instances as io

from support import make_problem

PROBLEMS = ["misp", "mcp", "max2sat", "tsptw"]


# ---------------------------------------------------------------------------
# hand-built diagram reproducing the two-cutset-node scenario: node a can
# contribute at most 16, node b at most 102


def handmade_diagram():
    root = Node("r", 0, inbound=[])
    a = Node("a", 10, best_arc=(root, 0, 10), inbound=[(root, 0, 10)])
    b = Node("b", 100, best_arc=(root, 1, 100), inbound=[(root, 1, 100)])
    m1 = Node("m1", 14, best_arc=(a, 0, 4), inbound=[(a, 0, 4)])
    m2 = Node("m2", 101, best_arc=(b, 0, 1), inbound=[(b, 0, 1)])
    t = Node("t", 102, best_arc=(m2, 1, 1), inbound=[(m1, 1, 2), (m2, 1, 1)])
    dd = DecisionDiagram(kind=DiagramKind.RELAXED, first_layer=0,
                         layers=[[root], [a, b], [m1, m2], [t]],
                         is_exact=False, last_exact_layer=1,
                         best_terminal=t, nodes_created=6)
    return dd, a, b


def test_local_bounds_of_handmade_diagram():
    dd, a, b = handmade_diagram()
    compute_local_bounds(dd)
    assert a.local_bound == 16
    assert b.local_bound == 102
    assert max(a.local_bound, b.local_bound) == dd.value


def test_local_bound_skips_work_when_incumbent_is_large():
    # with an incumbent of 20 node a is not worth enqueueing, and once the
    # incumbent reaches 110 even node b can be dropped on arrival
    dd, a, b = handmade_diagram()
    compute_local_bounds(dd)
    subs = exact_cutset(dd)
    assert [s.ub for s in subs] == [16, 102]
    assert [s.ub > 20 for s in subs] == [False, True]
    assert all(s.ub <= 110 for s in subs)


def test_dead_end_cutset_node_gets_neg_inf():
    root = Node("r", 0, inbound=[])
    a = Node("a", 3, best_arc=(root, 0, 3), inbound=[(root, 0, 3)])
    b = Node("b", 9, best_arc=(root, 1, 9), inbound=[(root, 1, 9)])
    m = Node("m", 10, best_arc=(a, 0, 7), inbound=[(a, 0, 7)])
    t = Node("t", 12, best_arc=(m, 0, 2), inbound=[(m, 0, 2)])
    dd = DecisionDiagram(kind=DiagramKind.RELAXED, first_layer=0,
                         layers=[[root], [a, b], [m], [t]], is_exact=False,
                         last_exact_layer=1, best_terminal=t, nodes_created=5)
    compute_local_bounds(dd)
    assert a.local_bound == 12
    assert b.local_bound == NEG_INF  # b never reaches the terminal


def test_rub_filter_strict_boundary():
    problem = misp.MaxIndependentSet(io.Graph(2, {(0, 1): 1}, (42, 0)))
    relaxation = misp.MispRelaxation()
    # the two arcs out of the root lead to different masks, whose rough
    # bounds are the arcs' values from the root (vertex 1 weighs nothing):
    # 0 when skipping vertex 0, 42 when taking it; an arc survives only when
    # that strictly beats the incumbent (at width 2 nothing is squeezed, so
    # the first layer holds one node per surviving arc)
    sub = SubProblem(problem.initial_state, problem.initial_value)
    for incumbent, arcs in ((100, []), (NEG_INF, [(0, 0), (1, 42)]),
                            (42, []),  # equality is rejected
                            (41, [(1, 42)])):
        dd = compile_diagram(problem, relaxation, sub, DiagramKind.RELAXED,
                             2, incumbent=incumbent, use_rub=True)
        assert dd.is_exact
        survivors = [node.best_arc[1:] for node in dd.layers[1]]
        assert survivors == arcs
        assert dd.value == (42 if arcs else NEG_INF)


def test_compute_local_bounds_requires_inexact_relaxed():
    _, problem, relaxation = make_problem("misp", 0, 5)
    sub = SubProblem(problem.initial_state, problem.initial_value)
    exact = compile_diagram(problem, relaxation, sub, DiagramKind.EXACT)
    with pytest.raises(ValueError):
        compute_local_bounds(exact)


@pytest.mark.parametrize("name", PROBLEMS)
def test_local_bound_laws_on_seeded_instances(name):
    for seed in range(8):
        _, problem, relaxation = make_problem(name, seed, 7)
        sub = SubProblem(problem.initial_state, problem.initial_value)
        for width in (2, 3):
            dd = compile_diagram(problem, relaxation, sub,
                                 DiagramKind.RELAXED, width)
            if dd.is_exact:
                continue
            visits = compute_local_bounds(dd)
            assert visits <= dd.nodes_created
            subs = exact_cutset(dd)
            # the longest full path crosses some cutset node
            assert max(s.ub for s in subs) == dd.value
            for s in subs:
                true_best = best_completion(problem, s.state,
                                            dd.last_exact_layer, s.value_top)
                assert s.ub >= true_best
