import pytest

from ddbnb import (DecisionDiagram, DiagramKind, NEG_INF, Node, SubProblem,
                   best_completion, compile_diagram, compute_local_bounds,
                   exact_cutset)
from ddbnb.problems import misp
from ddbnb import instances as io

from support import make_problem

PROBLEMS = ["misp", "mcp", "max2sat", "tsptw"]


# ---------------------------------------------------------------------------
# hand-built diagrams, given as Node layers and turned into compiled form


def relaxed_diagram(layers, last_exact_layer):
    """An inexact relaxed diagram holding the states, values and inbound
    arcs of `layers`, lists of `Node`s, in a compiled diagram's form."""
    dd = DecisionDiagram(DiagramKind.RELAXED, 0)
    dd._values = [{node.state: node.value_top for node in layer}
                  for layer in layers]
    dd._arcs = [{node.state: [(parent.state, value, weight)
                              for parent, value, weight in node.inbound]
                 for node in layer} for layer in layers]
    dd.is_exact = False
    dd.last_exact_layer = last_exact_layer
    dd.value = max(dd._values[-1].values())
    return dd


def handmade_diagram():
    # the two-cutset-node scenario: node a can contribute at most 16, node b
    # at most 102
    root = Node("r", 0, inbound=[])
    a = Node("a", 10, inbound=[(root, 0, 10)])
    b = Node("b", 100, inbound=[(root, 1, 100)])
    m1 = Node("m1", 14, inbound=[(a, 0, 4)])
    m2 = Node("m2", 101, inbound=[(b, 0, 1)])
    t = Node("t", 102, inbound=[(m1, 1, 2), (m2, 1, 1)])
    return relaxed_diagram([[root], [a, b], [m1, m2], [t]], 1)


def test_local_bounds_of_handmade_diagram():
    dd = handmade_diagram()
    compute_local_bounds(dd)
    bounds = [s.ub for s in exact_cutset(dd)]
    assert bounds == [16, 102]
    assert max(bounds) == dd.value


def test_local_bound_skips_work_when_incumbent_is_large():
    # with an incumbent of 20 node a is not worth enqueueing, and once the
    # incumbent reaches 110 even node b can be dropped on arrival
    dd = handmade_diagram()
    compute_local_bounds(dd)
    subs = exact_cutset(dd)
    assert [s.ub for s in subs] == [16, 102]
    assert [s.ub > 20 for s in subs] == [False, True]
    assert all(s.ub <= 110 for s in subs)


def test_dead_end_cutset_node_gets_neg_inf():
    root = Node("r", 0, inbound=[])
    a = Node("a", 3, inbound=[(root, 0, 3)])
    b = Node("b", 9, inbound=[(root, 1, 9)])
    m = Node("m", 10, inbound=[(a, 0, 7)])
    t = Node("t", 12, inbound=[(m, 0, 2)])
    dd = relaxed_diagram([[root], [a, b], [m], [t]], 1)
    compute_local_bounds(dd)
    # b never reaches the terminal
    assert [(s.state, s.ub) for s in exact_cutset(dd)] == [("a", 12),
                                                           ("b", NEG_INF)]


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
