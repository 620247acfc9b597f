import collections
import random

import pytest

from ddbnb import (DiagramKind, NEG_INF, Node, SolveConfig, SubProblem,
                   best_solution, brute_force_optimum, compile_diagram,
                   exact_cutset, relax_layer, restrict_layer, solve, to_dot)
from ddbnb import mdd
from ddbnb import instances as io
from ddbnb.model import Problem
from ddbnb.problems import mcp, misp
from ddbnb.problems.mcp import McpRelaxation

from support import (CRAFTED_EXACT, CRAFTED_MISP, CRAFTED_RELAXED_W3,
                     make_problem)

PROBLEMS = ["misp", "mcp", "max2sat", "tsptw"]


def root_of(problem):
    return SubProblem(problem.initial_state, problem.initial_value)


def compile_kind(problem, relaxation, kind, width=0, **kw):
    return compile_diagram(problem, relaxation, root_of(problem), kind,
                           width, **kw)


# ---------------------------------------------------------------------------
# crafted four-variable micro-instance


def crafted():
    return misp.MaxIndependentSet(CRAFTED_MISP), misp.MispRelaxation()


def test_crafted_exact_value():
    problem, relaxation = crafted()
    dd = compile_kind(problem, relaxation, DiagramKind.EXACT)
    assert dd.is_exact
    assert dd.value == CRAFTED_EXACT == 25


def test_crafted_exact_best_path():
    problem, relaxation = crafted()
    dd = compile_kind(problem, relaxation, DiagramKind.EXACT)
    value, decisions = best_solution(dd)
    assert value == 25
    assert decisions == [1, 1, 0, 0]  # vertices 0 and 1, weights 12 + 13


def test_crafted_relaxed_width3_overshoots():
    problem, relaxation = crafted()
    dd = compile_kind(problem, relaxation, DiagramKind.RELAXED, 3)
    assert not dd.is_exact
    assert dd.value == CRAFTED_RELAXED_W3 == 26
    assert dd.last_exact_layer == 1


def test_crafted_restricted_width3_undershoots():
    problem, relaxation = crafted()
    dd = compile_kind(problem, relaxation, DiagramKind.RESTRICTED, 3)
    assert not dd.is_exact
    assert dd.value <= 25


def test_crafted_cutset_is_last_exact_layer():
    problem, relaxation = crafted()
    dd = compile_kind(problem, relaxation, DiagramKind.RELAXED, 3)
    subs = exact_cutset(dd, use_local_bounds=False)
    assert len(subs) == len(dd.layers[1])
    assert all(len(s.path) == 1 for s in subs)
    assert all(s.ub == dd.value for s in subs)


# ---------------------------------------------------------------------------
# layer operators


def layer_of(values):
    """A `state -> value_top` layer with states 0, 1, ..."""
    return dict(enumerate(values))


def test_restrict_keeps_largest():
    kept = restrict_layer(layer_of([10, 7, 3]), 2)
    assert list(kept.values()) == [10, 7]


def test_restrict_breaks_ties_by_insertion():
    kept = restrict_layer(layer_of([5, 5, 5]), 2)
    assert list(kept) == [0, 1]


def test_restrict_noop_when_within_width():
    layer = layer_of([10, 7])
    assert restrict_layer(layer, 2) is layer


def test_relax_merges_mcp_states():
    above = {"r": 0}
    a, b = (5, 3, -2), (9, 5, -4)
    arcs = {a: [("r", 0, 9)], b: [("r", 1, 7)]}
    merged_layer = relax_layer({a: 9, b: 7}, 1, McpRelaxation(), arcs, above)
    # arc into the second state lost magnitude (5-3) + (4-2) = 4; the merge
    # is a fresh node, so its arcs replace those of a, whose state it has
    assert list(merged_layer.items()) == [((5, 3, -2), 11)]
    assert arcs[(5, 3, -2)] == [("r", 0, 9), ("r", 1, 11)]


def test_relax_singleton_selection_goes_inexact():
    above = {"r": 1}
    a, b = (2, 2), (1, 1)
    arcs = {a: [("r", 0, 7)], b: [("r", 1, 2)]}
    a_arcs, b_arcs = arcs[a], arcs[b]
    layer = relax_layer({a: 8, b: 3}, 2, McpRelaxation(), arcs, above)
    assert list(layer.items()) == [((2, 2), 8), ((1, 1), 3)]
    # b is copied into a merge: the identity on singletons
    assert arcs[a] is a_arcs and arcs[b] is not b_arcs
    assert arcs[b] == [("r", 1, 2)]


def test_relax_collision_folds_into_kept_node():
    above = {"r": 0}
    arcs = {0b110: [("r", 1, 9)], 0b100: [("r", 0, 5)], 0b010: [("r", 1, 4)]}
    layer = relax_layer({0b110: 9, 0b100: 5, 0b010: 4}, 2,
                        misp.MispRelaxation(), arcs, above)
    # union of the two weakest is 0b110, the state of the kept node
    assert list(layer.items()) == [(0b110, 9)]
    assert [arc[2] for arc in arcs[0b110]] == [9, 5, 4]


def test_relax_breaks_ties_by_insertion():
    # width 3 keeps two nodes: the 9 and the first of the 5s tied at the cut,
    # also when a tied node comes before the 9
    above = {0: 0}
    for values, kept in (([9, 5, 5, 5], [0b0001, 0b0010]),
                         ([5, 9, 5, 5], [0b0001, 0b0010])):
        layer = {1 << i: v for i, v in enumerate(values)}
        arcs = {state: [(0, 1, v)] for state, v in layer.items()}
        squeezed = relax_layer(layer, 3, misp.MispRelaxation(), arcs, above)
        assert list(squeezed) == kept + [0b1100]
        assert all(squeezed[state] == layer[state] for state in kept)
        assert squeezed[0b1100] == 5
        assert arcs[0b1100] == [(0, 1, 5)] * 2


def check_squeezes_against_sorted_ranking(seed, key_of):
    """Both squeezes against a reference ranking (indices by key descending,
    insertion order on ties) on 200 random layers with ties, at every width;
    `key_of(rng, value)` draws a node's key, None leaves the squeezes on
    their default value-from-root keys."""
    rng = random.Random(seed)
    for _ in range(200):
        values = [rng.randrange(4) for _ in range(rng.randrange(1, 9))]
        keys = None if key_of is None else [key_of(rng, v) for v in values]
        ranked = sorted(range(len(values)), reverse=True,
                        key=lambda i: values[i] if keys is None else keys[i])
        for width in range(1, len(values) + 2):
            layer = {1 << i: v for i, v in enumerate(values)}
            arcs = {state: [(0, 1, v)] for state, v in layer.items()}
            kept = restrict_layer(layer, width, keys)
            assert list(kept.items()) == [(1 << i, values[i])
                                          for i in sorted(ranked[:width])]
            squeezed = relax_layer(layer, width, misp.MispRelaxation(), arcs,
                                   {0: 0}, keys)
            if len(layer) < width:
                assert squeezed is layer
                continue
            assert list(squeezed.items())[:-1] == [
                (1 << i, values[i]) for i in sorted(ranked[:width - 1])]
            merged = 0
            for i in ranked[width - 1:]:
                merged |= 1 << i
            assert list(squeezed)[-1] == merged
            assert squeezed[merged] == max(values[i]
                                           for i in ranked[width - 1:])
            assert arcs[merged] == [(0, 1, values[i])
                                    for i in sorted(ranked[width - 1:])]


def test_squeezes_match_the_sorted_ranking():
    check_squeezes_against_sorted_ranking(3, None)


def test_squeezes_match_the_sorted_ranking_by_keys():
    # (bound, value) keys as bound ranking builds them: the bound need not
    # follow the value, ties fall to the value and then to insertion order;
    # width 1 relaxes with no node kept, so no key is compared to a cut
    check_squeezes_against_sorted_ranking(
        4, lambda rng, value: (rng.randrange(3), value))


# ---------------------------------------------------------------------------
# compile-level properties


@pytest.mark.parametrize("name", PROBLEMS)
@pytest.mark.parametrize("seed", range(6))
def test_exact_compile_matches_brute_force(name, seed):
    _, problem, relaxation = make_problem(name, seed, 6)
    best, _ = brute_force_optimum(problem)
    dd = compile_kind(problem, relaxation, DiagramKind.EXACT)
    assert dd.is_exact
    assert dd.value == best


@pytest.mark.parametrize("name", PROBLEMS)
@pytest.mark.parametrize("width", [2, 3, 5])
def test_sandwich(name, width):
    for seed in range(6):
        _, problem, relaxation = make_problem(name, seed, 7)
        best, _ = brute_force_optimum(problem)
        lo = compile_kind(problem, relaxation, DiagramKind.RESTRICTED, width)
        hi = compile_kind(problem, relaxation, DiagramKind.RELAXED, width)
        assert lo.value <= best <= hi.value


@pytest.mark.parametrize("name", PROBLEMS)
def test_layers_deduplicate_states(name):
    for seed in range(4):
        _, problem, relaxation = make_problem(name, seed, 7)
        for kind, width in [(DiagramKind.EXACT, 0), (DiagramKind.RESTRICTED, 3),
                            (DiagramKind.RELAXED, 3)]:
            dd = compile_kind(problem, relaxation, kind, width)
            for rel, layer in enumerate(dd.layers):
                states = [node.state for node in layer]
                assert len(states) == len(set(states))
                # a relaxed diagram keeps its root's children whole; the
                # solver's invariant test pins that layer's content
                bounded = (kind is DiagramKind.RESTRICTED
                           or kind is DiagramKind.RELAXED and rel > 1)
                assert not bounded or len(states) <= width


@pytest.mark.parametrize("name", PROBLEMS)
def test_every_path_crosses_one_cutset_node(name):
    for seed in range(4):
        _, problem, relaxation = make_problem(name, seed, 6)
        dd = compile_kind(problem, relaxation, DiagramKind.RELAXED, 2)
        if dd.is_exact or dd.best_terminal is None:
            continue
        frontier = set(id(node) for node
                       in dd.layers[dd.last_exact_layer - dd.first_layer])

        def count_paths(node, hits):
            hits += id(node) in frontier
            if not node.inbound:
                return {hits}
            out = set()
            for parent, _, _ in node.inbound:
                out |= count_paths(parent, hits)
            return out

        for terminal in dd.layers[-1]:
            assert count_paths(terminal, 0) == {1}


def test_width_one_restricted_is_single_greedy_path():
    for seed in range(6):
        _, problem, relaxation = make_problem("misp", seed, 7)
        best, _ = brute_force_optimum(problem)
        dd = compile_kind(problem, relaxation, DiagramKind.RESTRICTED, 1)
        assert all(len(layer) == 1 for layer in dd.layers)
        assert dd.value <= best


def test_rub_keeps_relaxed_above_optimum():
    for seed in range(6):
        _, problem, relaxation = make_problem("misp", seed, 7)
        best, _ = brute_force_optimum(problem)
        dd = compile_kind(problem, relaxation, DiagramKind.RELAXED, 3,
                          incumbent=best - 1, use_rub=True)
        assert dd.value >= best


def test_rub_keeps_optimal_path_in_wide_restricted():
    for seed in range(6):
        _, problem, relaxation = make_problem("misp", seed, 7)
        best, _ = brute_force_optimum(problem)
        dd = compile_kind(problem, relaxation, DiagramKind.RESTRICTED, 1 << 10,
                          incumbent=best - 1, use_rub=True)
        assert dd.value == best


class DeadEnd(Problem):
    # one variable, one value, never feasible
    n = 1
    initial_state = 0
    initial_value = 0

    def domain(self, state, k):
        return (0,)

    def transition(self, state, k, value):
        return None

    def transition_cost(self, state, k, value):
        return 0


def test_dead_end_has_no_terminal():
    dd = compile_diagram(DeadEnd(), None, SubProblem(0, 0), DiagramKind.EXACT)
    assert dd.best_terminal is None
    assert best_solution(dd) is None
    assert dd.value == NEG_INF


def test_single_variable_best_solution():
    graph = io.Graph(1, {}, (5,))
    problem = misp.MaxIndependentSet(graph)
    dd = compile_kind(problem, misp.MispRelaxation(), DiagramKind.EXACT)
    assert best_solution(dd) == (5, [1])


def test_to_dot_marks_inexact_nodes():
    problem, relaxation = crafted()
    dd = compile_kind(problem, relaxation, DiagramKind.RELAXED, 3)
    dot = to_dot(dd)
    assert dot.startswith("digraph")
    below = dd.layers[dd.last_exact_layer - dd.first_layer + 1:]
    assert dot.count("peripheries=2") == sum(map(len, below)) > 0
    assert "v=26" in dot
    restricted = compile_kind(problem, relaxation, DiagramKind.RESTRICTED, 3)
    assert "peripheries" not in to_dot(restricted)


# to_dot of the crafted instance's width-3 relaxed and restricted diagrams;
# only arcs below the last exact layer are drawn beyond the best arcs
CRAFTED_RELAXED_DOT = (
    'digraph dd {\n  rankdir=TB;\n  n0 [label="15\\nv=0"];\n'
    '  n1 [label="14\\nv=0"];\n  n2 [label="10\\nv=12"];\n'
    '  n3 [label="4\\nv=13", peripheries=2];\n'
    '  n4 [label="0\\nv=25", peripheries=2];\n'
    '  n5 [label="12\\nv=12", peripheries=2];\n'
    '  n6 [label="0\\nv=25", peripheries=2];\n'
    '  n7 [label="8\\nv=18", peripheries=2];\n'
    '  n8 [label="0\\nv=26", peripheries=2];\n'
    '  n0 -> n1 [label="0/0"];\n  n0 -> n2 [label="1/12"];\n'
    '  n1 -> n3 [label="1/13"];\n  n2 -> n4 [label="1/13"];\n'
    '  n1 -> n5 [label="0/0"];\n  n2 -> n5 [label="0/0"];\n'
    '  n3 -> n6 [label="0/0"];\n  n3 -> n6 [label="1/6"];\n'
    '  n4 -> n6 [label="0/0"];\n  n5 -> n7 [label="0/0"];\n'
    '  n5 -> n7 [label="1/6"];\n  n6 -> n8 [label="0/0"];\n'
    '  n7 -> n8 [label="0/0"];\n  n7 -> n8 [label="1/8"];\n}\n')
CRAFTED_RESTRICTED_DOT = (
    'digraph dd {\n  rankdir=TB;\n  n0 [label="15\\nv=0"];\n'
    '  n1 [label="14\\nv=0"];\n  n2 [label="10\\nv=12"];\n'
    '  n3 [label="4\\nv=13"];\n  n4 [label="8\\nv=12"];\n'
    '  n5 [label="0\\nv=25"];\n  n6 [label="0\\nv=25"];\n'
    '  n7 [label="8\\nv=12"];\n  n8 [label="0\\nv=25"];\n'
    '  n0 -> n1 [label="0/0"];\n  n0 -> n2 [label="1/12"];\n'
    '  n1 -> n3 [label="1/13"];\n  n2 -> n4 [label="0/0"];\n'
    '  n2 -> n5 [label="1/13"];\n  n5 -> n6 [label="0/0"];\n'
    '  n4 -> n7 [label="0/0"];\n  n6 -> n8 [label="0/0"];\n}\n')


def test_to_dot_bytes_are_pinned():
    problem, relaxation = crafted()
    for kind, dot in ((DiagramKind.RELAXED, CRAFTED_RELAXED_DOT),
                      (DiagramKind.RESTRICTED, CRAFTED_RESTRICTED_DOT)):
        assert to_dot(compile_kind(problem, relaxation, kind, 3)) == dot, kind


def layer_signature(dd):
    """Every node's state, value, best arc and inbound arcs, with each arc's
    parent given by its position in the layer above."""
    where = {id(node): pos for layer in dd.layers
             for pos, node in enumerate(layer)}

    def arc(parent, value, weight):
        return where[id(parent)], value, weight

    return ([[(node.state, node.value_top,
               node.best_arc and arc(*node.best_arc),
               node.inbound and [arc(*a) for a in node.inbound])
              for node in layer] for layer in dd.layers],
            dd.last_exact_layer, dd.nodes_created)


@pytest.mark.parametrize("name", PROBLEMS)
def test_a_shared_bound_memo_changes_no_layer(name, monkeypatch):
    # one pair of memos across a sequence of compiles, as the solver keeps
    # them, gives the arcs of direct calls and of fresh per-compile memos
    # with fewer rough_bound and successors calls; so do memos whose layers
    # are emptied at a cap of one entry.  The compiles filter by rough
    # bounds, so a model with `live_successors` expands through it, and
    # its calls count as successors calls.  Seed 3: on seed 1, the live
    # expansion leaves one tsptw state per layer, which no cap re-evaluates
    _, problem, relaxation = make_problem(name, 3, 8)
    best, _ = brute_force_optimum(problem)
    root = root_of(problem)
    subs = [root] + exact_cutset(
        compile_kind(problem, relaxation, DiagramKind.RELAXED, 2),
        use_local_bounds=False)
    calls = {"rough_bound": 0, "successors": 0}

    def counted(name, original):
        def call(*args):
            calls[name] += 1
            return original(*args)
        return call

    for callback in calls:
        setattr(problem, callback, counted(callback, getattr(problem, callback)))
    if problem.live_successors is not None:
        problem.live_successors = counted("successors", problem.live_successors)
    runs = {}
    for memo in ("direct", "fresh", "shared", "capped"):
        if memo == "capped":
            monkeypatch.setattr(mdd, "BOUND_MEMO_ENTRIES", problem.n + 1)
            monkeypatch.setattr(mdd, "SUCCESSOR_MEMO_ENTRIES", problem.n + 1)
        kept = {"bounds": mdd.bound_memo(problem),
                "expansions": mdd.successors_memo(problem)}

        def memos():
            if memo == "direct":
                return {}
            if memo == "fresh":
                return {"expansions": mdd.successors_memo(problem)}
            return kept

        calls.update(rough_bound=0, successors=0)
        dds = [compile_diagram(problem, relaxation, sub, kind, 3, best - 2,
                               True, rank_by_bound=rank, **memos())
               for sub in subs
               for kind in (DiagramKind.RESTRICTED, DiagramKind.RELAXED)
               for rank in (False, True)]
        runs[memo] = list(map(layer_signature, dds)), dict(calls)
    assert (runs["direct"][0] == runs["fresh"][0] == runs["shared"][0]
            == runs["capped"][0])
    direct, fresh, shared, capped = (runs[memo][1] for memo in runs)
    assert direct["rough_bound"] == fresh["rough_bound"]
    assert direct["successors"] == fresh["successors"]
    for callback in calls:
        assert 0 < shared[callback] < capped[callback], callback
        assert shared[callback] < fresh[callback], callback


def test_compile_rejects_zero_width():
    problem, relaxation = crafted()
    with pytest.raises(ValueError):
        compile_kind(problem, relaxation, DiagramKind.RESTRICTED, 0)


def test_a_squeezing_relaxed_compile_expands_each_node_once():
    # MISP keeps no successors memo, so every expansion is a call
    _, problem, relaxation = make_problem("misp", 0, 30)
    calls = collections.Counter()
    direct = problem.successors

    def counted(state, k):
        calls[k, state] += 1
        return direct(state, k)

    problem.successors = counted
    dd = compile_kind(problem, relaxation, DiagramKind.RELAXED, 4)
    assert dd.last_exact_layer is not None
    expanded = [(k, node.state) for k, layer in enumerate(dd.layers[:-1])
                for node in layer]
    assert calls == collections.Counter(expanded)


# ---------------------------------------------------------------------------
# node representation: every compiled layer is state-keyed, with a Node view
# on first read


@pytest.mark.parametrize("name,n", [("misp", 40), ("tsptw", 11)])
def test_no_compile_constructs_a_node(name, n, monkeypatch):
    built = []

    class Counted(Node):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(mdd, "Node", Counted)
    kinds = set()

    def observe(kind, dd, sub, incumbent):
        assert not built
        kinds.add((kind, dd.last_exact_layer is not None))

    _, problem, relaxation = make_problem(name, 0, n)
    out = solve(problem, relaxation, SolveConfig(use_rub=False, use_locb=False,
                                                 dd_observer=observe))
    assert out.optimal
    assert {("restricted", False), ("relaxed", True)} <= kinds
    # the view is what builds them
    dd = compile_kind(problem, relaxation, DiagramKind.RELAXED, 2)
    assert not built
    layers = dd.layers
    assert len(built) == sum(map(len, layers)) > 0


def path_of(node):
    values = []
    while node.best_arc is not None:
        parent, value, weight = node.best_arc
        assert node.value_top == parent.value_top + weight
        values.append(value)
        node = parent
    return node, values[::-1]


@pytest.mark.parametrize("name", PROBLEMS)
def test_the_node_view_replays_the_best_solution(name):
    squeezes = 0
    for seed in range(3):
        _, problem, relaxation = make_problem(name, seed, 9)
        for kind, width in [(DiagramKind.EXACT, 0), (DiagramKind.RESTRICTED, 1),
                            (DiagramKind.RESTRICTED, 3), (DiagramKind.RELAXED, 1),
                            (DiagramKind.RELAXED, 3)]:
            dd = compile_kind(problem, relaxation, kind, width)
            # a squeezed relaxed diagram's view shows every inbound arc
            # below its last exact layer
            squeezed = kind is DiagramKind.RELAXED and not dd.is_exact
            assert (dd.last_exact_layer is not None) == squeezed
            value, decisions = best_solution(dd)
            assert dd.best_terminal in dd.layers[-1]
            assert dd.best_terminal.value_top == value == dd.value
            root, path = path_of(dd.best_terminal)
            assert path == decisions and root is dd.layers[0][0]
            assert dd.layers is dd.layers   # built once, then cached
            assert len(dd.layers) == problem.n + 1
            assert sum(map(len, dd.layers)) <= dd.nodes_created
            squeezes += squeezed
    assert squeezes > 0
