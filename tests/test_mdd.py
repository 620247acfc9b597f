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


def nodes_with_values(values):
    return [Node(state=i, value_top=v, inbound=[]) for i, v in enumerate(values)]


def test_restrict_keeps_largest():
    layer = nodes_with_values([10, 7, 3])
    kept = restrict_layer(layer, 2)
    assert [n.value_top for n in kept] == [10, 7]


def test_restrict_breaks_ties_by_insertion():
    layer = nodes_with_values([5, 5, 5])
    kept = restrict_layer(layer, 2)
    assert [n.state for n in kept] == [0, 1]


def test_restrict_noop_when_within_width():
    layer = nodes_with_values([10, 7])
    assert restrict_layer(layer, 2) is layer


def test_relax_merges_mcp_states():
    parent = Node(state=None, value_top=0)
    a = Node(state=(5, 3, -2), value_top=9, inbound=[(parent, 0, 9)])
    b = Node(state=(9, 5, -4), value_top=7, inbound=[(parent, 1, 7)])
    merged_layer = relax_layer([a, b], 1, McpRelaxation())
    assert len(merged_layer) == 1
    merged = merged_layer[0]
    assert merged is not a and merged.state == (5, 3, -2)
    # arc into the second state lost magnitude (5-3) + (4-2) = 4
    weights = sorted(w for _, _, w in merged.inbound)
    assert weights == [9, 11]
    assert merged.value_top == 11


def test_relax_singleton_selection_goes_inexact():
    parent = Node(state=None, value_top=1)
    a = Node(state=(2, 2), value_top=8, inbound=[(parent, 0, 7)])
    b = Node(state=(1, 1), value_top=3, inbound=[(parent, 1, 2)])
    layer = relax_layer([a, b], 2, McpRelaxation())
    assert [n.state for n in layer] == [(2, 2), (1, 1)]
    assert layer[0] is a and layer[1] is not b  # b is copied into a merge
    assert layer[1].value_top == 3  # singleton merge is the identity
    assert layer[1].inbound == [(parent, 1, 2)]


def test_relax_collision_folds_into_kept_node():
    parent = Node(state=None, value_top=0)
    a = Node(state=0b110, value_top=9, inbound=[(parent, 1, 9)])
    b = Node(state=0b100, value_top=5, inbound=[(parent, 0, 5)])
    c = Node(state=0b010, value_top=4, inbound=[(parent, 1, 4)])
    layer = relax_layer([a, b, c], 2, misp.MispRelaxation())
    # union of the two weakest is 0b110, the state of the kept node
    assert layer == [a]
    assert a.value_top == 9
    assert [arc[2] for arc in a.inbound] == [9, 5, 4]


def test_relax_breaks_ties_by_insertion():
    # width 3 keeps two nodes: the 9 and the first of the 5s tied at the cut,
    # also when a tied node comes before the 9
    parent = Node(state=0, value_top=0)
    for values, kept in (([9, 5, 5, 5], [0b0001, 0b0010]),
                         ([5, 9, 5, 5], [0b0001, 0b0010])):
        layer = [Node(state=1 << i, value_top=v, inbound=[(parent, 1, v)])
                 for i, v in enumerate(values)]
        squeezed = relax_layer(layer, 3, misp.MispRelaxation())
        assert [n.state for n in squeezed] == kept + [0b1100]
        assert squeezed[:2] == [node for node in layer if node.state in kept]
        assert squeezed[-1].value_top == 5
        assert squeezed[-1].inbound == [(parent, 1, 5)] * 2


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
            layer = [Node(state=1 << i, value_top=v, inbound=[])
                     for i, v in enumerate(values)]
            kept = restrict_layer(layer, width, keys)
            assert kept == [layer[i] for i in sorted(ranked[:width])]
            squeezed = relax_layer(layer, width, misp.MispRelaxation(), keys)
            if len(layer) < width:
                assert squeezed is layer
                continue
            assert squeezed[:-1] == [layer[i]
                                     for i in sorted(ranked[:width - 1])]
            merged = 0
            for i in ranked[width - 1:]:
                merged |= 1 << i
            assert squeezed[-1].state == merged
            assert all(squeezed[-1] is not node for node in layer)


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
    # are emptied at a cap of two entries
    _, problem, relaxation = make_problem(name, 1, 8)
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
    runs, cuts = {}, 0
    for memo in ("direct", "fresh", "shared", "capped"):
        if memo == "capped":
            monkeypatch.setattr(mdd, "BOUND_MEMO_ENTRIES", 2 * (problem.n + 1))
            monkeypatch.setattr(mdd, "SUCCESSOR_MEMO_ENTRIES",
                                2 * (problem.n + 1))
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
        # a relaxed diagram expands its last exact layer twice, as state-keyed
        # layers and as Nodes; a memo serves the second expansion
        cuts = sum(len(dd.layers[dd.last_exact_layer - dd.first_layer])
                   for dd in dds if dd.last_exact_layer is not None)
        runs[memo] = list(map(layer_signature, dds)), dict(calls)
    assert (runs["direct"][0] == runs["fresh"][0] == runs["shared"][0]
            == runs["capped"][0])
    direct, fresh, shared, capped = (runs[memo][1] for memo in runs)
    assert direct["rough_bound"] == fresh["rough_bound"]
    assert direct["successors"] == fresh["successors"] + cuts
    for callback in calls:
        assert 0 < shared[callback] < capped[callback], callback
        assert shared[callback] < fresh[callback], callback


def test_compile_rejects_zero_width():
    problem, relaxation = crafted()
    with pytest.raises(ValueError):
        compile_kind(problem, relaxation, DiagramKind.RESTRICTED, 0)


# ---------------------------------------------------------------------------
# node representations: a relaxed diagram builds Nodes from its last exact
# layer down, every other layer is state-keyed, with a Node view on first read


@pytest.mark.parametrize("name,n", [("misp", 40), ("tsptw", 11)])
def test_only_relaxed_compiles_construct_nodes(name, n, monkeypatch):
    built = []

    class Counted(Node):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(mdd, "Node", Counted)
    seen = 0
    with_nodes = {"restricted": 0, "relaxed": 0}

    def observe(kind, dd, sub, incumbent):
        nonlocal seen
        fresh = built[seen:]            # the Nodes this compile built
        if dd.last_exact_layer is None:
            assert not fresh
        else:
            with_nodes[kind] += 1
            cut = dd.last_exact_layer - dd.first_layer
            below = {id(node) for layer in dd.layers[cut:] for node in layer}
            above = sum(map(len, dd.layers[:cut]))
            assert len(fresh) == dd.nodes_created - above
            assert below <= {id(node) for node in fresh}
        seen = len(built)               # skip the Nodes of the view

    _, problem, relaxation = make_problem(name, 0, n)
    out = solve(problem, relaxation, SolveConfig(use_rub=False, use_locb=False,
                                                 dd_observer=observe))
    assert out.optimal
    assert with_nodes["relaxed"] > 0 == with_nodes["restricted"]


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
    joins = 0
    for seed in range(3):
        _, problem, relaxation = make_problem(name, seed, 9)
        for kind, width in [(DiagramKind.EXACT, 0), (DiagramKind.RESTRICTED, 1),
                            (DiagramKind.RESTRICTED, 3), (DiagramKind.RELAXED, 1),
                            (DiagramKind.RELAXED, 3)]:
            dd = compile_kind(problem, relaxation, kind, width)
            # a squeezed relaxed diagram's view joins its state-keyed
            # layers to its Node layers at the last exact layer
            joined = kind is DiagramKind.RELAXED and not dd.is_exact
            assert (dd.last_exact_layer is not None) == joined
            value, decisions = best_solution(dd)
            assert dd.best_terminal in dd.layers[-1]
            assert dd.best_terminal.value_top == value == dd.value
            root, path = path_of(dd.best_terminal)
            assert path == decisions and root is dd.layers[0][0]
            assert dd.layers is dd.layers   # built once, then cached
            assert len(dd.layers) == problem.n + 1
            assert sum(map(len, dd.layers)) <= dd.nodes_created
            joins += joined
    assert joins > 0
