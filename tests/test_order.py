"""The mcp and max2sat loaders decide variables heaviest first.

`mcp.load` and `max2sat.load` renumber an instance before building its
model and record the renumbering as `problem.order`: `order[k]` is the
instance index of the k-th decided variable.  A solve through them must
reach the optimum of the instance as written, and its assignment, mapped
back through `order`, must replay on the index-order model to that value.
"""

from itertools import product

import pytest

from ddbnb import SolveConfig, evaluate_assignment, solve
from ddbnb import instances as io
from ddbnb.cli import LOADERS
from ddbnb.problems import max2sat, mcp

from support import max_cut_optimum, max2sat_optimum, satisfied_weight
from test_counts import CONFIGS, loaded_problem


def in_instance_order(order, assignment):
    """The assignment of a renumbered model, indexed like the instance."""
    values = [None] * len(order)
    for k, var in enumerate(order):
        values[var] = assignment[k]
    return values


def test_relabel_graph_moves_vertices_and_edges():
    graph = io.Graph(3, {(0, 1): 4, (1, 2): -2}, (7, 8, 9))
    moved = io.relabel_graph(graph, (2, 0, 1))
    assert moved.edges == {(1, 2): 4, (0, 2): -2}
    assert moved.vertex_weights == (9, 7, 8)


def test_relabel_formula_keeps_polarities():
    formula = io.CnfFormula(3, ((5, (1, -3)), (2, (-2,)), (1, (3, 3))))
    moved = io.relabel_formula(formula, (2, 0, 1))
    assert moved.clauses == ((5, (2, -1)), (2, (-3,)), (1, (1, 1)))
    for bits in product((0, 1), repeat=3):
        original = in_instance_order((2, 0, 1), bits)
        assert (satisfied_weight(moved, bits)
                == satisfied_weight(formula, original))


def test_mcp_order_is_heaviest_first():
    # |w| sums: 0 -> 1, 1 -> 5, 2 -> 7, 3 -> 3
    graph = io.Graph(4, {(0, 1): -1, (1, 2): 4, (2, 3): 3}, (1,) * 4)
    assert mcp.heaviest_first(graph) == (2, 1, 3, 0)


def test_max2sat_order_is_heaviest_first():
    # clause weights per variable: 0 -> 1, 1 -> 9, 2 -> 5; a clause counts
    # once for a variable it names twice
    formula = io.CnfFormula(3, ((1, (1, 2)), (5, (-3, -3)), (3, (2,)),
                                (5, (-2,))))
    assert max2sat.heaviest_first(formula) == (1, 2, 0)


@pytest.mark.parametrize("text", [
    "p edge 0 0\n",
    "p edge 3 0\n",
    # a 4-cycle: every vertex carries |w| = 2
    "p edge 4 4\ne 1 2 1\ne 2 3 -1\ne 3 4 1\ne 1 4 -1\n",
])
def test_mcp_ties_keep_the_identity(text):
    problem, _ = LOADERS["mcp"](text)
    assert problem.order == tuple(range(problem.n))


@pytest.mark.parametrize("text", [
    "p wcnf 0 0\n",
    "p wcnf 2 0\n",
    "p wcnf 3 3\n2 1 -2 0\n2 -2 3 0\n2 3 -1 0\n",
])
def test_max2sat_ties_keep_the_identity(text):
    problem, _ = LOADERS["max2sat"](text)
    assert problem.order == tuple(range(problem.n))


@pytest.mark.parametrize("name", ["mcp", "max2sat"])
@pytest.mark.parametrize("seed", range(10))
def test_order_is_a_permutation(name, seed):
    _, problem, _ = loaded_problem(name, seed, 14, 0.4)
    assert sorted(problem.order) == list(range(problem.n))


def replayed_value(name, instance, values):
    """Value of an instance-order assignment on the index-order model."""
    model = (mcp.MaxCut(instance) if name == "mcp"
             else max2sat.Max2Sat(instance))
    return evaluate_assignment(model, values)


@pytest.mark.parametrize("width", [1, 2, None])
@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("name,n,density", [("mcp", 9, 0.5),
                                            ("max2sat", 8, 0.3)])
def test_loaded_solves_match_the_oracles(name, n, density, config, width):
    use_rub, use_locb = CONFIGS[config]
    oracle = max_cut_optimum if name == "mcp" else max2sat_optimum
    for seed in range(3):
        instance, problem, relaxation = loaded_problem(name, seed, n, density)
        out = solve(problem, relaxation,
                    SolveConfig(width=width, use_rub=use_rub,
                                use_locb=use_locb))
        assert out.optimal
        assert out.value == oracle(instance), seed
        values = in_instance_order(problem.order, out.assignment)
        assert replayed_value(name, instance, values) == out.value, seed
