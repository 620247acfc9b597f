"""Pinned search counts on small seeded instances.

Speed work on the compiler must build the same diagrams, so a solve must
return the same optimum after the same number of explored subproblems and
created diagram nodes.  The figures in `PINNED` were recorded before the
compile loop was reworked for speed, under the longest-path ranking of
squeezed layers, which every model then used; they are checked with that
ranking forced.  `PINNED_BY_BOUND` holds the mcp and max2sat figures under
their default ranking by completion bound.  A change that alters them on
purpose updates them and says why: the `dd_nodes` column was re-recorded
when the search began to compile a subproblem's relaxed diagram before its
restricted one once an incumbent exists, which skips the restricted
compiles a pruning bound makes useless; no value or explored count moved.
The misp, mcp and tsptw rows of `PINNED` were re-recorded twice more, with
every value unchanged: when compiles began to drop the nodes that a solve's
dominance marks cover (see `ddbnb.solver`), and when TSPTW's redirected
arcs began to be re-based on the merged state's earliest arrival, which
makes its local bounds sound and weaker (its `locb` rows explore more).
`PINNED_LOADED` solves the mcp and max2sat cases of `PINNED_BY_BOUND`
through `cli.LOADERS`, which renumber an instance heaviest variable first,
so that a change to that order cannot pass unseen.
"""

import pytest

from ddbnb import SolveConfig, solve
from ddbnb import instances as io
from ddbnb.cli import LOADERS

from support import make_problem

CONFIGS = {"none": (False, False), "rub": (True, False),
           "locb": (False, True), "rub+locb": (True, True)}

# (problem, n, edge/clause density, seed, width) ->
#     {config: (value, explored, dd_nodes)}; width None is the default,
#     the number of unfixed variables
PINNED = {
    ("misp", 60, 0.5, 0, None): {
        "none": (26, 90, 31140), "rub": (26, 1, 3896),
        "locb": (26, 76, 29812), "rub+locb": (26, 1, 3896)},
    ("misp", 60, 0.5, 1, 5): {
        "none": (23, 231, 41515), "rub": (23, 43, 5674),
        "locb": (23, 190, 38758), "rub+locb": (23, 38, 5571)},
    ("mcp", 18, 0.3, 0, None): {
        "none": (10, 201, 29534), "rub": (10, 201, 28050),
        "locb": (10, 92, 17391), "rub+locb": (10, 92, 17314)},
    ("mcp", 18, 0.3, 1, 5): {
        "none": (12, 257, 22579), "rub": (12, 257, 20669),
        "locb": (12, 145, 12676), "rub+locb": (12, 145, 12329)},
    ("max2sat", 12, 0.3, 0, None): {
        "none": (419, 49, 2994), "rub": (419, 9, 504),
        "locb": (419, 17, 1784), "rub+locb": (419, 9, 524)},
    ("max2sat", 12, 0.3, 1, 5): {
        "none": (477, 21, 1753), "rub": (477, 13, 600),
        "locb": (477, 10, 853), "rub+locb": (477, 8, 521)},
    ("tsptw", 12, 0.5, 0, None): {
        "none": (-326, 61, 4717), "rub": (-326, 1, 15),
        "locb": (-326, 58, 4708), "rub+locb": (-326, 1, 15)},
    ("tsptw", 12, 0.5, 2, None): {
        "none": (-350, 31, 3758), "rub": (-350, 1, 15),
        "locb": (-350, 28, 3755), "rub+locb": (-350, 1, 15)},
}


PINNED_BY_BOUND = {
    ("mcp", 18, 0.3, 0, None): {
        "none": (10, 17, 5000), "rub": (10, 17, 4961),
        "locb": (10, 17, 5000), "rub+locb": (10, 17, 4961)},
    ("mcp", 18, 0.3, 1, 5): {
        "none": (12, 45, 5554), "rub": (12, 45, 5371),
        "locb": (12, 37, 4890), "rub+locb": (12, 37, 4755)},
    ("max2sat", 12, 0.3, 0, None): {
        "none": (419, 9, 1152), "rub": (419, 9, 465),
        "locb": (419, 9, 1152), "rub+locb": (419, 9, 465)},
    ("max2sat", 12, 0.3, 1, 5): {
        "none": (477, 5, 519), "rub": (477, 5, 221),
        "locb": (477, 5, 519), "rub+locb": (477, 5, 221)},
}

PINNED_LOADED = {
    ("mcp", 18, 0.3, 0, None): {
        "none": (10, 17, 3842), "rub": (10, 17, 3403),
        "locb": (10, 15, 3461), "rub+locb": (10, 15, 3079)},
    ("mcp", 18, 0.3, 1, 5): {
        "none": (12, 21, 2266), "rub": (12, 21, 2160),
        "locb": (12, 17, 1950), "rub+locb": (12, 17, 1896)},
    ("max2sat", 12, 0.3, 0, None): {
        "none": (419, 9, 1034), "rub": (419, 9, 424),
        "locb": (419, 5, 687), "rub+locb": (419, 5, 385)},
    ("max2sat", 12, 0.3, 1, 5): {
        "none": (477, 1, 191), "rub": (477, 1, 124),
        "locb": (477, 1, 191), "rub+locb": (477, 1, 124)},
}


def loaded_problem(name, seed, n, density):
    """The instance of `make_problem`, loaded from its text by `cli.LOADERS`."""
    instance, _, _ = make_problem(name, seed, n, density)
    emit = io.emit_graph if name == "mcp" else io.emit_wcnf
    return (instance, *LOADERS[name](emit(instance)))


def check_counts(case, pinned, rank_by_bound=None, build=make_problem):
    """Solve `case`, built by `build`, under every config; `rank_by_bound`,
    when given, overrides the model's own ranking on the instance."""
    name, n, density, seed, width = case
    _, problem, relaxation = build(name, seed, n, density)
    if rank_by_bound is not None:
        problem.rank_by_bound = rank_by_bound
    for config, (use_rub, use_locb) in CONFIGS.items():
        out = solve(problem, relaxation,
                    SolveConfig(width=width, use_rub=use_rub, use_locb=use_locb))
        assert out.optimal
        assert (out.value, out.explored, out.dd_nodes) == pinned[config], config


@pytest.mark.parametrize("case", list(PINNED), ids=lambda c: "-".join(map(str, c)))
def test_counts_are_pinned(case):
    check_counts(case, PINNED[case], rank_by_bound=False)


@pytest.mark.parametrize("case", list(PINNED_BY_BOUND),
                         ids=lambda c: "-".join(map(str, c)))
def test_bound_ranked_counts_are_pinned(case):
    check_counts(case, PINNED_BY_BOUND[case])


@pytest.mark.parametrize("case", list(PINNED_LOADED),
                         ids=lambda c: "-".join(map(str, c)))
def test_loaded_counts_are_pinned(case):
    check_counts(case, PINNED_LOADED[case], build=loaded_problem)
