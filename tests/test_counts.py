"""Pinned search counts on small seeded instances.

Speed work on the compiler must build the same diagrams, so a solve must
return the same optimum after the same number of explored subproblems and
created diagram nodes.  The figures in `PINNED` were recorded before the
compile loop was reworked for speed, under the longest-path ranking of
squeezed layers, which every model then used; they are checked with that
ranking forced.  `PINNED_BY_BOUND` holds the mcp and max2sat figures under
their default ranking by completion bound.  A change that alters them on
purpose updates them and says why.
"""

import pytest

from ddbnb import SolveConfig, solve

from support import make_problem

CONFIGS = {"none": (False, False), "rub": (True, False),
           "locb": (False, True), "rub+locb": (True, True)}

# (problem, n, edge/clause density, seed, width) ->
#     {config: (value, explored, dd_nodes)}; width None is the default,
#     the number of unfixed variables
PINNED = {
    ("misp", 60, 0.5, 0, None): {
        "none": (26, 90, 51882), "rub": (26, 1, 3896),
        "locb": (26, 68, 46030), "rub+locb": (26, 1, 3896)},
    ("misp", 60, 0.5, 1, 5): {
        "none": (23, 230, 62699), "rub": (23, 43, 5568),
        "locb": (23, 190, 56898), "rub+locb": (23, 38, 5465)},
    ("mcp", 18, 0.3, 0, None): {
        "none": (10, 201, 46610), "rub": (10, 201, 42216),
        "locb": (10, 92, 23846), "rub+locb": (10, 92, 22970)},
    ("mcp", 18, 0.3, 1, 5): {
        "none": (12, 257, 33312), "rub": (12, 257, 28605),
        "locb": (12, 145, 14971), "rub+locb": (12, 145, 14167)},
    ("max2sat", 12, 0.3, 0, None): {
        "none": (419, 49, 4570), "rub": (419, 9, 504),
        "locb": (419, 17, 2223), "rub+locb": (419, 9, 524)},
    ("max2sat", 12, 0.3, 1, 5): {
        "none": (477, 21, 2640), "rub": (477, 13, 459),
        "locb": (477, 10, 1040), "rub+locb": (477, 8, 380)},
    ("tsptw", 12, 0.5, 0, None): {
        "none": (-326, 61, 6108), "rub": (-326, 1, 15),
        "locb": (-326, 26, 5600), "rub+locb": (-326, 1, 15)},
    ("tsptw", 12, 0.5, 2, None): {
        "none": (-350, 31, 5068), "rub": (-350, 1, 15),
        "locb": (-350, 22, 4981), "rub+locb": (-350, 1, 15)},
}


PINNED_BY_BOUND = {
    ("mcp", 18, 0.3, 0, None): {
        "none": (10, 17, 8653), "rub": (10, 17, 8538),
        "locb": (10, 17, 8653), "rub+locb": (10, 17, 8538)},
    ("mcp", 18, 0.3, 1, 5): {
        "none": (12, 45, 8315), "rub": (12, 45, 7924),
        "locb": (12, 37, 7039), "rub+locb": (12, 37, 6809)},
    ("max2sat", 12, 0.3, 0, None): {
        "none": (419, 9, 1892), "rub": (419, 9, 465),
        "locb": (419, 9, 1892), "rub+locb": (419, 9, 465)},
    ("max2sat", 12, 0.3, 1, 5): {
        "none": (477, 5, 823), "rub": (477, 5, 240),
        "locb": (477, 5, 823), "rub+locb": (477, 5, 240)},
}


def check_counts(case, pinned, rank_by_bound=None):
    """Solve `case` under every config; `rank_by_bound`, when given,
    overrides the model's own ranking on the instance."""
    name, n, density, seed, width = case
    _, problem, relaxation = make_problem(name, seed, n, density)
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
