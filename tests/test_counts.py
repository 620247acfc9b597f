"""Pinned search counts on small seeded instances.

Speed work on the compiler must build the same diagrams, so a solve must
return the same optimum after the same number of explored subproblems and
created diagram nodes.  The figures below were recorded before the compile
loop was reworked for speed; a change that alters them on purpose updates
them and says why.
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


@pytest.mark.parametrize("case", list(PINNED), ids=lambda c: "-".join(map(str, c)))
def test_counts_are_pinned(case):
    name, n, density, seed, width = case
    _, problem, relaxation = make_problem(name, seed, n, density)
    for config, (use_rub, use_locb) in CONFIGS.items():
        out = solve(problem, relaxation,
                    SolveConfig(width=width, use_rub=use_rub, use_locb=use_locb))
        assert out.optimal
        assert (out.value, out.explored, out.dd_nodes) == PINNED[case][config], config
