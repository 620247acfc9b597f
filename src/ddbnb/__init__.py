"""Branch-and-bound over multi-valued decision diagrams.

Restricted diagrams sample feasible solutions (primal side), relaxed diagrams
merge states to bound from above (dual side), and the driver branches on the
last exact layer of each relaxed diagram.  Rough-bound filtering and
local-bound pruning cut the search down further.  Ships with maximum
independent set, maximum cut, weighted MAX2SAT and TSPTW models.
"""

from .mdd import (DecisionDiagram, DiagramKind, Node, SubProblem,
                  best_solution, compile_diagram, compute_local_bounds,
                  exact_cutset, relax_layer, restrict_layer, to_dot)
from .model import (NEG_INF, POS_INF, Problem, Relaxation, best_completion,
                    brute_force_optimum, evaluate_assignment, iter_bits)
from .solver import (Fringe, Outcome, SolveConfig, Status, end_gap, solve)

__all__ = [
    "DecisionDiagram", "DiagramKind", "Node", "SubProblem",
    "best_solution", "compile_diagram", "compute_local_bounds",
    "exact_cutset", "relax_layer", "restrict_layer", "to_dot",
    "NEG_INF", "POS_INF", "Problem", "Relaxation", "best_completion",
    "brute_force_optimum", "evaluate_assignment", "iter_bits",
    "Fringe", "Outcome", "SolveConfig", "Status", "end_gap", "solve",
]

__version__ = "0.1.0"
