"""Branch-and-bound driver over restricted/relaxed decision diagrams.

Open subproblems live on a best-first fringe ordered by upper bound,
then by value-from-root, then first-in first-out.  Exploring a subproblem
compiles a restricted diagram (a feasible-solutions sample that may improve
the incumbent) and a relaxed diagram whose value bounds the subproblem from
above.  If the bound still beats the incumbent, the relaxed diagram's last
exact layer is enqueued as new subproblems.  A relaxed diagram never
squeezes the layer right below its root, so its last exact layer lies below
the root, every branching fixes at least one more variable and the search
terminates at any width.

The order of the two compiles depends on the incumbent.  While there is
none, as at the root, the restricted diagram comes first: no bound can prune
against nothing, and its sample gives the search an early solution.  Once
there is one, the relaxed diagram comes first, compiled against it.  A
bound that cannot beat the incumbent closes the subproblem, since no sample
could have improved on it, and the restricted compile is skipped.  So does
an exact relaxed diagram whose layers all fit the width, after its best
path is recorded: a restricted diagram would hold the same layers.
Otherwise the restricted diagram samples the subproblem; if it raised the
incumbent under rough-bound filtering, the relaxed diagram is compiled
again against the new incumbent.  Every subproblem thus ends with the
incumbent, cutset and local bounds of sampling first, and the search
returns the same value and assignment after the same explorations.  It
creates fewer diagram nodes on every benchmark workload; on a solve where
many samples raise the incumbent, the relaxed compiles done twice can cost
more than the skipped samples saved.

The diagrams' squeezes rank nodes as the model's `rank_by_bound` says.  One
completion-estimate memo serves every compile of a solve, so
`Problem.rough_bound` is evaluated once per (layer, state) per solve.  When
the model sets `memoize_successors`, one successors memo does the same for
`Problem.successors`: later compiles re-read the expansions of the states
that earlier compiles of the solve already expanded.

Every solve keeps dominance marks, one dict per layer mapping a state to a
value (Coppé, Gillard & Schaus, "Decision diagram-based branch-and-bound
with caching for dominance and suboptimality detection", 2024).  A mark
(k, s, v) is written for each cutset child pushed onto the fringe, at its
layer k = len(path), and for each node below the root of an exact diagram
that closes its subproblem: a restricted one that ends the exploration, or
the relaxed one the exploration ends with.  Compiles drop every node of
layer k and state s whose value_top is at most v, above their first merge
(see `compile_diagram`).  This is sound: each completion of the dropped
node is also a completion of the marked node, at no lower value.  A pushed
node's subproblem is explored later, or pruned by a bound that covers that
completion too; an exact closing diagram held every completion of its nodes
that could beat the incumbent, which has only grown since.  The marked node
may in turn drop that completion's tail, but only at a deeper layer, so the
chain of hand-offs ends.  Marks are written only after an exploration's
last compile; an exact relaxed diagram that goes on to sample is marked, if
at all, only once the exploration ends, since marks written before its
restricted compile would drop all of that sample's nodes.  A node kept by a
compile beats its mark, so new marks overwrite old ones.  The marks never
change a returned value, only which subproblems are explored.

A model with a `Problem.dominance_key` (Coppé, Gillard & Schaus, "Modeling
and exploiting dominance rules for discrete optimization with decision
diagrams", CPAIOR 2024) has its marks stored and read by key, not by state:
a mark (k, key, v) drops the nodes of layer k with that key whose
value_top is at most v, and the argument above holds because the key is
sound.  Within a compile, too, only the best node per key survives.

Two optional filters sharpen this loop:

  * rough-bound filtering (`use_rub`) discards doomed nodes inside both
    compilations, and
  * local-bound pruning (`use_locb`) bounds each enqueued subproblem by the
    best path through its own cutset node, skips enqueueing ones that cannot
    beat the incumbent, and re-checks the bound when a subproblem is popped,
    since the incumbent may have grown while it waited.

Neither filter changes the returned optimum, only how much work finding it
takes.  A solve is one sequential loop on the calling thread, so a solve
that ends within its timeout is fully deterministic: the same instance and
config give the same value, assignment and counts.  Batches parallelise
across solves instead (`ddbnb bench --threads`).
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional

from .mdd import (DecisionDiagram, DiagramKind, SubProblem, best_solution,
                  bound_memo, compile_diagram, compute_local_bounds,
                  dominance_marks, exact_cutset, mark, mark_diagram,
                  successors_memo)
from .model import NEG_INF, POS_INF, Problem, Relaxation


class Status(Enum):
    OPTIMAL = "optimal"
    TIMEOUT = "timeout"


@dataclass
class SolveConfig:
    width: Optional[int] = None      # None: number of unfixed variables
    use_rub: bool = True
    use_locb: bool = True
    timeout: Optional[float] = None  # seconds, checked before each layer
    # must be 1: a solve runs on one thread; the field stays only because
    # the benchmark harness (perfbench/run.py) still passes workers=1
    workers: int = 1
    # test/diagnostic hooks, called in-line by the search loop; the
    # observer also receives the incumbent the compilation filtered against
    # (NEG_INF when rough-bound filtering was off).  A subproblem closed by
    # an exact diagram after the root reports kind "relaxed", not
    # "restricted" (see the module docstring).  Observed diagrams omit the
    # nodes the solve's dominance marks dropped
    dd_observer: Optional[Callable[[str, DecisionDiagram, SubProblem, float],
                                   None]] = None
    iteration_hook: Optional[Callable[[float, float], None]] = None

    def __post_init__(self):
        if self.workers != 1:
            raise ValueError(f"workers must be 1, got {self.workers}")
        if self.width is not None and self.width < 1:
            raise ValueError(f"width must be at least 1, got {self.width}")
        # no deadline comparison is ever true for NaN
        if self.timeout is not None and math.isnan(self.timeout):
            raise ValueError("timeout must be a number of seconds, got NaN")


@dataclass
class Outcome:
    status: Status
    value: float                     # incumbent value, NEG_INF when none
    assignment: Optional[list]
    bound: float                     # best proven upper bound
    gap: float                       # end_gap of the sign-corrected values
    explored: int                    # popped subproblems
    duration: float
    dd_nodes: int = 0                # nodes created across all compilations

    @property
    def optimal(self) -> bool:
        return self.status is Status.OPTIMAL


def end_gap(lb: float, ub: float) -> float:
    """Residual optimality gap, in percent: 100 * (|ub| - |lb|) / |ub|.

    By convention a closed interval (lb == ub) and the degenerate |ub| == 0
    both yield 0.0, and an interval with an infinite side is fully open.
    """
    if lb > ub:
        raise ValueError("gap needs lb <= ub")
    if lb == ub:
        return 0.0
    if lb == NEG_INF or ub == POS_INF:
        return 100.0
    if abs(ub) == 0:
        return 0.0
    return 100.0 * (abs(ub) - abs(lb)) / abs(ub)


class Fringe:
    """Priority queue of subproblems, most promising first.

    Pop order: upper bound descending, then value-from-root descending, then
    insertion order.
    """

    def __init__(self):
        self._heap: List[tuple] = []
        self._tick = itertools.count()

    def push(self, sub: SubProblem) -> None:
        heapq.heappush(self._heap, (-sub.ub, -sub.value_top, next(self._tick), sub))

    def pop(self) -> SubProblem:
        return heapq.heappop(self._heap)[3]

    def max_ub(self):
        return -self._heap[0][0] if self._heap else NEG_INF

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class _Search:
    """State of one solve call: the fringe, the incumbent, the
    completion-estimate and successors memos, the dominance marks and the
    counters."""

    def __init__(self, problem: Problem, relaxation: Relaxation,
                 config: SolveConfig):
        self.problem = problem
        self.rank_by_bound = problem.rank_by_bound
        self.relaxation = relaxation
        self.config = config
        self.fringe = Fringe()
        self.bounds = bound_memo(problem)
        self.expansions = (successors_memo(problem)
                           if problem.memoize_successors else None)
        self.marks = dominance_marks(problem)
        self.key = problem.dominance_key
        self.incumbent = NEG_INF
        self.assignment: Optional[list] = None
        self.explored = 0
        self.dd_nodes = 0
        self.timed_out = False
        self.deadline = (time.monotonic() + config.timeout
                         if config.timeout is not None else None)

    def improve(self, sub: SubProblem, solution) -> None:
        if solution and solution[0] > self.incumbent:
            self.incumbent = solution[0]
            self.assignment = list(sub.path) + solution[1]

    def compile(self, sub: SubProblem, kind: DiagramKind, width: int):
        cfg = self.config
        dd = compile_diagram(self.problem, self.relaxation, sub, kind, width,
                             self.incumbent, cfg.use_rub,
                             deadline=self.deadline,
                             rank_by_bound=self.rank_by_bound,
                             bounds=self.bounds,
                             expansions=self.expansions,
                             marks=self.marks)
        self.dd_nodes += dd.nodes_created
        if cfg.dd_observer:
            cfg.dd_observer(kind.value, dd, sub,
                            self.incumbent if cfg.use_rub else NEG_INF)
        return dd

    def explore(self, sub: SubProblem) -> None:
        """Expand one subproblem: record what it solves, enqueue its branches.

        Each diagram's nodes and best path are recorded as soon as it is
        compiled, so a deadline that cuts a later compilation keeps what
        an earlier one found.
        """
        cfg = self.config
        width = diagram_width(self.problem, sub, cfg.width)
        if self.incumbent == NEG_INF:
            restricted = self.compile(sub, DiagramKind.RESTRICTED, width)
            self.improve(sub, best_solution(restricted))
            if restricted.is_exact:
                mark_diagram(self.marks, restricted, self.key)
                return
            relaxed = self.compile(sub, DiagramKind.RELAXED, width)
        else:
            relaxed = self.compile(sub, DiagramKind.RELAXED, width)
            # sample only what the bound leaves open, and only where a
            # restricted diagram would drop nodes: without a drop it would
            # hold this diagram's layers and find nothing new
            if relaxed.value > self.incumbent and relaxed.max_width > width:
                before = self.incumbent
                restricted = self.compile(sub, DiagramKind.RESTRICTED, width)
                self.improve(sub, best_solution(restricted))
                if cfg.use_rub and self.incumbent > before:
                    # filter against the new incumbent, as a relaxed
                    # diagram compiled after the restricted one would
                    relaxed = self.compile(sub, DiagramKind.RELAXED, width)
        if relaxed.is_exact:
            # the rough-bound filter kept every layer within the width limit,
            # so this diagram holds every completion that can beat the
            # incumbent and its best path is a feasible solution.  It is
            # marked only now, after any sample: marked before, it would
            # dominate every node of the restricted diagram
            self.improve(sub, best_solution(relaxed))
            mark_diagram(self.marks, relaxed, self.key)
            return
        if relaxed.value <= self.incumbent:
            return
        if cfg.use_locb:
            compute_local_bounds(relaxed)
        pushed = {}
        for child in exact_cutset(relaxed, use_local_bounds=cfg.use_locb):
            # inherit the parent's bound when it is tighter, so the global
            # bound can only shrink
            if sub.ub < child.ub:
                child.ub = sub.ub
            if cfg.use_locb and child.ub <= self.incumbent:
                continue
            child.path = sub.path + child.path
            self.fringe.push(child)
            pushed[child.state] = child.value_top
        mark(self.marks, relaxed.last_exact_layer, pushed, self.key)

    def run(self) -> None:
        cfg = self.config
        fringe = self.fringe
        while fringe:
            if self.deadline is not None and time.monotonic() > self.deadline:
                self.timed_out = True
                return
            sub = fringe.pop()
            self.explored += 1
            if cfg.iteration_hook:
                cfg.iteration_hook(self.incumbent,
                                   max(self.incumbent, sub.ub, fringe.max_ub()))
            if cfg.use_locb and sub.ub <= self.incumbent:
                continue
            try:
                self.explore(sub)
            except TimeoutError:
                # the deadline passed mid-compilation: hand the subproblem
                # back so the reported bound still covers it
                fringe.push(sub)
                self.timed_out = True
                return


def diagram_width(problem: Problem, sub: SubProblem,
                  width: Optional[int]) -> int:
    """Layer width of the diagrams compiled for `sub`: `width`, by default
    the number of unfixed variables, and at least 1."""
    return max(1, problem.n - len(sub.path) if width is None else width)


def solve(problem: Problem, relaxation: Relaxation,
          config: Optional[SolveConfig] = None) -> Outcome:
    """Run the branch-and-bound to optimality or until the timeout."""
    cfg = config or SolveConfig()
    search = _Search(problem, relaxation, cfg)
    started = time.monotonic()
    search.fringe.push(SubProblem(problem.initial_state, problem.initial_value,
                                  (), POS_INF))
    search.run()
    duration = time.monotonic() - started

    if search.timed_out:
        status = Status.TIMEOUT
        bound = max(search.incumbent, search.fringe.max_ub())
    else:
        status = Status.OPTIMAL
        bound = search.incumbent
    if problem.negated:
        # minimization: the reported bound -bound is the smaller side
        gap = end_gap(-bound, -search.incumbent)
    else:
        gap = end_gap(search.incumbent, bound)
    return Outcome(status=status, value=search.incumbent,
                   assignment=search.assignment, bound=bound, gap=gap,
                   explored=search.explored, duration=duration,
                   dd_nodes=search.dd_nodes)
