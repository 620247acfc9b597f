"""Branch-and-bound driver over restricted/relaxed decision diagrams.

Open subproblems live on a shared best-first fringe ordered by upper bound,
then by value-from-root, then first-in first-out.  Exploring a subproblem
compiles a restricted diagram (a feasible-solutions sample that may improve
the incumbent) and, when that diagram had to drop nodes, a relaxed diagram
whose value bounds the subproblem from above.  If the bound still beats the
incumbent, the relaxed diagram's last exact layer is enqueued as new
subproblems.

Two optional filters sharpen this loop:

  * rough-bound filtering (`use_rub`) discards doomed nodes inside both
    compilations, and
  * local-bound pruning (`use_locb`) bounds each enqueued subproblem by the
    best path through its own cutset node, skips enqueueing ones that cannot
    beat the incumbent, and re-checks the bound when a subproblem is popped,
    since the incumbent may have grown while it waited.

Neither filter changes the returned optimum, only how much work finding it
takes.  With `workers > 1` the fringe and incumbent are shared under one
lock; results stay exact but pop order, and therefore explored counts, may
vary between runs.  Single-worker runs are fully deterministic.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional

from .mdd import (DecisionDiagram, DiagramKind, SubProblem, best_solution,
                  compile_diagram, exact_cutset)
from .model import NEG_INF, POS_INF, Problem, Relaxation
from .pruning import compute_local_bounds


class Status(Enum):
    OPTIMAL = "optimal"
    TIMEOUT = "timeout"


@dataclass
class SolveConfig:
    width: Optional[int] = None      # None: number of unfixed variables
    use_rub: bool = True
    use_locb: bool = True
    timeout: Optional[float] = None  # seconds, checked before each layer
    workers: int = 1
    # test/diagnostic hooks, called in-line by the exploring worker; the
    # observer also receives the incumbent the compilation filtered against
    # (NEG_INF when rough-bound filtering was off)
    dd_observer: Optional[Callable[[str, DecisionDiagram, SubProblem, float],
                                   None]] = None
    iteration_hook: Optional[Callable[[float, float], None]] = None


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
    """Shared state of one solve call; workers drain the fringe together."""

    def __init__(self, problem: Problem, relaxation: Relaxation,
                 config: SolveConfig):
        self.problem = problem
        self.relaxation = relaxation
        self.config = config
        self.fringe = Fringe()
        self.cond = threading.Condition()
        self.incumbent = NEG_INF
        self.assignment: Optional[list] = None
        self.explored = 0
        self.dd_nodes = 0
        self.busy = 0
        self.timed_out = False
        self.deadline = (time.monotonic() + config.timeout
                         if config.timeout is not None else None)

    def improve(self, value, assignment) -> None:
        # caller holds the lock; keep-max so late workers cannot regress it
        if value > self.incumbent:
            self.incumbent = value
            self.assignment = assignment

    def subproblem_width(self, sub: SubProblem) -> int:
        if self.config.width is not None:
            return max(1, self.config.width)
        return max(1, self.problem.n - len(sub.path))

    def explore(self, sub: SubProblem, incumbent) -> tuple:
        """Expand one subproblem; returns (solution, children, nodes_created).

        Runs outside the lock with a snapshot of the incumbent; a stale
        (smaller) snapshot only weakens the filtering, never correctness.
        """
        cfg = self.config
        width = self.subproblem_width(sub)
        restricted = compile_diagram(self.problem, self.relaxation, sub,
                                     DiagramKind.RESTRICTED, width,
                                     incumbent, cfg.use_rub,
                                     deadline=self.deadline)
        nodes = restricted.nodes_created
        if cfg.dd_observer:
            cfg.dd_observer("restricted", restricted, sub,
                            incumbent if cfg.use_rub else NEG_INF)
        solution = best_solution(restricted)
        children: List[SubProblem] = []
        if not restricted.is_exact:
            if solution and solution[0] > incumbent:
                incumbent = solution[0]
            relaxed = compile_diagram(self.problem, self.relaxation, sub,
                                      DiagramKind.RELAXED, width,
                                      incumbent, cfg.use_rub,
                                      deadline=self.deadline)
            nodes += relaxed.nodes_created
            if relaxed.is_exact:
                # the rough-bound filter kept every layer within the width
                # limit, so this diagram holds every completion that can beat
                # the incumbent and its best path is a feasible solution
                exact_sol = best_solution(relaxed)
                if exact_sol and (solution is None or exact_sol[0] > solution[0]):
                    solution = exact_sol
            elif relaxed.value > incumbent:
                if cfg.use_locb:
                    compute_local_bounds(relaxed)
                children = exact_cutset(relaxed, use_local_bounds=cfg.use_locb)
                for child in children:
                    # inherit the parent's bound when it is tighter, so the
                    # global bound can only shrink
                    if sub.ub < child.ub:
                        child.ub = sub.ub
                    child.path = sub.path + child.path
            if cfg.dd_observer:
                cfg.dd_observer("relaxed", relaxed, sub,
                                incumbent if cfg.use_rub else NEG_INF)
        return solution, children, nodes

    def worker(self) -> None:
        cfg = self.config
        while True:
            with self.cond:
                while not self.fringe and self.busy and not self.timed_out:
                    self.cond.wait(0.05)
                if self.timed_out or not self.fringe:
                    break
                if self.deadline is not None and time.monotonic() > self.deadline:
                    self.timed_out = True
                    self.cond.notify_all()
                    break
                sub = self.fringe.pop()
                self.explored += 1
                if cfg.iteration_hook:
                    cfg.iteration_hook(self.incumbent,
                                       max(self.incumbent, sub.ub,
                                           self.fringe.max_ub()))
                if cfg.use_locb and sub.ub <= self.incumbent:
                    continue
                incumbent = self.incumbent
                self.busy += 1
            try:
                solution, children, nodes = self.explore(sub, incumbent)
            except TimeoutError:
                # the deadline passed mid-compilation: hand the subproblem
                # back so the reported bound still covers it
                with self.cond:
                    self.busy -= 1
                    self.fringe.push(sub)
                    self.timed_out = True
                    self.cond.notify_all()
                break
            except BaseException:
                with self.cond:
                    self.busy -= 1
                    self.cond.notify_all()
                raise
            with self.cond:
                self.busy -= 1
                self.dd_nodes += nodes
                if solution and solution[0] > self.incumbent:
                    self.improve(solution[0], list(sub.path) + solution[1])
                for child in children:
                    if cfg.use_locb and child.ub <= self.incumbent:
                        continue
                    self.fringe.push(child)
                self.cond.notify_all()


def solve(problem: Problem, relaxation: Relaxation,
          config: Optional[SolveConfig] = None) -> Outcome:
    """Run the branch-and-bound to optimality or until the timeout."""
    cfg = config or SolveConfig()
    search = _Search(problem, relaxation, cfg)
    started = time.monotonic()
    search.fringe.push(SubProblem(problem.initial_state, problem.initial_value,
                                  (), POS_INF))
    if cfg.workers <= 1:
        search.worker()
    else:
        threads = [threading.Thread(target=search.worker, daemon=True)
                   for _ in range(cfg.workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
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
