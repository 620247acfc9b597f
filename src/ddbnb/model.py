"""Contracts shared by every problem plugin, plus exhaustive evaluation oracles.

A problem is described as a labelled transition system: one state space per
variable, a transition function and an integer transition cost per decision,
and an initial value.  The solver core always MAXIMIZES the initial value plus
the sum of transition costs along a complete assignment.  Minimization
problems (TSPTW) plug in with negated costs and a negated bound hook; the CLI
negates reported values back.

Assignments and partial paths are plain lists of decision values: the value at
index k is the decision for variable k.  Paths always fix a consecutive prefix
of variables, so carrying explicit variable indices around would be redundant.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterable, Optional, Sequence, Tuple

NEG_INF = float("-inf")
POS_INF = float("inf")

# Default cap on the number of transitions an exhaustive enumeration may take.
ENUMERATION_LIMIT = 10**7

State = Any


def iter_bits(mask: int):
    """Yield the indices of the set bits of an int bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Problem(ABC):
    """DP model of a discrete maximization problem over variables 0..n-1.

    Required attributes:
      n              -- number of variables
      initial_state  -- root state
      initial_value  -- value of the empty prefix (added to every total)
      negated        -- True when the plugin encodes a minimization problem
                        with negated costs (reports must be sign-corrected)
      rank_by_bound  -- True when the squeezes of the solver's diagrams rank
                        a layer's nodes by `(rough_bound, value_top)`; False
                        keeps the longest-path ranking by `value_top`.  Set
                        it where `rough_bound` separates the nodes of a layer
                        better than their prefix values do.
      memoize_successors -- True when the solver keeps the result of every
                        `successors(state, k)` call for the rest of the solve
                        and re-reads it when a later diagram reaches the same
                        (layer, state) again; False calls `successors` for
                        every node.  Set it where `successors` costs clearly
                        more than a dict lookup (vector states, multi-valued
                        domains); for a few bit operations the memo's upkeep
                        costs more than it saves.
      dominance_key  -- None, or a method `dominance_key(state)` returning a
                        hashable key.  None means that a node dominates
                        another only when their states are equal.  With a
                        key, of two nodes of one layer above a merge whose
                        states have equal keys, the one with the higher
                        value_top dominates: the solver's compiles keep the
                        best node per key (the first on ties) and read and
                        write the solve's dominance marks by key.
      live_successors -- None, or a method `live_successors(state, k)`
                        returning `successors(state, k)` minus some arcs
                        whose child has `rough_bound(child, 0, k + 1) ==
                        NEG_INF`, the other arcs unchanged and in order.
                        The compiler expands through it in place of
                        `successors` when rough-bound filtering is on.

    A key is sound when, for any two exact states s and t of one layer with
    equal keys, every completion feasible from t is feasible from s, at a
    total no lower when s's prefix value is at least t's.  Then dropping t's
    node for s's loses no solution that could beat s's.  Returning the state
    itself is always sound; a key that maps distinct states together must
    justify the domination, as `Tsptw.dominance_key` does.  The compiler
    calls the key only on layers down to a relaxed diagram's first squeeze,
    that layer included, so never on a merged state, and a model without a
    key costs no call.

    `live_successors` cannot change a diagram: rough-bound filtering drops
    every arc whose child's estimate is NEG_INF, whatever the incumbent,
    before the child enters its layer, so the arcs it omits are arcs the
    filter would drop.  It saves building those children and evaluating
    their bounds.  Without the filter every child is kept, so `successors`
    must still list them all.
    """

    n: int
    initial_state: State
    initial_value: int = 0
    negated: bool = False
    rank_by_bound: bool = False
    memoize_successors: bool = False
    dominance_key = None
    live_successors = None

    @abstractmethod
    def domain(self, state: State, k: int) -> Iterable:
        """Candidate values for variable k out of `state`.

        Values whose infeasibility is cheap to detect may be omitted here;
        `transition` must still reject them when called directly.
        """

    @abstractmethod
    def transition(self, state: State, k: int, value) -> Optional[State]:
        """Next state after assigning `value` to variable k, None if infeasible."""

    @abstractmethod
    def transition_cost(self, state: State, k: int, value) -> int:
        """Immediate reward of assigning `value` to variable k from `state`."""

    def successors(self, state: State, k: int) -> Iterable[Tuple[Any, State, int]]:
        """(value, next state, cost) for every feasible value of variable k.

        Must agree with `domain`, `transition` and `transition_cost`: the
        same values in `domain` order, skipping those `transition` rejects.
        The default is built from those three; models override it to compute
        each child state and its cost in one pass.  The triple stays the
        reference that `evaluate_assignment` and the enumeration oracles
        replay.

        The result must be a pure function of `(state, k)`: with
        `memoize_successors` the solver keeps it as a tuple and re-reads it
        for every later node of layer k with an equal state, so neither the
        triples nor the states in them may change after the call.
        """
        for value in self.domain(state, k):
            nxt = self.transition(state, k, value)
            if nxt is not None:
                yield value, nxt, self.transition_cost(state, k, value)

    def rough_bound(self, state: State, value_top, k: int):
        """Cheap admissible bound on the best total reachable through `state`.

        `value_top` is the value of the best known prefix into `state` and k
        is the layer (number of decided variables).  The returned number must
        be >= the total objective of every feasible completion whose prefix
        value is `value_top`.  The default gives no information; NEG_INF acts
        as a prune sentinel meaning "no feasible completion exists".

        The result must be `value_top` plus a completion estimate that
        depends only on `(state, k)`, or one of the two sentinels.  The
        compiler relies on this: it evaluates `rough_bound(state, 0, k)`,
        the estimate alone, once per (layer, state) per solve, and adds it to
        the prefix value of every node with that layer and state.
        """
        return POS_INF


class Relaxation(ABC):
    """Merge/relax operator pair used when a layer must be squeezed.

    `merge` must over-approximate: every completion feasible from any input
    state stays feasible (with a value at least as large after `relax_arc`)
    from the merged state.
    """

    @abstractmethod
    def merge(self, states: Sequence[State]) -> State:
        """Combine the states of the nodes selected for merging."""

    def relax_arc(self, weight, head_state: State, merged_state: State):
        """Weight of an arc redirected from its original head onto the merge.

        `head_state` is the state of the merged-away node the arc used to
        enter.  The default keeps the weight unchanged.
        """
        return weight


def evaluate_assignment(problem: Problem, values: Sequence):
    """Total objective of a complete assignment, or None when infeasible.

    Replays the transition system from the initial state; any rejected
    transition makes the whole assignment infeasible.
    """
    if len(values) != problem.n:
        raise ValueError(f"expected {problem.n} decisions, got {len(values)}")
    state = problem.initial_state
    total = problem.initial_value
    for k, value in enumerate(values):
        nxt = problem.transition(state, k, value)
        if nxt is None:
            return None
        total += problem.transition_cost(state, k, value)
        state = nxt
    return total


def best_completion(problem: Problem, state: State, k: int, prefix_value,
                    limit: int = ENUMERATION_LIMIT):
    """Best total objective of any completion from `state` at layer k.

    Exhaustive depth-first enumeration over the remaining variables; the
    prefix is assumed to have value `prefix_value`.  Returns NEG_INF when no
    feasible completion exists.  Raises ValueError when the enumeration would
    exceed `limit` transitions.
    """
    budget = [limit]

    def go(state, k, acc):
        if k == problem.n:
            return acc
        best = NEG_INF
        for value in problem.domain(state, k):
            budget[0] -= 1
            if budget[0] < 0:
                raise ValueError("enumeration limit exceeded")
            nxt = problem.transition(state, k, value)
            if nxt is None:
                continue
            sub = go(nxt, k + 1, acc + problem.transition_cost(state, k, value))
            if sub > best:
                best = sub
        return best

    return go(state, k, prefix_value)


def brute_force_optimum(problem: Problem, limit: int = ENUMERATION_LIMIT):
    """Exhaustive maximum of evaluate_assignment over all assignments.

    Returns (value, assignment); (NEG_INF, None) when the problem has no
    feasible assignment.  An n = 0 problem yields (initial_value, []).
    Refuses oversized enumerations by raising ValueError once `limit`
    transitions have been taken.
    """
    budget = [limit]
    best = [NEG_INF, None]

    def go(state, k, acc, prefix):
        if k == problem.n:
            if acc > best[0]:
                best[0] = acc
                best[1] = list(prefix)
            return
        for value in problem.domain(state, k):
            budget[0] -= 1
            if budget[0] < 0:
                raise ValueError("enumeration limit exceeded")
            nxt = problem.transition(state, k, value)
            if nxt is None:
                continue
            prefix.append(value)
            go(nxt, k + 1, acc + problem.transition_cost(state, k, value), prefix)
            prefix.pop()

    go(problem.initial_state, 0, problem.initial_value, [])
    if problem.n == 0:
        return problem.initial_value, []
    return best[0], best[1]
