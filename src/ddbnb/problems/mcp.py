"""Maximum cut with signed integer edge weights.

Vertices are assigned in index order to one of the two cut sides, S (value 0)
or T (value 1).  Write s_l for the net benefit of eventually putting vertex l
in T: the sum of +-w[i][l] over decided i, positive when i went to S.  The
state after k decisions holds only what is still undecided,

  (m, s_k, s_{k+1}, ..., s_{n-1}),   m = sum of |s_l| over l >= k,

a tuple of n - k + 1 entries whose first is the pending magnitude m.  The
decided components would all be zero, and m is what the completion bound and
the relaxation read, so a state keeps m once instead of re-summing it: the
bound is value_top + m plus a per-layer constant, and a redirected arc gains
its head's m minus the merged state's m, each O(1).  `successors` builds a
child from the tail alone and sums its magnitude once.  `MaxCut.w[k]` is the
upper-triangular weight row (w_{k,k+1}, ..., w_{k,n-1}), aligned with the
child's tail.

The total objective starts from the sum of all negative edge weights and the
per-decision cost collects, at decision time of vertex k:

  * the chosen side of the accumulated net benefit, (-s_k)^+ for S and
    (s_k)^+ for T, and
  * for every undecided l, the benefit guaranteed regardless of where l ends
    up: min(|s_l|, |w_kl|) whenever the update to component l cancels against
    its current sign (s_l * w_kl < 0 when k joins S, > 0 when k joins T).

Replaying any complete assignment through these costs reproduces its exact
cut value; the cancellation condition must follow the chosen side or the
identity breaks (checked against exhaustive enumeration in the tests).

Merging keeps, per component s_l, the common-sign value closest to zero (zero
on sign disagreement) and recomputes m from the merged components; a
redirected arc is compensated by the magnitude its head lost, so no path
length can decrease.

A `MaxCut` decides vertices in its graph's own index order.  `load`, which
solves from instance text, first renumbers the graph heaviest vertex first
(descending sum of |w| over its edges, ties in index order): deciding the
heavy vertices early shrinks the diagrams and the search several-fold.  It
records the renumbering as `problem.order`, where order[k] is the instance
index of the k-th decided vertex, so an assignment maps back to the
instance as `values[order[k]] = assignment[k]`.
"""

from __future__ import annotations

from operator import add, sub
from typing import Sequence, Tuple

from ..instances import Graph, relabel_graph
from ..model import Problem, Relaxation

S, T = 0, 1


class MaxCut(Problem):
    # the completion bound adds the pending benefit |s_l| of every undecided
    # vertex to the prefix value, so it sees what a layer's states still
    # promise; ranked by it, squeezes keep far fewer doomed nodes
    rank_by_bound = True
    # an expansion builds two tail states and sums their magnitudes; the
    # relaxed compile and the cutset children re-reach most of them, so
    # keep them per solve
    memoize_successors = True

    def __init__(self, graph: Graph):
        n = self.n = graph.n
        self.initial_state = (0,) * (n + 1)
        # one pass over the edges (u < v): the weight rows, |w| to later
        # vertices per decision, positive weight to later vertices,
        # negative weight from earlier ones
        w = [[0] * (n - 1 - u) for u in range(n)]
        after = [0] * n
        pos_from = [0] * (n + 1)
        neg_into = [0] * n
        for (u, v), wt in graph.edges.items():
            w[u][v - u - 1] = wt
            if wt > 0:
                after[u] += wt
                pos_from[u] += wt
            else:
                after[u] -= wt
                neg_into[v] += wt
        self.w = tuple(map(tuple, w))
        self.initial_value = sum(neg_into)
        self.abs_w_after = tuple(after)
        # Layer table for the completion bound: rem[k] over-estimates the
        # cut among undecided vertices, neg[k] re-adds the negative edges
        # already interconnecting decided ones.
        rem = pos_from
        for i in range(n - 1, -1, -1):
            rem[i] += rem[i + 1]
        neg = [0] * (n + 1)
        for k in range(n):
            neg[k + 1] = neg[k] + neg_into[k]
        self.rest = tuple(r + s - self.initial_value for r, s in zip(rem, neg))

    def domain(self, state, k: int):
        return (S, T)

    def transition(self, state: Tuple[int, ...], k: int, value: int):
        sign = 1 if value == S else -1
        tail = [s_l + sign * w_kl for s_l, w_kl in zip(state[2:], self.w[k])]
        return (sum(abs(s_l) for s_l in tail), *tail)

    def transition_cost(self, state: Tuple[int, ...], k: int, value: int) -> int:
        s_k = state[1]
        cost = max(0, -s_k) if value == S else max(0, s_k)
        for s_l, w_kl in zip(state[2:], self.w[k]):
            cross = s_l * w_kl
            if value == S:
                if cross < 0:
                    cost += min(abs(s_l), abs(w_kl))
            elif cross > 0:
                cost += min(abs(s_l), abs(w_kl))
        return cost

    def successors(self, state: Tuple[int, ...], k: int):
        # For each undecided l > k, |s_l| + |w_kl| - |s_l +- w_kl| is twice
        # the min(|s_l|, |w_kl|) that transition_cost collects when the
        # update cancels against s_l, and 0 otherwise; `both` sums the first
        # two terms, the child's magnitude the third.
        s_k = state[1]
        tail = state[2:]
        w_k = self.w[k]
        both = state[0] - abs(s_k) + self.abs_w_after[k]
        # slot 0 of a child holds its magnitude, summed over the tail
        to_s = [0, *map(add, tail, w_k)]
        to_t = [0, *map(sub, tail, w_k)]
        m_s = to_s[0] = sum(map(abs, to_s))
        m_t = to_t[0] = sum(map(abs, to_t))
        return ((S, tuple(to_s), max(0, -s_k) + (both - m_s) // 2),
                (T, tuple(to_t), max(0, s_k) + (both - m_t) // 2))

    def rough_bound(self, state: Tuple[int, ...], value_top, k: int):
        return value_top + state[0] + self.rest[k]


class BenefitVectorRelaxation(Relaxation):
    """Componentwise merge for pending-benefit states (shared with MAX2SAT).

    A layer-k state is `(m, s_k, ..., s_{n-1})` with `m` the sum of |s_l|
    (see the module docstring).  `merge` keeps, per component s_l, the
    common-sign value closest to zero and then recomputes `m`; `relax_arc`
    adds the magnitude the head lost, the difference of the two `m`s.
    """

    def merge(self, states: Sequence[Tuple[int, ...]]) -> Tuple[int, ...]:
        merged = []
        columns = zip(*states)
        next(columns)                   # the magnitudes, recomputed below
        for comps in columns:
            lo, hi = min(comps), max(comps)
            if lo >= 0:
                merged.append(lo)
            elif hi <= 0:
                merged.append(hi)
            else:
                merged.append(0)
        return (sum(map(abs, merged)), *merged)

    def relax_arc(self, weight, head_state, merged_state):
        # the magnitude the head lost to the merge
        return weight + head_state[0] - merged_state[0]


McpRelaxation = BenefitVectorRelaxation


def heaviest_first(graph: Graph) -> Tuple[int, ...]:
    """Vertices by descending sum of |w| over their edges; ties keep index
    order."""
    weight = [0] * graph.n
    for (u, v), wt in graph.edges.items():
        weight[u] += abs(wt)
        weight[v] += abs(wt)
    # a stable sort, reversed stably: equal weights stay in index order
    return tuple(sorted(range(graph.n), key=weight.__getitem__, reverse=True))


def load(text: str):
    from ..instances import parse_graph

    graph = parse_graph(text)
    order = heaviest_first(graph)
    problem = MaxCut(relabel_graph(graph, order))
    problem.order = order
    return problem, McpRelaxation()
