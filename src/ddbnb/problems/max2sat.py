"""Weighted MAX2SAT over clauses of at most two literals.

Variables are decided in index order, value 1 = true, 0 = false.  The state
has the max-cut layout (see `mcp`): after k decisions it is

  (m, s_k, s_{k+1}, ..., s_{n-1}),   m = sum of |s_l| over l >= k,

where s_l is the net benefit of eventually setting variable l true,
accumulated from clauses whose other literal was already falsified, and m is
the pending magnitude.  `successors` copies the tail once and updates m by
the change in |s_j| of each partner j the decision touches, so neither the
children nor the completion bound re-sum the tail.  Deciding variable k
collects

  * the weights of unit clauses and pair clauses satisfied by the decision,
  * the chosen side of the accumulated net benefit, (s_k)^+ for true and
    (-s_k)^+ for false, and
  * for every undecided partner l, the weight guaranteed no matter where l
    ends up.  If the decision pushes p onto l's true-side pending weight and
    q onto its false side, that locked-in amount is
    (p + q - |s_l + p - q| + |s_l|) / 2, the growth of the overlap between
    the two pending sides.

Replaying a complete assignment through these costs plus the initial value
(the total weight of tautological clauses, which no decision can falsify)
yields exactly the satisfied weight of that assignment; the exhaustive
assignment oracle in the tests is the binding contract.

The completion bound adds m, that is |s_l| for every undecided l, the best
pairwise payoff among undecided pairs, and the best unit payoff per
undecided variable: value_top + m plus a per-layer constant, O(1) per
state.  Merging and `relax_arc` are the max-cut ones
(`BenefitVectorRelaxation`).

A `Max2Sat` decides variables in its formula's own index order.  `load`,
which solves from instance text, first renumbers the formula heaviest
variable first (descending total weight of the clauses naming it, ties in
index order) and records the renumbering as `problem.order`, as
`mcp.load` does.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..instances import CnfFormula, relabel_formula
from ..model import Problem
from .mcp import BenefitVectorRelaxation

Max2SatRelaxation = BenefitVectorRelaxation


class Max2Sat(Problem):
    # the completion bound adds the pending benefit |s_l| of every undecided
    # variable to the prefix value, so it sees what a layer's states still
    # promise; ranked by it, squeezes keep far fewer doomed nodes
    rank_by_bound = True
    # an expansion builds two tail states; the relaxed compile and the
    # cutset children re-reach most of them, so keep them per solve
    memoize_successors = True

    def __init__(self, formula: CnfFormula):
        n = formula.n_vars
        self.n = n
        taut = [0] * n
        upos = [0] * n
        uneg = [0] * n
        # pair[(i, j)] with i < j: weights of (i or j), (i or -j), (-i or j),
        # (-i or -j)
        pair: Dict[Tuple[int, int], List[int]] = {}
        for weight, lits in formula.clauses:
            if len(lits) == 1:
                var = abs(lits[0]) - 1
                if lits[0] > 0:
                    upos[var] += weight
                else:
                    uneg[var] += weight
                continue
            a, b = lits
            va, vb = abs(a) - 1, abs(b) - 1
            if va == vb:
                if (a > 0) == (b > 0):
                    if a > 0:
                        upos[va] += weight
                    else:
                        uneg[va] += weight
                else:
                    taut[va] += weight
                continue
            if va > vb:
                va, vb, a, b = vb, va, b, a
            slot = pair.setdefault((va, vb), [0, 0, 0, 0])
            slot[(0 if a > 0 else 2) + (0 if b > 0 else 1)] += weight
        self.taut = tuple(taut)
        self.upos = tuple(upos)
        self.uneg = tuple(uneg)
        # per variable i, (j, *pair[(i, j)]) for every partner j > i in
        # ascending order, grouped from the clauses rather than from all
        # n^2 index pairs
        rows: List[List[Tuple[int, int, int, int, int]]] = [[] for _ in range(n)]
        for (i, j), weights in sorted(pair.items()):
            rows[i].append((j, *weights))
        self.pairs_of = tuple(map(tuple, rows))
        self.initial_state = (0,) * (n + 1)
        self.initial_value = sum(taut)

        # Suffix table for the completion bound: per pair the best of the four
        # joint assignments, per variable the best unit polarity (plus the
        # tautologies not yet swallowed by the prefix term).
        best = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            acc = taut[i] + max(upos[i], uneg[i])
            for _, pp, pn, np_, nn in self.pairs_of[i]:
                total = pp + pn + np_ + nn
                acc += total - min(pp, pn, np_, nn)
            best[i] = best[i + 1] + acc
        prefix = [0] * (n + 1)
        for k in range(1, n + 1):
            prefix[k] = prefix[k - 1] + taut[k - 1]
        self.rest = tuple(r + t - self.initial_value
                          for r, t in zip(best, prefix))
        # weight of the pair clauses a decision satisfies outright
        self.sat_false = tuple(sum(np_ + nn for _, _, _, np_, nn in ps)
                               for ps in self.pairs_of)
        self.sat_true = tuple(sum(pp + pn for _, pp, pn, _, _ in ps)
                              for ps in self.pairs_of)

    def domain(self, state, k: int):
        return (0, 1)

    def _shift(self, k: int, value: int):
        """Per-partner (delta, total) pushed onto pending weights by decision."""
        if value:
            # truth of k falsifies the -k literals
            return [(j, np_ - nn, np_ + nn) for j, pp, pn, np_, nn in self.pairs_of[k]]
        return [(j, pp - pn, pp + pn) for j, pp, pn, np_, nn in self.pairs_of[k]]

    def transition(self, state: Tuple[int, ...], k: int, value: int):
        # state[j - k + 1] is s_j; the child's tail starts at s_{k+1}
        tail = list(state[2:])
        for j, delta, _ in self._shift(k, value):
            tail[j - k - 1] += delta
        return (sum(abs(s_j) for s_j in tail), *tail)

    def transition_cost(self, state: Tuple[int, ...], k: int, value: int) -> int:
        s_k = state[1]
        if value:
            cost = self.upos[k] + max(0, s_k)
        else:
            cost = self.uneg[k] + max(0, -s_k)
        for j, pp, pn, np_, nn in self.pairs_of[k]:
            if value:
                cost += pp + pn
                delta, total = np_ - nn, np_ + nn
            else:
                cost += np_ + nn
                delta, total = pp - pn, pp + pn
            s_j = state[j - k + 1]
            cost += (total - abs(s_j + delta) + abs(s_j)) // 2
        return cost

    def successors(self, state: Tuple[int, ...], k: int):
        # Both children start as state[1:], whose slot 0 (s_k) becomes the
        # child's magnitude and whose slot j - k holds s_j.
        s_k = state[1]
        false_state = list(state[1:])
        true_state = false_state[:]
        false_m = true_m = state[0] - abs(s_k)
        false_cost = self.uneg[k] + max(0, -s_k) + self.sat_false[k]
        true_cost = self.upos[k] + max(0, s_k) + self.sat_true[k]
        for j, pp, pn, np_, nn in self.pairs_of[k]:
            i = j - k
            s_j = state[i + 1]
            a_j = abs(s_j)
            nxt = s_j + pp - pn
            false_state[i] = nxt
            a = abs(nxt)
            false_m += a - a_j
            false_cost += (pp + pn - a + a_j) // 2
            nxt = s_j + np_ - nn
            true_state[i] = nxt
            a = abs(nxt)
            true_m += a - a_j
            true_cost += (np_ + nn - a + a_j) // 2
        false_state[0] = false_m
        true_state[0] = true_m
        return ((0, tuple(false_state), false_cost),
                (1, tuple(true_state), true_cost))

    def rough_bound(self, state: Tuple[int, ...], value_top, k: int):
        return value_top + state[0] + self.rest[k]


def heaviest_first(formula: CnfFormula) -> Tuple[int, ...]:
    """Variables (0-based) by descending total weight of the clauses that
    contain them; ties keep index order."""
    weight = [0] * formula.n_vars
    for wt, lits in formula.clauses:
        a = abs(lits[0])
        weight[a - 1] += wt
        if len(lits) == 2 and abs(lits[1]) != a:
            weight[abs(lits[1]) - 1] += wt
    # a stable sort, reversed stably: equal weights stay in index order
    return tuple(sorted(range(formula.n_vars), key=weight.__getitem__,
                        reverse=True))


def load(text: str):
    from ..instances import parse_wcnf

    formula = parse_wcnf(text)
    order = heaviest_first(formula)
    problem = Max2Sat(relabel_formula(formula, order))
    problem.order = order
    return problem, Max2SatRelaxation()
