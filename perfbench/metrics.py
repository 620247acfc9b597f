"""Aggregation rules shared by the benchmark and its tests."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

# a tail percentile needs at least this many samples above it
TAIL_BEYOND = 10


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> int:
    """The highest whole percentile p with at least `beyond` of n samples
    above it, taking the p-th percentile as the nearest-rank sample: rank
    ceil(p * n / 100), counted from 1 in ascending order."""
    if n <= beyond:
        raise ValueError(f"a tail needs more than {beyond} samples, got {n}")
    return 100 * (n - beyond) // n


def quantile(samples: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile, 0 < q < 1.

    A weighted mean of all order statistics, with Beta(q(n+1), (1-q)(n+1))
    weights over the sample ranks.  It estimates the same quantile as the
    nearest-rank sample but does not rest on one sample, so one slow solve
    near the middle moves a median much less.
    """
    ordered = sorted(samples)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
                        - log_beta)

    steps = 64                        # Simpson's rule per rank interval
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        inner = sum((4 if k % 2 else 2) * density(lo + k * h)
                    for k in range(1, steps))
        weights.append((density(lo) + inner + density(lo + steps * h)) * h / 3)
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


@dataclass
class Tally:
    """Attempted and failed solves, with the reason for every failure."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def record(self, failure: Optional[str]) -> None:
        self.attempted += 1
        if failure is not None:
            self.failures.append(failure)


def check_solve(ddbnb, problem, outcome, reference) -> Optional[str]:
    """Why this solve is wrong, or None when it proved the reference optimum.

    The solve must end OPTIMAL, its assignment must replay through
    `evaluate_assignment` to the reported value, and that value must equal
    the stored reference optimum.
    """
    if outcome.status is not ddbnb.Status.OPTIMAL:
        return f"status {outcome.status.value}"
    if outcome.assignment is None:
        return "no assignment"
    replayed = ddbnb.evaluate_assignment(problem, outcome.assignment)
    if replayed != outcome.value:
        return f"assignment replays to {replayed}, reported {outcome.value}"
    if outcome.value != reference:
        return f"value {outcome.value}, reference optimum {reference}"
    return None
