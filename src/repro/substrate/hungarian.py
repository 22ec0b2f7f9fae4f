"""Minimum-cost bipartite assignment (Hungarian algorithm).

Solves the rectangular assignment problem: given an ``n x m`` cost matrix
(``n <= m``), match every row to a distinct column minimizing total cost.
Forbidden pairs are encoded as ``math.inf``; if no finite-cost complete
assignment exists the solver reports infeasibility.

This is the potentials + shortest-augmenting-path formulation (a.k.a. the
Jonker–Volgenant style Kuhn–Munkres), ``O(n^2 m)``.  It is the substrate
behind the Fig. 7 reduction of optimal 1-segment routing (Problem 3 with
``K = 1``) to weighted bipartite matching.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.substrate.deadline import check

__all__ = ["hungarian", "AssignmentInfeasible"]


class AssignmentInfeasible(Exception):
    """No complete finite-cost assignment exists."""


def hungarian(cost: Sequence[Sequence[float]]) -> tuple[float, list[int]]:
    """Solve the rectangular min-cost assignment problem.

    Parameters
    ----------
    cost:
        ``cost[i][j]`` is the cost of assigning row ``i`` to column ``j``;
        ``math.inf`` forbids the pair.  Requires ``len(cost) <=
        len(cost[0])`` (fewer rows than columns).

    Returns
    -------
    (total, assignment):
        ``assignment[i]`` is the column matched to row ``i``; ``total`` is
        the summed cost.

    Raises
    ------
    AssignmentInfeasible
        If some row cannot be matched at finite cost.
    """
    n = len(cost)
    if n == 0:
        return 0.0, []
    m = len(cost[0])
    if any(len(row) != m for row in cost):
        raise ValueError("cost matrix rows have unequal lengths")
    if n > m:
        raise ValueError(f"need rows <= columns, got {n} x {m}")

    INF = math.inf
    # 1-based internal arrays, the classic formulation.
    u = [0.0] * (n + 1)  # row potentials
    v = [0.0] * (m + 1)  # column potentials
    p = [0] * (m + 1)    # p[j] = row matched to column j (0 = free)
    way = [0] * (m + 1)

    for i in range(1, n + 1):
        check()  # one deadline check per row
        p[0] = i
        j0 = 0
        minv = [INF] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = -1
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            if not math.isfinite(delta):
                raise AssignmentInfeasible(
                    f"row {i - 1} cannot be assigned at finite cost"
                )
            for j in range(m + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        # augment along the alternating path found
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    assignment = [-1] * n
    total = 0.0
    for j in range(1, m + 1):
        if p[j]:
            assignment[p[j] - 1] = j - 1
            total += cost[p[j] - 1][j - 1]
    if any(a < 0 for a in assignment):  # pragma: no cover - defensive
        raise AssignmentInfeasible("internal error: incomplete assignment")
    return total, assignment
