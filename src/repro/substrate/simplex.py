"""A dense primal simplex solver.

Solves linear programs of the form::

    maximize    c . x
    subject to  A x <= b,   b >= 0,   x >= 0

which is exactly the shape of the Section IV-C relaxation: the
slack-extended system has an immediately feasible all-slack basis, so no
phase-1 is needed.  Bland's rule guards against cycling on the highly
degenerate routing LPs.

The solver is intentionally simple and dense (numpy tableau); routing
relaxations at the paper's simulated scale (``M = 60``, ``T = 25``) have a
few hundred rows and around a thousand columns, well within its reach.
scipy's HiGHS is used in the tests as an independent oracle, never in the
library itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.substrate.deadline import check

__all__ = ["LinearProgram", "SimplexResult", "simplex_solve"]


@dataclass
class SimplexResult:
    """Outcome of a simplex solve."""

    status: str  #: "optimal", "unbounded" or "iteration_limit"
    objective: float
    x: np.ndarray

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


@dataclass
class LinearProgram:
    """Incremental builder for ``max c.x  s.t.  A x <= b, x >= 0``.

    Variables are referred to by arbitrary hashable keys; rows are sparse
    mappings from variable key to coefficient.  :meth:`solve` densifies and
    runs :func:`simplex_solve`.
    """

    _var_index: dict[object, int] = field(default_factory=dict)
    _objective: dict[object, float] = field(default_factory=dict)
    _rows: list[dict[object, float]] = field(default_factory=list)
    _rhs: list[float] = field(default_factory=list)

    def variable(self, key: object, objective: float = 0.0) -> object:
        """Declare (or re-reference) a variable, adding to its objective
        coefficient."""
        if key not in self._var_index:
            self._var_index[key] = len(self._var_index)
        if objective:
            self._objective[key] = self._objective.get(key, 0.0) + objective
        return key

    def add_le(self, coefficients: Mapping[object, float], rhs: float) -> None:
        """Add a constraint ``sum coeff[k] * x[k] <= rhs`` (``rhs >= 0``)."""
        if rhs < 0:
            raise ValueError(f"rhs must be nonnegative for slack-basis start, got {rhs}")
        for k in coefficients:
            self.variable(k)
        self._rows.append(dict(coefficients))
        self._rhs.append(float(rhs))

    @property
    def n_variables(self) -> int:
        return len(self._var_index)

    @property
    def n_constraints(self) -> int:
        return len(self._rows)

    def solve(self, max_iterations: Optional[int] = None) -> tuple[SimplexResult, dict[object, float]]:
        """Solve and return ``(result, values-by-key)``."""
        n = len(self._var_index)
        m = len(self._rows)
        A = np.zeros((m, n))
        for ri, row in enumerate(self._rows):
            for k, coef in row.items():
                A[ri, self._var_index[k]] = coef
        b = np.array(self._rhs, dtype=float)
        c = np.zeros(n)
        for k, coef in self._objective.items():
            c[self._var_index[k]] = coef
        result = simplex_solve(c, A, b, max_iterations=max_iterations)
        values = {k: float(result.x[i]) for k, i in self._var_index.items()}
        return result, values


def simplex_solve(
    c: Sequence[float],
    A: Sequence[Sequence[float]],
    b: Sequence[float],
    max_iterations: Optional[int] = None,
    tol: float = 1e-9,
) -> SimplexResult:
    """Primal simplex with Bland's rule for ``max c.x, Ax <= b, x >= 0``.

    ``b`` must be componentwise nonnegative so the slack basis is feasible.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape if A.size else (len(b), len(c))
    if A.size == 0:
        A = A.reshape(m, n)
    if (b < -tol).any():
        raise ValueError("all right-hand sides must be nonnegative")
    if max_iterations is None:
        max_iterations = 50 * (m + n + 10)

    # Tableau: rows 0..m-1 constraints, row m objective (reduced costs of a
    # maximization stored negated so we pivot while any entry < -tol).
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = A
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[m, :n] = -c
    basis = list(range(n, n + m))

    for _ in range(max_iterations):
        check()  # one deadline check per pivot
        row_obj = tableau[m, : n + m]
        # Bland's rule: entering variable = lowest index with negative
        # reduced cost.
        entering = -1
        for j in range(n + m):
            if row_obj[j] < -tol:
                entering = j
                break
        if entering < 0:
            x = np.zeros(n + m)
            for i, bi in enumerate(basis):
                x[bi] = tableau[i, -1]
            return SimplexResult(
                status="optimal",
                objective=float(tableau[m, -1]),
                x=x[:n].copy(),
            )
        col = tableau[:m, entering]
        ratios = np.full(m, np.inf)
        positive = col > tol
        ratios[positive] = tableau[:m, -1][positive] / col[positive]
        if not positive.any():
            return SimplexResult(status="unbounded", objective=np.inf, x=np.zeros(n))
        best = np.min(ratios)
        # Bland tie-break on leaving variable: smallest basis index.
        leaving = min(
            (basis[i], i) for i in range(m) if positive[i] and ratios[i] <= best + tol
        )[1]
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering

    x = np.zeros(n + m)
    for i, bi in enumerate(basis):
        x[bi] = tableau[i, -1]
    return SimplexResult(
        status="iteration_limit",
        objective=float(tableau[m, -1]),
        x=x[:len(c)].copy(),
    )


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """In-place Gauss-Jordan pivot on ``tableau[row, col]``."""
    tableau[row] /= tableau[row, col]
    pivot_row = tableau[row]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * pivot_row
