"""From-scratch Hungarian method for the linear assignment problem.

The paper's Algorithm 1 solves single-application mapping exactly with the
Hungarian method [Kuhn 1955] in O(n^3).  We implement the modern
shortest-augmenting-path formulation (Jonker--Volkgenant style, the same
scheme used by ``scipy.optimize.linear_sum_assignment``): one Dijkstra-like
search per row, maintaining dual potentials ``u``/``v`` so that reduced
costs stay non-negative.  Rectangular matrices (fewer rows than columns —
"choose which tiles to use" variants) are supported directly.

The implementation is validated against SciPy on thousands of random
instances in the test suite, including degenerate (tied) costs.

The solve dispatches through the solver-kernel backends of
`repro.core.permkernels`: the self-compiled C kernel
(`repro.core.cc_solvers`) when it loads, else :func:`_solve_reference`,
which the kernel transliterates with the identical reduced cost
expression and ascending-column first-minimum tie-break, so degenerate
instances pick the same assignment on both backends (pinned by the
property suite).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import cc_solvers, permkernels
from repro.obs import reqtrace

__all__ = ["AssignmentResult", "solve_assignment"]


@dataclass(frozen=True)
class AssignmentResult:
    """An optimal assignment: ``col_of_row[i]`` is the column given to row i."""

    col_of_row: np.ndarray
    total_cost: float

    @property
    def n_rows(self) -> int:
        return self.col_of_row.size

    def as_pairs(self) -> list[tuple[int, int]]:
        """``(row, column)`` pairs of the assignment."""
        return [(i, int(j)) for i, j in enumerate(self.col_of_row)]


def solve_assignment(cost: np.ndarray) -> AssignmentResult:
    """Minimise ``sum(cost[i, col_of_row[i]])`` over injective row->col maps.

    Parameters
    ----------
    cost:
        ``(n, m)`` matrix with ``n <= m``; entries must be finite.

    Raises
    ------
    ValueError
        If the matrix is empty, non-finite, or has more rows than columns.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError(f"cost must be a 2-D matrix, got shape {cost.shape}")
    n, m = cost.shape
    if n == 0 or m == 0:
        raise ValueError("cost matrix must be non-empty")
    if n > m:
        raise ValueError(
            f"cost matrix has more rows ({n}) than columns ({m}); "
            "transpose it or pad with dummy columns"
        )
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")

    with reqtrace.span("hungarian", rows=n, cols=m):
        return _solve(cost, n, m)


def _solve(cost: np.ndarray, n: int, m: int) -> AssignmentResult:
    """Backend-dispatching solve; both paths are bit-identical."""
    lib = permkernels.compiled_library()
    if lib is None:
        return _solve_reference(cost, n, m)
    return _result(cost, _solve_cc(lib, cost, n, m))


def _result(cost: np.ndarray, col_of_row: np.ndarray) -> AssignmentResult:
    total = float(cost[np.arange(col_of_row.size), col_of_row].sum())
    col_of_row.setflags(write=False)
    return AssignmentResult(col_of_row=col_of_row, total_cost=total)


def _solve_cc(lib, cost: np.ndarray, n: int, m: int) -> np.ndarray:
    col_of_row = np.empty(n, dtype=np.int64)
    status = cc_solvers.cc_hungarian(
        lib,
        np.ascontiguousarray(cost),
        col_of_row,
        np.empty(m, dtype=np.int64),
        np.empty(n),
        np.empty(m),
        np.empty(m),
        np.empty(m, dtype=np.int64),
    )
    if status != 0:  # pragma: no cover - finite input is validated above
        raise ValueError("assignment problem is infeasible")
    return col_of_row


def _solve_reference(cost: np.ndarray, n: int, m: int) -> AssignmentResult:
    """The pure-Python solve: one Dijkstra search per row over a visited mask.

    ``argmin`` over the unvisited columns' shortest distances picks the
    ascending-column first minimum, the tie-break the C kernel copies.
    """
    col_of_row = np.full(n, -1, dtype=np.int64)
    row_of_col = np.full(m, -1, dtype=np.int64)
    u = np.zeros(n)  # row potentials
    v = np.zeros(m)  # column potentials
    # `parent[j]` is the row from which column j was reached in the current
    # shortest-path tree; used to trace the augmenting path back.
    parent = np.full(m, -1, dtype=np.int64)

    for cur_row in range(n):
        # Dijkstra over columns: find the cheapest augmenting path from
        # cur_row to an unassigned column under reduced costs.
        shortest = np.full(m, np.inf)
        in_row_tree = np.zeros(n, dtype=bool)
        unvisited = np.ones(m, dtype=bool)
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            in_row_tree[i] = True
            reduced = min_val + cost[i] - u[i] - v
            better = unvisited & (reduced < shortest)
            shortest[better] = reduced[better]
            parent[better] = i
            candidates = np.where(unvisited, shortest, np.inf)
            j = int(np.argmin(candidates))
            min_val = float(candidates[j])
            if not np.isfinite(min_val):  # pragma: no cover - finite input
                raise ValueError("assignment problem is infeasible")
            unvisited[j] = False
            if row_of_col[j] == -1:
                sink = j
            else:
                i = int(row_of_col[j])

        # Update dual potentials so all reduced costs stay non-negative.
        u[cur_row] += min_val
        others = in_row_tree.copy()
        others[cur_row] = False
        if others.any():
            rows = np.flatnonzero(others)
            u[rows] += min_val - shortest[col_of_row[rows]]
        cols = np.flatnonzero(~unvisited)
        v[cols] -= min_val - shortest[cols]

        # Augment: flip matched/unmatched edges along the path to the sink.
        j = sink
        while True:
            i = int(parent[j])
            row_of_col[j] = i
            col_of_row[i], j = j, col_of_row[i]
            if i == cur_row:
                break
    return _result(cost, col_of_row)
