"""Exact linear programming on integer equality systems, for the oracle.

The oracle asks two questions of a system rows · x = rhs, x ≥ 0 with
integer entries: one feasible vertex (solve_lp, for a witness's
coefficients) and the least and greatest value of one integer objective
(objective_range, for the bounds of a coordinate in the lattice-point
descent).  Nothing else is offered.

Two-phase primal simplex on a fraction-free integer tableau (Bareiss,
Math. Comp. 22, 1968).  Every row shares one positive denominator d, so
the true tableau is T / d.  A pivot on p = T[r][c] keeps row r as it is,
turns every other row into (p*a - f*b) // d, where the division is exact
because each entry is a minor of the input, and then sets d = p.  The
ratio test cross-multiplies, and the reduced costs ride along as one more
integer row.  Bland's rule (always the least eligible index) makes it
immune to cycling, and every comparison is exact, so "infeasible" is a
definitive answer rather than a numerical judgment.

Phase one (find a feasible basis, pivot the artificials out, drop
redundant rows) is one private routine with two callers: solve_lp reads
the vertex off its basis, and objective_range runs two phase twos from
it, one per direction of the objective, so a minimum and a maximum over
the same rows cost a single phase one.  Only the answers are built as
Fraction values.  Problem sizes here are tiny (dozens of columns at
most); clarity wins over sparse cleverness.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

# _minimize's outcomes; phase one and a bounded objective always end OPTIMAL
OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


def _pivot(
    tableau: list[list[int]], basis: list[int], row: int, col: int, denom: int
) -> int:
    """Pivot on tableau[row][col] in place and return the new denominator.

    Rows of the tableau past len(basis) (the reduced costs) are updated
    like any other non-pivot row.
    """
    pivot_row = tableau[row]
    pivot = pivot_row[col]
    for r, other in enumerate(tableau):
        if r == row:
            continue
        factor = other[col]
        if factor:
            tableau[r] = [
                (pivot * a - factor * b) // denom for a, b in zip(other, pivot_row)
            ]
        elif pivot != denom:
            tableau[r] = [pivot * a // denom for a in other]
    basis[row] = col
    return pivot


def _minimize(
    tableau: list[list[int]], basis: list[int], cost: list[int], ncols: int, denom: int
) -> tuple[str, int]:
    """Run simplex iterations in place; cost has one entry per column.

    Returns the status and the denominator the tableau ends with.
    """
    m = len(basis)
    reduced = [denom * c for c in cost]
    for i, b in enumerate(basis):
        weight = cost[b]
        if weight:
            reduced = [r - weight * t for r, t in zip(reduced, tableau[i])]
    tableau.append(reduced)
    while True:
        reduced = tableau[m]
        enter = next((j for j in range(ncols) if reduced[j] < 0), None)
        if enter is None:
            status = OPTIMAL
            break
        # least ratio rhs / coeff over positive coefficients, compared by
        # cross-multiplying; ties go to the least basic index
        leave = None
        for i in range(m):
            coeff = tableau[i][enter]
            if coeff > 0:
                rhs = tableau[i][-1]
                if leave is None:
                    leave, best_rhs, best_coeff = i, rhs, coeff
                    continue
                lhs, best = rhs * best_coeff, best_rhs * coeff
                if lhs < best or (lhs == best and basis[i] < basis[leave]):
                    leave, best_rhs, best_coeff = i, rhs, coeff
        if leave is None:
            status = UNBOUNDED
            break
        denom = _pivot(tableau, basis, leave, enter, denom)
    tableau.pop()
    return status, denom


def _columns(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> int:
    """The column count of rows · x = rhs, after checking every shape."""
    n = len(rows[0]) if rows else 0
    if any(len(row) != n for row in rows):
        raise ValueError("constraint rows have inconsistent lengths")
    if len(rhs) != len(rows):
        raise ValueError("right-hand side length does not match row count")
    return n


def _feasible_basis(
    rows: Sequence[Sequence[int]], rhs: Sequence[int], n: int
) -> tuple[list[list[int]], list[int], int] | None:
    """A basic feasible solution of rows · x = rhs, x ≥ 0, or None if there is none.

    Phase one starts from an artificial basis and minimizes the sum of
    the artificials.  Artificials still basic at level zero are pivoted
    out, and rows in which no original column can replace them are
    redundant constraints and get dropped.  Returns the tableau over the
    n original columns plus the right-hand side, its basis and its
    denominator.
    """
    m = len(rows)
    tableau: list[list[int]] = []
    for i, (row, beta) in enumerate(zip(rows, rhs)):
        if beta < 0:
            row, beta = [-a for a in row], -beta
        tableau.append([*row, *(int(j == i) for j in range(m)), beta])
    basis = list(range(n, n + m))
    phase1_cost = [0] * n + [1] * m + [0]
    status, denom = _minimize(tableau, basis, phase1_cost, n + m, 1)
    assert status == OPTIMAL, "phase one is always bounded below by zero"
    if any(tableau[i][-1] for i in range(m) if basis[i] >= n):
        return None

    # A negative pivot would leave a negative denominator, so the tableau
    # is negated.
    drop: set[int] = set()
    for i in range(m):
        if basis[i] < n:
            continue
        col = next((j for j in range(n) if tableau[i][j] != 0), None)
        if col is None:
            drop.add(i)
            continue
        denom = _pivot(tableau, basis, i, col, denom)
        if denom < 0:
            denom = -denom
            tableau = [[-x for x in row] for row in tableau]
    if drop:
        tableau = [row for i, row in enumerate(tableau) if i not in drop]
        basis = [b for i, b in enumerate(basis) if i not in drop]
    return [row[:n] + [row[-1]] for row in tableau], basis, denom


def solve_lp(
    rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> tuple[Fraction, ...] | None:
    """A vertex of rows · x = rhs, x ≥ 0, or None when the system is infeasible.

    The vertex is the basic feasible solution phase one ends on, which
    is deterministic for fixed input.
    """
    n = _columns(rows, rhs)
    start = _feasible_basis(rows, rhs, n)
    if start is None:
        return None
    tableau, basis, denom = start
    values = {b: tableau[i][-1] for i, b in enumerate(basis)}
    return tuple(Fraction(values.get(j, 0), denom) for j in range(n))


def objective_range(
    rows: Sequence[Sequence[int]],
    rhs: Sequence[int],
    objective: Sequence[int],
) -> tuple[Fraction, Fraction] | None:
    """The least and greatest objective · x over rows · x = rhs, x ≥ 0.

    None means the system is infeasible.  One phase one finds a feasible
    basis; the minimization of objective starts from it, and the
    maximization (a minimization of -objective) starts from that
    minimum's optimal basis.  The feasible set must be bounded, as it is
    when one row fixes the sum of the variables.
    """
    n = _columns(rows, rhs)
    if len(objective) != n:
        raise ValueError("objective length does not match column count")
    start = _feasible_basis(rows, rhs, n)
    if start is None:
        return None
    tableau, basis, denom = start
    bounds = []
    for cost in (list(objective), [-c for c in objective]):
        status, denom = _minimize(tableau, basis, cost + [0], n, denom)
        assert status == OPTIMAL, "the feasible set is bounded"
        value = sum(cost[b] * tableau[i][-1] for i, b in enumerate(basis))
        bounds.append(Fraction(value, denom))
    low, high = bounds
    return low, -high
