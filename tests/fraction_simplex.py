"""Reference simplex on a fractions.Fraction tableau, for tests only.

This is the textbook form of idpoly.simplex: the same two phases, the
same Bland's rule and tie-break, but every entry is a Fraction and every
pivot divides the pivot row through.  It imports nothing from idpoly and
keeps the general interface (an optional objective, unbounded reports),
so the differential tests compare the integer tableau against an
independent solver.  Its objective_range is two independent solves, with
no shared phase one.  integer_vertex and integer_range give its answers
in idpoly.simplex's integer form, so the reference can stand in for the
integer tableau wherever idpoly calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, lcm
from typing import Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    """Outcome of a solve: status plus, when optimal, value and a vertex."""

    status: str
    objective: Fraction | None = None
    solution: tuple[Fraction, ...] | None = None


def _pivot(tableau: list[list], basis: list[int], row: int, col: int) -> None:
    pivot = tableau[row][col]
    tableau[row] = [entry / pivot for entry in tableau[row]]
    pivot_row = tableau[row]
    for r, other in enumerate(tableau):
        if r == row:
            continue
        factor = other[col]
        if factor:
            tableau[r] = [a - factor * b for a, b in zip(other, pivot_row)]
    basis[row] = col


def _reduced_costs(tableau: list[list], basis: list[int], cost: list) -> list:
    reduced = list(cost)
    for i, b in enumerate(basis):
        weight = cost[b]
        if weight:
            row = tableau[i]
            for j in range(len(reduced)):
                if row[j]:
                    reduced[j] -= weight * row[j]
    return reduced


def _minimize(tableau: list[list], basis: list[int], cost: list, ncols: int) -> str:
    reduced = _reduced_costs(tableau, basis, cost)
    while True:
        enter = next((j for j in range(ncols) if reduced[j] < 0), None)
        if enter is None:
            return OPTIMAL
        leave = None
        best_ratio = None
        for i, row in enumerate(tableau):
            coeff = row[enter]
            if coeff > 0:
                ratio = row[-1] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave is None:
            return UNBOUNDED
        _pivot(tableau, basis, leave, enter)
        reduced = _reduced_costs(tableau, basis, cost)


def solve_lp(
    rows: Sequence[Sequence[object]],
    rhs: Sequence[object],
    objective: Sequence[object] | None = None,
) -> LPResult:
    """Minimize objective · x subject to rows · x = rhs, x ≥ 0."""
    m = len(rows)
    n = len(rows[0]) if m else (len(objective) if objective else 0)
    zero = Fraction(0)
    one = Fraction(1)
    body: list[list] = []
    for row, beta in zip(rows, rhs):
        r = [Fraction(x) for x in row]
        b = Fraction(beta)
        if b < 0:
            r = [-x for x in r]
            b = -b
        body.append(r + [b])

    if m == 0:
        if objective is not None and any(Fraction(c) < 0 for c in objective):
            return LPResult(UNBOUNDED)
        return LPResult(OPTIMAL, zero, tuple(zero for _ in range(n)))

    tableau = [
        row[:-1] + [one if j == i else zero for j in range(m)] + [row[-1]]
        for i, row in enumerate(body)
    ]
    basis = list(range(n, n + m))
    phase1_cost = [zero] * n + [one] * m + [zero]
    status = _minimize(tableau, basis, phase1_cost, n + m)
    assert status == OPTIMAL
    residue = sum((tableau[i][-1] for i in range(m) if basis[i] >= n), zero)
    if residue != 0:
        return LPResult(INFEASIBLE)

    drop: list[int] = []
    for i in range(m):
        if basis[i] < n:
            continue
        col = next((j for j in range(n) if tableau[i][j] != 0), None)
        if col is None:
            drop.append(i)
        else:
            _pivot(tableau, basis, i, col)
    if drop:
        tableau = [row for i, row in enumerate(tableau) if i not in set(drop)]
        basis = [b for i, b in enumerate(basis) if i not in set(drop)]
    tableau = [row[:n] + [row[-1]] for row in tableau]

    if objective is not None:
        cost = [Fraction(c) for c in objective] + [zero]
        status = _minimize(tableau, basis, cost, n)
        if status == UNBOUNDED:
            return LPResult(UNBOUNDED)
    else:
        cost = [zero] * (n + 1)

    values = {basis[i]: tableau[i][-1] for i in range(len(basis))}
    solution = tuple(values.get(j, zero) for j in range(n))
    value = sum((cost[j] * solution[j] for j in range(n)), zero)
    return LPResult(OPTIMAL, value, solution)


def objective_range(
    rows: Sequence[Sequence[object]],
    rhs: Sequence[object],
    objective: Sequence[object],
) -> tuple[Fraction, Fraction] | None:
    """Least and greatest objective · x from two solves, None if infeasible."""
    low = solve_lp(rows, rhs, objective)
    if low.status == INFEASIBLE:
        return None
    high = solve_lp(rows, rhs, [-Fraction(c) for c in objective])
    assert low.status == high.status == OPTIMAL
    return low.objective, -high.objective


def integer_vertex(
    rows: Sequence[Sequence[object]], rhs: Sequence[object]
) -> tuple[int, tuple[int, ...]] | None:
    """solve_lp's vertex as (denominator, numerators) over the least denominator."""
    vertex = solve_lp(rows, rhs).solution
    if vertex is None:
        return None
    denominator = lcm(*(x.denominator for x in vertex))
    return denominator, tuple(int(x * denominator) for x in vertex)


def integer_range(
    rows: Sequence[Sequence[object]],
    rhs: Sequence[object],
    objective: Sequence[object],
) -> tuple[int, int] | None:
    """(⌈min⌉, ⌊max⌋) of objective_range, None if infeasible."""
    found = objective_range(rows, rhs, objective)
    if found is None:
        return None
    low, high = found
    return ceil(low), floor(high)
