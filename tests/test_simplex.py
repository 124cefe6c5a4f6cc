from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idpoly.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, objective_range, solve_lp

from fraction_simplex import solve_lp as reference_solve_lp


def _as_fractions(values):
    return None if values is None else [Fraction(x) for x in values]


def _solve_with_fraction_entries(rows, rhs, objective=None):
    return solve_lp(
        [_as_fractions(row) for row in rows],
        _as_fractions(rhs),
        objective=_as_fractions(objective),
    )


@pytest.fixture(
    params=[solve_lp, _solve_with_fraction_entries], ids=["given", "fractions"]
)
def solve(request):
    """solve_lp on the input as given, or with every entry a Fraction.

    Fraction entries go through the denominator-clearing path instead of
    the integer fast path; the answers must not change.
    """
    return request.param


def test_feasibility_basic(solve):
    # x1 + x2 = 1 with x >= 0 is feasible
    res = solve([[1, 1]], [1])
    assert res.status == OPTIMAL
    assert sum(res.solution) == 1
    assert all(x >= 0 for x in res.solution)


def test_infeasible_negative_rhs_balance(solve):
    # x1 = 1 and x1 = 2 cannot both hold
    res = solve([[1], [1]], [1, 2])
    assert res.status == INFEASIBLE


def test_unbounded_direction(solve):
    # minimize -x1 subject to x1 - x2 = 0: both can grow forever
    res = solve([[1, -1]], [0], objective=[-1, 0])
    assert res.status == UNBOUNDED


def test_no_constraints_zero_objective(solve):
    res = solve([], [], objective=[1, 1])
    assert res.status == OPTIMAL
    assert res.solution == (Fraction(0), Fraction(0))


def test_no_constraints_negative_objective_unbounded(solve):
    res = solve([], [], objective=[-1])
    assert res.status == UNBOUNDED


def test_exact_thirds(solve):
    # 3x = 1 forces x = 1/3 exactly; float arithmetic would not survive
    # the equality replay below
    res = solve([[3]], [1])
    assert res.status == OPTIMAL
    assert res.solution == (Fraction(1, 3),)
    assert 3 * res.solution[0] == 1


def test_optimal_value_and_solution(solve):
    # minimize x1 + x2 with x1 + 2*x2 = 2: best is x = (0, 1)
    res = solve([[1, 2]], [2], objective=[1, 1])
    assert res.status == OPTIMAL
    assert res.objective == 1
    assert res.solution == (Fraction(0), Fraction(1))


def test_solution_satisfies_constraints_exactly(solve):
    rows = [[1, 1, 1, 0], [0, 1, 2, 1], [1, 0, 0, 3]]
    rhs = [3, 4, 2]
    res = solve(rows, rhs, objective=[1, 2, 0, 1])
    assert res.status == OPTIMAL
    for row, b in zip(rows, rhs):
        assert sum(Fraction(a) * x for a, x in zip(row, res.solution)) == b


def test_fractional_input(solve):
    res = solve([[Fraction(1, 2), 1]], [Fraction(3, 4)])
    assert res.status == OPTIMAL
    lhs = Fraction(1, 2) * res.solution[0] + res.solution[1]
    assert lhs == Fraction(3, 4)


def test_shape_validation(solve):
    with pytest.raises(ValueError, match="inconsistent lengths"):
        solve([[1, 2], [1]], [1, 1])
    with pytest.raises(ValueError, match="right-hand side"):
        solve([[1, 2]], [1, 2])
    with pytest.raises(ValueError, match="objective length"):
        solve([[1, 2]], [1], objective=[1])


def test_membership_style_system(solve):
    # is (1,1,1,1,1,1,1) at degree 3 a combination of the six rows of the
    # counterexample matrix?  u4 homogenizing row makes it unique: all 1/2
    vertices = [
        (1, 1, 0, 0, 0, 0, 0),
        (1, 0, 1, 0, 0, 0, 0),
        (0, 1, 1, 0, 0, 0, 1),
        (0, 0, 0, 1, 1, 0, 0),
        (0, 0, 0, 1, 0, 1, 0),
        (0, 0, 0, 0, 1, 1, 1),
    ]
    n = 7
    rows = [[v[i] for v in vertices] for i in range(n)]
    rows.append([1] * len(vertices))
    rhs = [1] * n + [3]
    res = solve(rows, rhs)
    assert res.status == OPTIMAL
    assert res.solution == (Fraction(1, 2),) * 6


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    m=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=1, max_value=5),
)
def test_feasible_by_construction_stays_feasible(data, m, n):
    # build rhs = A @ x for a known nonnegative x, so the system is
    # feasible and the solver must find some exact solution
    entry = st.integers(min_value=-5, max_value=5)
    rows = data.draw(
        st.lists(
            st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m
        )
    )
    x = data.draw(st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n))
    rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
    res = solve_lp(rows, rhs)
    assert res.status == OPTIMAL
    for row, b in zip(rows, rhs):
        assert sum(Fraction(a) * s for a, s in zip(row, res.solution)) == b
    assert all(s >= 0 for s in res.solution)


@st.composite
def lp_systems(draw):
    """Small equality systems with integer entries.

    Half are feasible by construction and half get a random right-hand
    side, so infeasible systems turn up; some carry a redundant row, which
    phase one has to drop; an objective, when drawn, can be unbounded.
    """
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=5))
    entry = st.integers(min_value=-4, max_value=4)
    rows = draw(
        st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)
    )
    if draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=m - 1))
        j = draw(st.integers(min_value=0, max_value=m - 1))
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows.append([a * u + b * v for u, v in zip(rows[i], rows[j])])
    if draw(st.booleans()):
        x = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
    else:
        rhs = draw(
            st.lists(st.integers(-6, 6), min_size=len(rows), max_size=len(rows))
        )
    objective = draw(
        st.none() | st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    )
    return rows, rhs, objective


@settings(max_examples=300, deadline=None)
@given(system=lp_systems())
def test_integer_tableau_matches_fraction_reference(system):
    # the pivot sequence is the same, so status, value and vertex agree
    rows, rhs, objective = system
    ours = solve_lp(rows, rhs, objective)
    ref = reference_solve_lp(rows, rhs, objective)
    assert (ours.status, ours.objective, ours.solution) == (
        ref.status,
        ref.objective,
        ref.solution,
    )


@settings(max_examples=200, deadline=None)
@given(system=lp_systems(), data=st.data())
def test_fraction_input_matches_fraction_reference(system, data):
    # scaling rows to clear denominators may change the pivots, so only
    # status and optimal value must agree; the vertex must be exact
    rows, rhs, objective = system
    denominator = st.integers(min_value=1, max_value=4)
    qs = data.draw(st.lists(denominator, min_size=len(rows), max_size=len(rows)))
    rows = [[Fraction(a, q) for a in row] for row, q in zip(rows, qs)]
    rhs = [Fraction(b, q) for b, q in zip(rhs, qs)]
    if objective is not None:
        objective = [Fraction(c, data.draw(denominator)) for c in objective]
    ours = solve_lp(rows, rhs, objective)
    ref = reference_solve_lp(rows, rhs, objective)
    assert ours.status == ref.status
    assert ours.objective == ref.objective
    if ours.status != OPTIMAL:
        return
    for row, b in zip(rows, rhs):
        assert sum(a * s for a, s in zip(row, ours.solution)) == b
    assert all(s >= 0 for s in ours.solution)
    cost = objective or [0] * len(ours.solution)
    assert sum(c * s for c, s in zip(cost, ours.solution)) == ours.objective


def test_infeasible_despite_objective():
    # the first row forces x = 0, which breaks the second; an optimum
    # at (0, 1) would violate the first row
    rows = [[-2, -3], [-2, 1]]
    res = solve_lp(rows, [0, 1], objective=[-2, 2])
    assert res.status == INFEASIBLE
    assert reference_solve_lp(rows, [0, 1], objective=[-2, 2]).status == INFEASIBLE


def test_degenerate_tie_break_matches_reference():
    # rows tie in the ratio test here, and the vertex the solve ends on
    # depends on which leaves: the one with the least basic index
    rows = [
        [0, 0, -4, -4, 0],
        [1, -1, -3, -1, 0],
        [-1, 0, -2, 1, 0],
        [3, 0, 4, 0, -4],
    ]
    rhs = [-8, -8, -4, -4]
    res = solve_lp(rows, rhs)
    assert res == reference_solve_lp(rows, rhs)
    assert res.solution == (6, 12, 0, 2, Fraction(11, 2))


@st.composite
def bounded_systems(draw):
    """Integer equality systems with a row sum(x) = k, so every objective is bounded.

    The sum row sits at a random position among random rows.  Some systems
    are feasible by construction from a point with zero entries (phase one
    then ends degenerate), others get a random right-hand side and are
    often infeasible; some carry a redundant row.  Half of the objectives
    are a combination of the rows, constant on the feasible set, so the
    minimum equals the maximum.
    """
    n = draw(st.integers(min_value=1, max_value=5))
    entry = st.integers(min_value=-4, max_value=4)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=3))
    rows.insert(draw(st.integers(0, len(rows))), [1] * n)
    if draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows.append([a * u + b * v for u, v in zip(rows[i], rows[j])])
    if draw(st.booleans()):
        x = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
    else:
        rhs = [
            draw(st.integers(0, 6)) if row == [1] * n else draw(st.integers(-6, 6))
            for row in rows
        ]
    if draw(st.booleans()):
        objective = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    else:
        weights = draw(
            st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows))
        )
        objective = [
            sum(w * row[j] for w, row in zip(weights, rows)) for j in range(n)
        ]
    return rows, rhs, objective


@settings(max_examples=300, deadline=None)
@given(system=bounded_systems())
@example(system=([[1, 1], [1, -1]], [2, 4], [1, 0]))  # infeasible
@example(system=([[1, 1, 1], [2, 2, 2]], [3, 6], [1, 2, 3]))  # redundant row
@example(system=([[1, 1], [1, 0]], [2, 0], [0, 1]))  # degenerate, min == max
def test_objective_range_matches_two_solves(system):
    # one phase one for both directions gives the optima of two full solves
    rows, rhs, objective = system
    ours = objective_range(rows, rhs, objective)
    low = solve_lp(rows, rhs, objective)
    if low.status == INFEASIBLE:
        assert ours is None
        return
    high = solve_lp(rows, rhs, [-c for c in objective])
    assert low.status == high.status == OPTIMAL
    assert ours == (low.objective, -high.objective)
