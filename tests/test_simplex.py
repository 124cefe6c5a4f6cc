from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_simplex
from idpoly import simplex
from idpoly.simplex import objective_range, solve_lp


def _reference_vertex(rows, rhs):
    """The Fraction reference's phase-one vertex, or None when infeasible."""
    return fraction_simplex.solve_lp(rows, rhs).solution


REFERENCE = SimpleNamespace(
    solve_lp=_reference_vertex, objective_range=fraction_simplex.objective_range
)


@pytest.fixture(params=[simplex, REFERENCE], ids=["given", "fractions"])
def solver(request):
    """The integer tableau of idpoly.simplex, or the Fraction-tableau reference.

    Every hand-worked case below must come out the same on both, so the
    reference that the differential tests trust is itself checked.
    """
    return request.param


def _satisfies(rows, rhs, vertex):
    """rows · vertex = rhs and vertex ≥ 0, exactly."""
    return all(
        sum(a * x for a, x in zip(row, vertex)) == b for row, b in zip(rows, rhs)
    ) and all(x >= 0 for x in vertex)


def test_feasibility_basic(solver):
    # x1 + x2 = 1 with x >= 0 is feasible
    vertex = solver.solve_lp([[1, 1]], [1])
    assert sum(vertex) == 1
    assert all(x >= 0 for x in vertex)


def test_infeasible_negative_rhs_balance(solver):
    # x1 = 1 and x1 = 2 cannot both hold
    assert solver.solve_lp([[1], [1]], [1, 2]) is None


def test_no_constraints_zero_objective(solver):
    # no rows means no columns: the empty vertex
    assert solver.solve_lp([], []) == ()


def test_exact_thirds(solver):
    # 3x = 1 forces x = 1/3 exactly; float arithmetic would not survive
    # the equality replay below
    vertex = solver.solve_lp([[3]], [1])
    assert vertex == (Fraction(1, 3),)
    assert 3 * vertex[0] == 1


def test_optimal_value_and_solution(solver):
    # x1 + x2 over x1 + 2*x2 = 2 runs from 1 at (0, 1) to 2 at (2, 0);
    # phase one ends on (2, 0), the least entering column
    assert solver.objective_range([[1, 2]], [2], [1, 1]) == (1, 2)
    assert solver.solve_lp([[1, 2]], [2]) == (Fraction(2), Fraction(0))


def test_solution_satisfies_constraints_exactly(solver):
    rows = [[1, 1, 1, 0], [0, 1, 2, 1], [1, 0, 0, 3]]
    rhs = [3, 4, 2]
    assert _satisfies(rows, rhs, solver.solve_lp(rows, rhs))


def test_shape_validation():
    with pytest.raises(ValueError, match="inconsistent lengths"):
        solve_lp([[1, 2], [1]], [1, 1])
    with pytest.raises(ValueError, match="right-hand side"):
        solve_lp([[1, 2]], [1, 2])
    with pytest.raises(ValueError, match="objective length"):
        objective_range([[1, 2]], [1], [1])


def test_membership_style_system(solver):
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
    assert solver.solve_lp(rows, rhs) == (Fraction(1, 2),) * 6


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
    vertex = solve_lp(rows, rhs)
    assert vertex is not None
    assert _satisfies(rows, rhs, vertex)


@st.composite
def lp_systems(draw):
    """Small equality systems with integer entries.

    Half are feasible by construction and half get a random right-hand
    side, so infeasible systems turn up; some carry a redundant row, which
    phase one has to drop.
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
    return rows, rhs


@settings(max_examples=300, deadline=None)
@given(system=lp_systems())
def test_integer_tableau_matches_fraction_reference(system):
    # the pivot sequence is the same, so feasibility and the vertex agree
    rows, rhs = system
    vertex = solve_lp(rows, rhs)
    assert vertex == _reference_vertex(rows, rhs)
    if vertex is not None:
        assert _satisfies(rows, rhs, vertex)


def test_infeasible_despite_objective():
    # the first row forces x = 0, which breaks the second; an optimum
    # at (0, 1) would violate the first row
    rows = [[-2, -3], [-2, 1]]
    assert solve_lp(rows, [0, 1]) is None
    assert objective_range(rows, [0, 1], [-2, 2]) is None
    ref = fraction_simplex.solve_lp(rows, [0, 1], objective=[-2, 2])
    assert ref.status == fraction_simplex.INFEASIBLE
    assert fraction_simplex.objective_range(rows, [0, 1], [-2, 2]) is None


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
    vertex = solve_lp(rows, rhs)
    assert vertex == _reference_vertex(rows, rhs)
    assert vertex == (6, 12, 0, 2, Fraction(11, 2))


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
    # one phase one for both directions gives the optima of the
    # reference's two independent full solves
    rows, rhs, objective = system
    assert objective_range(rows, rhs, objective) == fraction_simplex.objective_range(
        rows, rhs, objective
    )
