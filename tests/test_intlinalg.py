from __future__ import annotations

import itertools
import math
import random

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idpoly.intlinalg import (
    TorsionCertificate,
    bareiss_rank,
    column_echelon,
    identity_matrix,
    lattice_member,
    prime_factors,
    rank_mod,
    reduce_mod_lattice,
    row_relations,
    smith_normal_form,
    torsion_check,
    transpose,
    verify_torsion_certificate,
)
from idpoly import intlinalg
from idpoly.model import polytope_from_ideal


def sympy_invariants(rows):
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    mat = sympy.Matrix(rows)
    snf = sympy_snf(mat, domain=sympy.ZZ)
    k = min(mat.rows, mat.cols)
    return [abs(int(snf[i, i])) for i in range(k)]


def test_transpose_and_identity():
    assert transpose([[1, 2, 3], [4, 5, 6]]) == [[1, 4], [2, 5], [3, 6]]
    assert identity_matrix(2) == [[1, 0], [0, 1]]


@pytest.mark.parametrize(
    "rows",
    [
        [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
        [[1, 0], [0, 1]],
        [[0, 0], [0, 0]],
        [[6]],
        [[2, 0], [0, 3], [0, 0]],
        [[1, 2, 3]],
        [[3, 1, -4], [2, -3, 1]],
    ],
)
def test_smith_diag_matches_sympy(rows):
    diag, u_inv = smith_normal_form(rows)
    assert diag == sympy_invariants(rows)
    # divisibility chain among nonzero entries
    nonzero = [d for d in diag if d]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # u_inv must be unimodular
    assert abs(sympy.Matrix(u_inv).det()) == 1


def test_smith_transform_is_row_transform_inverse():
    rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    diag, u_inv = smith_normal_form(rows)
    # reconstruct: u_inv columns are preimages of the standard basis, so
    # u = u_inv^{-1} satisfies u*A*v = D for some unimodular v.  Check via
    # sympy that u_inv^{-1} * A has the same column span as D's rows allow.
    u = sympy.Matrix(u_inv).inv()
    prod = u * sympy.Matrix(rows)
    assert sympy_invariants(prod.tolist()) == diag


def test_smith_random_matches_sympy():
    rng = random.Random(42)
    for _ in range(40):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        diag, u_inv = smith_normal_form(rows)
        assert diag == sympy_invariants(rows)
        assert abs(sympy.Matrix(u_inv).det()) == 1


def test_matrix_rank_matches_sympy():
    rng = random.Random(7)
    # the rank over the rationals is the first thing bareiss_rank returns
    assert bareiss_rank([])[0] == 0
    assert bareiss_rank([[0, 0]])[0] == 0
    for _ in range(40):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        assert bareiss_rank(rows)[0] == sympy.Matrix(rows).rank()


def test_row_relations_match_sympy():
    # each dependent row's relation holds, uses only the independent rows
    # before it, is in lowest terms, and the independent rows are as many
    # as the rank
    rng = random.Random(11)
    assert row_relations([]) == []
    assert row_relations([[0, 0], [1, 2]]) == [(1, [])] + [None]
    for _ in range(60):
        m = rng.randint(1, 7)
        n = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        # repeat sums of earlier rows, so that dependent rows are common
        for i in range(1, m):
            if rng.random() < 0.4:
                a, b = rng.randrange(i), rng.randrange(i)
                rows[i] = [2 * x - 3 * y for x, y in zip(rows[a], rows[b])]
        relations = row_relations(rows)
        assert sum(r is None for r in relations) == sympy.Matrix(rows).rank()
        for index, relation in enumerate(relations):
            if relation is None:
                continue
            d, c = relation
            assert d > 0 and len(c) == index
            assert math.gcd(d, *c) == 1
            assert all(c[i] == 0 for i in range(index) if relations[i] is not None)
            combined = [sum(c[i] * rows[i][j] for i in range(index)) for j in range(n)]
            assert combined == [d * x for x in rows[index]]


@st.composite
def small_int_matrices(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    return draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=m, max_size=m))


@settings(max_examples=200, deadline=None)
@given(rows=small_int_matrices())
def test_bareiss_minor_is_a_nonzero_maximal_minor(rows):
    r, minor = bareiss_rank(rows)
    mat = sympy.Matrix(rows)
    assert r == mat.rank()
    if r == 0:
        assert minor == 1
        return
    assert minor != 0
    assert any(
        abs(mat.extract(list(rs), list(cs)).det()) == abs(minor)
        for rs in itertools.combinations(range(mat.rows), r)
        for cs in itertools.combinations(range(mat.cols), r)
    )


@settings(max_examples=200, deadline=None)
@given(rows=small_int_matrices(), p=st.sampled_from([2, 3, 5, 7]))
def test_rank_mod_matches_sympy(rows, p):
    from sympy.polys.domains import GF
    from sympy.polys.matrices import DomainMatrix

    expected = DomainMatrix(
        [[GF(p)(x) for x in row] for row in rows], (len(rows), len(rows[0])), GF(p)
    ).rank()
    assert rank_mod(rows, p) == expected


def test_prime_factors():
    assert list(prime_factors(1)) == []
    assert list(prime_factors(2)) == [2]
    assert list(prime_factors(9)) == [3]
    assert list(prime_factors(35)) == [5, 7]
    assert list(prime_factors(360)) == [2, 3, 5]
    assert list(prime_factors(2 * 49 * 13)) == [2, 7, 13]
    assert list(prime_factors(97)) == [97]


def test_column_echelon_membership():
    # lattice spanned by (2,0) and (0,3)
    ech = column_echelon([[2, 0], [0, 3]])
    assert lattice_member([2, 3], ech)
    assert lattice_member([4, 0], ech)
    assert not lattice_member([1, 0], ech)
    assert not lattice_member([0, 1], ech)
    assert reduce_mod_lattice([5, 7], ech) == [1, 1]


def test_lattice_member_handles_non_square():
    # columns (1,1,0) and (0,1,1)
    ech = column_echelon([[1, 0], [1, 1], [0, 1]])
    assert lattice_member([1, 2, 1], ech)
    assert not lattice_member([1, 0, 1], ech)


@pytest.mark.parametrize(
    "name,factors",
    [
        ("rem32.mat", (2,)),
        ("k24.ideal", (2,)),
        ("hex6.ideal", (2,)),
        ("solv3.ideal", (3,)),
        ("ih1.ideal", (2,)),
    ],
)
def test_torsion_detected_on_fixtures(load_ideal, name, factors):
    from idpoly import parsing
    from conftest import DATA

    if name.endswith(".mat"):
        poly = parsing.parse_matrix_text((DATA / name).read_text())
    else:
        poly = polytope_from_ideal(load_ideal(name))
    cert = torsion_check(poly.vertices)
    assert cert is not None
    assert cert.m == factors[0]
    assert tuple(f for f in cert.invariant_factors if f > 1) == factors
    assert verify_torsion_certificate(cert, poly.vertices)


@pytest.mark.parametrize(
    "name",
    ["tri.ideal", "fourcyc.ideal", "fig1.ideal", "sixtri.ideal", "bowtie.ideal"],
)
def test_torsion_free_fixtures(load_ideal, name):
    poly = polytope_from_ideal(load_ideal(name))
    assert torsion_check(poly.vertices) is None


def test_known_torsion_vector_verifies(load_ideal):
    # 2*(1,1,1,1,1,1,1,3) lies in the homogenized lattice of the
    # six-generator counterexample while the vector itself does not.
    from idpoly import parsing
    from conftest import DATA

    poly = parsing.parse_matrix_text((DATA / "rem32.mat").read_text())
    cert = TorsionCertificate(u=(1, 1, 1, 1, 1, 1, 1, 3), m=2, invariant_factors=(2,))
    assert verify_torsion_certificate(cert, poly.vertices)


def test_bogus_certificates_rejected(load_ideal):
    poly = polytope_from_ideal(load_ideal("k24.ideal"))
    n = poly.ambient_dim
    # u already in the lattice: first homogenized vertex
    inside = tuple(poly.vertices[0]) + (1,)
    cert = TorsionCertificate(u=inside, m=2, invariant_factors=(2,))
    assert not verify_torsion_certificate(cert, poly.vertices)
    # m*u outside even the rational span: every lattice vector has its
    # first n coordinates summing to twice the homogenizing coordinate
    bogus = (1,) + (0,) * n
    cert = TorsionCertificate(u=bogus, m=2, invariant_factors=(2,))
    assert not verify_torsion_certificate(cert, poly.vertices)
    # wrong length
    cert = TorsionCertificate(u=(1, 1), m=2, invariant_factors=(2,))
    assert not verify_torsion_certificate(cert, poly.vertices)


def test_certificate_needs_multiplier_at_least_two():
    with pytest.raises(ValueError, match="at least 2"):
        TorsionCertificate(u=(1, 0), m=1, invariant_factors=())


def test_torsion_check_random_self_verifies():
    rng = random.Random(99)
    hits = 0
    for _ in range(60):
        n = rng.randint(2, 7)
        s = rng.randint(2, min(6, 2**n))
        pts = []
        seen = set()
        while len(pts) < s:
            p = tuple(rng.randint(0, 1) for _ in range(n))
            if p not in seen:
                seen.add(p)
                pts.append(p)
        cert = torsion_check(pts)
        if cert is not None:
            hits += 1
            assert verify_torsion_certificate(cert, pts)
            # sympy agrees some invariant factor exceeds 1
            cols = [list(p) + [1] for p in pts]
            inv = sympy_invariants(transpose(cols))
            assert any(d > 1 for d in inv)
    # the sample is big enough that torsion shows up at least once
    assert hits > 0


def _has_torsion_by_snf(points) -> bool:
    diag, _ = smith_normal_form(transpose([list(p) + [1] for p in points]))
    return any(d > 1 for d in diag)


@st.composite
def zero_one_point_sets(draw):
    n = draw(st.integers(1, 7))
    return draw(
        st.lists(
            st.tuples(*[st.integers(0, 1)] * n),
            min_size=1,
            max_size=min(9, 2**n),
            unique=True,
        )
    )


# vertex rows of rem32.mat (factor 2) and solv3.ideal (factor 3)
REM32 = [
    (1, 1, 0, 0, 0, 0, 0), (1, 0, 1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0, 1),
    (0, 0, 0, 1, 1, 0, 0), (0, 0, 0, 1, 0, 1, 0), (0, 0, 0, 0, 1, 1, 1),
]
SOLV3 = [
    (1, 0, 0, 0, 0, 1, 1), (1, 1, 0, 0, 0, 0, 0), (0, 1, 1, 0, 0, 1, 0),
    (0, 0, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1, 0), (0, 0, 0, 0, 1, 0, 1),
]
# torsion-free, but the Bareiss minor is 2 (the triangle edge ideal) and 3,
# so the screen decides them by ranks modulo 2 and 3
TRIANGLE = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
MINOR3 = [(0, 0, 1, 1), (0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 0, 1)]


@settings(max_examples=300, deadline=None)
@given(points=zero_one_point_sets())
@example(points=REM32)
@example(points=SOLV3)
@example(points=TRIANGLE)
@example(points=MINOR3)
def test_torsion_screen_agrees_with_smith_form(points):
    cert = torsion_check(points)
    assert (cert is None) == (not _has_torsion_by_snf(points))
    if cert is not None:
        assert verify_torsion_certificate(cert, points)


def test_torsion_free_input_skips_smith_form(load_ideal, monkeypatch):
    def forbidden(rows):
        raise AssertionError("smith_normal_form ran on a torsion-free input")

    monkeypatch.setattr(intlinalg, "smith_normal_form", forbidden)
    for name in ("tri.ideal", "fourcyc.ideal", "fig1.ideal", "bowtie.ideal"):
        assert torsion_check(polytope_from_ideal(load_ideal(name)).vertices) is None


@pytest.mark.parametrize("points,minor", [(TRIANGLE, 2), (MINOR3, 3)])
def test_torsion_screen_decides_by_rank_mod_p(points, minor, monkeypatch):
    def forbidden(rows):
        raise AssertionError("smith_normal_form ran on a torsion-free input")

    rows = [[*p, 1] for p in points]
    r, found = bareiss_rank(rows)
    assert abs(found) == minor
    assert rank_mod(rows, minor) == r
    monkeypatch.setattr(intlinalg, "smith_normal_form", forbidden)
    assert torsion_check(points) is None
