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


def _invariant_factors(points) -> list[int]:
    diag, _ = smith_normal_form(transpose([list(p) + [1] for p in points]))
    return diag


def _has_torsion_by_snf(points) -> bool:
    return any(d > 1 for d in _invariant_factors(points))


def odd_components_by_union_find(points) -> int | None:
    """Non-bipartite components of the graph whose edges are the points.

    None unless every point is a 0-1 row with exactly two ones.  A
    reference for the graph screen that shares nothing with it: union-find
    that keeps, for each column, the parity of its path to its root.
    """
    parent: dict[int, int] = {}
    parity: dict[int, int] = {}
    odd_roots: set[int] = set()

    def find(v: int) -> tuple[int, int]:
        p = 0
        while parent[v] != v:
            p ^= parity[v]
            v = parent[v]
        return v, p

    for point in points:
        if any(x not in (0, 1) for x in point) or sum(point) != 2:
            return None
        i, j = (c for c, x in enumerate(point) if x)
        for v in (i, j):
            parent.setdefault(v, v)
            parity.setdefault(v, 0)
        (ri, pi), (rj, pj) = find(i), find(j)
        if ri == rj:
            if pi == pj:
                odd_roots.add(ri)
            continue
        parent[ri] = rj
        parity[ri] = pi ^ pj ^ 1
        if ri in odd_roots:
            odd_roots.discard(ri)
            odd_roots.add(rj)
    return len(odd_roots)


@st.composite
def graph_point_sets(draw, torsion_free=False):
    """The edges of a disjoint union of 1-4 small connected graphs, as 0-1 rows.

    Each graph has 2-5 nodes: a random tree, grown from an odd cycle when
    the graph is drawn non-bipartite, plus up to three more edges, which
    join the tree's two colour classes when it is drawn bipartite.  An
    optional edge joins two of the graphs, up to two rows repeat, up to two
    zero columns are added, and columns and rows are shuffled.  With
    torsion_free, only the first graph may have an odd cycle, so the
    union has at most one non-bipartite component.
    """
    edges: list[tuple[int, int]] = []
    ranges: list[range] = []
    for index in range(draw(st.integers(1, 4))):
        size = draw(st.integers(2, 5))
        odd = size >= 3 and (index == 0 or not torsion_free) and draw(st.booleans())
        colour = [0] * size
        graph: list[tuple[int, int]] = []
        start = 1
        if odd:
            start = draw(st.sampled_from([n for n in (3, 5) if n <= size]))
            graph = [(i, (i + 1) % start) for i in range(start)]
        for v in range(start, size):
            u = draw(st.integers(0, v - 1))
            graph.append((u, v))
            colour[v] = 1 - colour[u]
        pairs = [
            (u, v)
            for u, v in itertools.combinations(range(size), 2)
            if odd or colour[u] != colour[v]
        ]
        graph += draw(st.lists(st.sampled_from(pairs), max_size=3))
        offset = ranges[-1].stop if ranges else 0
        edges += [(offset + u, offset + v) for u, v in graph]
        ranges.append(range(offset, offset + size))
    if len(ranges) > 1 and draw(st.booleans()):
        pair = st.lists(st.sampled_from(ranges), min_size=2, max_size=2, unique=True)
        first, second = draw(pair)
        edges.append((draw(st.sampled_from(first)), draw(st.sampled_from(second))))
    edges += draw(st.lists(st.sampled_from(edges), max_size=2))
    n = ranges[-1].stop + draw(st.integers(0, 2))
    column = draw(st.permutations(range(n)))
    rows = [
        tuple(1 if c in (column[u], column[v]) else 0 for c in range(n))
        for u, v in edges
    ]
    return draw(st.permutations(rows))


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
# torsion-free, but the Bareiss minor is 2 (the triangle edge ideal and
# MINOR2) and 3, so the rank screen decides them by ranks modulo 2 and 3;
# the graph screen settles the triangle before it
TRIANGLE = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
MINOR3 = [(0, 0, 1, 1), (0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 0, 1)]
MINOR2 = [(1, 0, 0, 0), (1, 1, 0, 1), (0, 0, 1, 1), (1, 1, 1, 0)]
# three disjoint triangles: torsion (Z/2)^2
TRIANGLES = [
    tuple(1 if c in (3 * t + a, 3 * t + b) else 0 for c in range(9))
    for t in range(3)
    for a, b in ((0, 1), (0, 2), (1, 2))
]
# a triangle on columns 1, 3, 5 and the path 0-4-2-6, with the path's two
# ends also single points: torsion Z/2, though the rows with two ones alone
# are a graph with one non-bipartite component
TIED_PATH = [
    (0, 1, 0, 0, 0, 1, 0), (0, 0, 0, 1, 0, 1, 0), (0, 1, 0, 1, 0, 0, 0),
    (1, 0, 0, 0, 1, 0, 0), (0, 0, 1, 0, 1, 0, 0), (0, 0, 1, 0, 0, 0, 1),
    (1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1),
]


@settings(max_examples=300, deadline=None)
@given(points=zero_one_point_sets() | graph_point_sets())
@example(points=REM32)
@example(points=SOLV3)
@example(points=TRIANGLE)
@example(points=MINOR3)
@example(points=TRIANGLES)
@example(points=TIED_PATH)
def test_torsion_screen_agrees_with_smith_form(points):
    cert = torsion_check(points)
    factors = _invariant_factors(points)
    assert (cert is None) == all(d <= 1 for d in factors)
    if cert is not None:
        assert verify_torsion_certificate(cert, points)
    # a graph's torsion is (Z/2)^(k-1) for its k non-bipartite components
    k = odd_components_by_union_find(points)
    if k is not None:
        assert sorted(d for d in factors if d > 1) == [2] * max(k - 1, 0)


def _forbidden(rows):
    raise AssertionError("a torsion-free graph reached elimination")


@settings(max_examples=200, deadline=None)
@given(points=graph_point_sets(torsion_free=True))
@example(points=TRIANGLE)
def test_torsion_free_graph_never_reaches_bareiss(points):
    assert odd_components_by_union_find(points) <= 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(intlinalg, "bareiss_rank", _forbidden)
        patch.setattr(intlinalg, "smith_normal_form", _forbidden)
        assert torsion_check(points) is None


@pytest.mark.parametrize(
    "points",
    [
        TRIANGLE + [(1, 0, 0)],  # a row with a single one
        TIED_PATH,
        [(1, 1, 0), (0, 1, 1), (1, 0, 1), (0, 0, 0)],  # a zero row
        [(1, 1, 0), (2, 0, 1)],  # an entry 2
        [(1, 1, 1), (1, 1, 0)],  # three ones
    ],
)
def test_graph_screen_takes_only_rows_with_two_ones(points, monkeypatch):
    seen = []

    def spy(rows):
        seen.append(rows)
        return bareiss_rank(rows)

    monkeypatch.setattr(intlinalg, "bareiss_rank", spy)
    assert (torsion_check(points) is None) == (not _has_torsion_by_snf(points))
    assert seen, "the graph screen took a row without exactly two ones"


def test_torsion_free_input_skips_smith_form(load_ideal, monkeypatch):
    def forbidden(rows):
        raise AssertionError("smith_normal_form ran on a torsion-free input")

    monkeypatch.setattr(intlinalg, "smith_normal_form", forbidden)
    for name in ("tri.ideal", "fourcyc.ideal", "fig1.ideal", "bowtie.ideal"):
        assert torsion_check(polytope_from_ideal(load_ideal(name)).vertices) is None


@pytest.mark.parametrize("points,minor", [(TRIANGLE, 2), (MINOR3, 3), (MINOR2, 2)])
def test_torsion_screen_decides_by_rank_mod_p(points, minor, monkeypatch):
    def forbidden(rows):
        raise AssertionError("smith_normal_form ran on a torsion-free input")

    rows = [[*p, 1] for p in points]
    r, found = bareiss_rank(rows)
    assert abs(found) == minor
    assert rank_mod(rows, minor) == r
    monkeypatch.setattr(intlinalg, "smith_normal_form", forbidden)
    assert torsion_check(points) is None
