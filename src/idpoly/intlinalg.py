"""Exact integer linear algebra over small matrices.

Everything here works on plain ``list[list[int]]`` rows with arbitrary
precision Python integers.  The matrices involved never exceed a few dozen
rows or columns, so the textbook algorithms are used.  The one economy is
torsion_check's cascade of screens, each cheaper than the next:
- points that are 0-1 rows with exactly two ones are the edges of a
  graph on the columns, whose torsion is (Z/2)^(k-1) for k non-bipartite
  components, so a breadth-first search on bitmasks settles them when k
  is at most 1;
- otherwise fraction-free (Bareiss) elimination gives the rank and one
  nonzero maximal minor, and a rank count modulo each prime of that minor
  settles torsion-freeness;
- only the rare input with torsion reaches the Smith normal form, which
  builds the certificate.

What matters above speed is determinism: pivot choices are fixed so that
certificates are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Sequence

IntMatrix = list[list[int]]


def identity_matrix(k: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def transpose(rows: Sequence[Sequence[int]]) -> IntMatrix:
    if not rows:
        return []
    return [[row[j] for row in rows] for j in range(len(rows[0]))]


def common_denominator(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """D, the lcm of the values' denominators, and each value times D."""
    denominator = lcm(*(v.denominator for v in values))
    return denominator, [v.numerator * (denominator // v.denominator) for v in values]


def bareiss_rank(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Rank of an integer matrix and one nonzero maximal minor.

    Fraction-free Gaussian elimination (Bareiss 1968): each row update
    ``(p*a - f*b) // prev`` divides exactly by the previous pivot, and every
    entry is itself a minor of the input.  The last pivot is the
    determinant of the r x r submatrix on the pivot rows and columns,
    returned as the minor (1 for the zero matrix).
    """
    a = [list(row) for row in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    r = 0
    prev = 1
    for col in range(n):
        pivot = next((i for i in range(r, m) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        top = a[r]
        p = top[col]
        for i in range(r + 1, m):
            row = a[i]
            f = row[col]
            if f:
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
            elif prev != p:
                a[i] = [p * x // prev for x in row]
        prev = p
        r += 1
        if r == m:
            break
    return r, prev


def row_relations(
    rows: Sequence[Sequence[int]],
) -> list[tuple[int, list[int]] | None]:
    """How each row depends on the independent rows before it.

    Rows are taken in order.  A row independent of the rows before it
    gets None; a dependent row r gets (d, c), one integer c[i] per earlier
    row, with d·r = Σ c[i]·rows[i], d > 0, c[i] = 0 at every dependent
    row and gcd(d, *c) = 1.  The independent rows before r are linearly
    independent, so that relation is unique, and the number of None
    entries is the rank.

    Each independent row is kept reduced against the ones kept before it,
    with the integer combination of input rows it equals, and with the
    first column where it is nonzero (its lead).  A new row is cleared at
    each kept lead in turn by cross-multiplication, then divided by the
    gcd of its entries and of its combination.  A kept row is zero at
    every earlier lead, so a nonzero combination of kept rows is nonzero
    at the lead of its first term: the row is dependent exactly when
    nothing is left of it.
    """
    m = len(rows)
    kept: list[tuple[int, list[int], list[int]]] = []  # (lead, row, combination)
    out: list[tuple[int, list[int]] | None] = []
    for index, row in enumerate(rows):
        vec = list(row)
        combo = [0] * m
        combo[index] = 1
        for lead, other, other_combo in kept:
            f = vec[lead]
            if f:
                p = other[lead]
                vec = [p * x - f * y for x, y in zip(vec, other)]
                combo = [p * x - f * y for x, y in zip(combo, other_combo)]
                g = gcd(*vec, *combo)
                vec = [x // g for x in vec]
                combo = [x // g for x in combo]
        lead = next((j for j, x in enumerate(vec) if x), None)
        if lead is not None:
            kept.append((lead, vec, combo))
            out.append(None)
            continue
        # 0 = Σ combo[i]·rows[i] over i ≤ index, and combo[index] != 0
        sign = 1 if combo[index] > 0 else -1
        out.append((sign * combo[index], [-sign * x for x in combo[:index]]))
    return out


def rank_mod(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over the field with ``p`` elements, ``p`` prime."""
    if p == 2:
        # rows as bitmasks; min(x, x ^ b) clears b's leading bit from x, so
        # each kept row lacks the leading bits of the rows kept before it
        basis: list[int] = []
        for row in rows:
            x = 0
            for entry in row:
                x = (x << 1) | (entry & 1)
            for b in basis:
                x = min(x, x ^ b)
            if x:
                basis.append(x)
        return len(basis)
    a = [[x % p for x in row] for row in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = pow(a[r][col], -1, p)
        top = [x * inv % p for x in a[r]]
        for i in range(r + 1, m):
            f = a[i][col]
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], top)]
        r += 1
        if r == m:
            break
    return r


def prime_factors(n: int) -> Iterator[int]:
    """The distinct primes dividing ``n`` > 0, ascending, by trial division."""
    p = 2
    while p * p <= n:
        if n % p == 0:
            yield p
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        yield n


def smith_normal_form(rows: Sequence[Sequence[int]]) -> tuple[list[int], IntMatrix]:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns ``(diag, u_inv)`` where ``diag`` is the diagonal of the reduced
    matrix (nonnegative, each entry dividing the next nonzero one) and
    ``u_inv`` is the inverse of the accumulated row transform.  Column
    ``k`` of ``u_inv`` is the preimage of the ``k``-th standard basis
    vector, which is what the torsion certificate needs.

    Pivot selection is fixed (smallest magnitude, ties row-major) so the
    output is deterministic.
    """
    a = [list(row) for row in rows]
    m = len(a)
    s = len(a[0]) if a else 0
    u_inv = identity_matrix(m)

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        for r in range(m):
            u_inv[r][i], u_inv[r][j] = u_inv[r][j], u_inv[r][i]

    def add_row(src: int, dst: int, c: int) -> None:
        # row dst += c * row src; mirrored as col src -= c * col dst on u_inv
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        for r in range(m):
            u_inv[r][src] -= c * u_inv[r][dst]

    def negate_row(i: int) -> None:
        a[i] = [-x for x in a[i]]
        for r in range(m):
            u_inv[r][i] = -u_inv[r][i]

    def swap_cols(i: int, j: int) -> None:
        for r in range(m):
            a[r][i], a[r][j] = a[r][j], a[r][i]

    def add_col(src: int, dst: int, c: int) -> None:
        for r in range(m):
            a[r][dst] += c * a[r][src]

    t = 0
    while t < min(m, s):
        pivot = None
        for i in range(t, m):
            for j in range(t, s):
                v = abs(a[i][j])
                if v and (pivot is None or v < pivot[0]):
                    pivot = (v, i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[1])
        swap_cols(t, pivot[2])
        while True:
            restart = False
            for i in range(t + 1, m):
                if a[i][t]:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        # leftover remainder is strictly smaller, promote it
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, s):
                if a[t][j]:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            offender = None
            for i in range(t + 1, m):
                row = a[i]
                if any(row[j] % a[t][t] for j in range(t + 1, s)):
                    offender = i
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1
    diag = [a[i][i] for i in range(min(m, s))]
    return diag, u_inv


def column_echelon(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Integer column echelon form of the column lattice of ``rows``.

    Returns ``(columns, pivot_rows)``: column ``i`` has a positive entry
    at ``pivot_rows[i]`` and zeros at every earlier pivot row, which is
    all that lattice membership testing needs.
    """
    m = len(rows)
    cols = [list(col) for col in transpose(rows)]
    pivots: list[int] = []
    r = 0
    for row in range(m):
        while True:
            nz = [j for j in range(r, len(cols)) if cols[j][row]]
            if len(nz) <= 1:
                break
            j0 = min(nz, key=lambda j: (abs(cols[j][row]), j))
            for j in nz:
                if j != j0:
                    q = cols[j][row] // cols[j0][row]
                    cols[j] = [x - q * y for x, y in zip(cols[j], cols[j0])]
        nz = [j for j in range(r, len(cols)) if cols[j][row]]
        if nz:
            j = nz[0]
            cols[r], cols[j] = cols[j], cols[r]
            if cols[r][row] < 0:
                cols[r] = [-x for x in cols[r]]
            pivots.append(row)
            r += 1
    return cols[:r], pivots


def lattice_member(vector: Sequence[int], echelon: tuple[list[list[int]], list[int]]) -> bool:
    """Test membership of an integer vector in a column lattice."""
    cols, pivots = echelon
    x = list(vector)
    for col, prow in zip(cols, pivots):
        if x[prow] % col[prow]:
            return False
        q = x[prow] // col[prow]
        if q:
            x = [a - q * b for a, b in zip(x, col)]
    return not any(x)


def reduce_mod_lattice(vector: Sequence[int], echelon: tuple[list[list[int]], list[int]]) -> list[int]:
    """Canonical coset representative of a vector modulo a column lattice."""
    cols, pivots = echelon
    x = list(vector)
    for col, prow in zip(cols, pivots):
        q = x[prow] // col[prow]
        if q:
            x = [a - q * b for a, b in zip(x, col)]
    return x


@dataclass(frozen=True)
class TorsionCertificate:
    """Proof that the homogenized vertex lattice has a torsion quotient.

    ``u`` is an integer vector with ``m * u`` in the lattice spanned by the
    homogenized vertices while ``u`` itself is not; ``m`` is the first
    invariant factor exceeding 1.  ``invariant_factors`` lists all nonzero
    invariant factors for diagnostics.
    """

    u: tuple[int, ...]
    m: int
    invariant_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError("torsion multiplier must be at least 2")


def _homogenized_columns(points: Sequence[Sequence[int]]) -> IntMatrix:
    """Matrix whose columns are the points with a 1 appended."""
    return [list(row) for row in zip(*points)] + [[1] * len(points)]


def _odd_components(points: Sequence[Sequence[int]]) -> int | None:
    """Non-bipartite components of the graph whose edges are the points.

    Each point must be a 0-1 row with exactly two ones, read as an edge
    between those two columns (repeated rows are parallel edges); None
    when some point is not.  Components are found by breadth-first search
    on neighbour bitmasks.  Every edge of a search joins two vertices of
    one level or of consecutive levels, and one inside a level closes an
    odd cycle with the two shortest paths to its ends, so a component is
    non-bipartite exactly when some level meets its own neighbourhood.
    """
    neighbours = [0] * len(points[0])
    for point in points:
        ends = [j for j, x in enumerate(point) if x]
        if len(ends) != 2:
            return None
        i, j = ends
        if point[i] != 1 or point[j] != 1:
            return None
        neighbours[i] |= 1 << j
        neighbours[j] |= 1 << i
    unseen = 0
    for i, adjacent in enumerate(neighbours):
        if adjacent:
            unseen |= 1 << i
    odd = 0
    while unseen:
        seen = frontier = unseen & -unseen
        bipartite = True
        while frontier:
            reach = 0
            rest = frontier
            while rest:
                low = rest & -rest
                reach |= neighbours[low.bit_length() - 1]
                rest ^= low
            if reach & frontier:
                bipartite = False
            frontier = reach & ~seen
            seen |= frontier
        unseen &= ~seen
        odd += not bipartite
    return odd


def torsion_check(points: Sequence[Sequence[int]]) -> TorsionCertificate | None:
    """Detect torsion in Z^{n+1} modulo the lattice of homogenized points.

    Returns None when the quotient is torsion-free, by the cheapest screen
    of the module's cascade that settles it.

    Graph screen.  When every point is a 0-1 row with two ones, the points
    are the edges e_i + e_j of a graph on the columns, and the torsion is
    (Z/2)^(k-1) for its k >= 1 non-bipartite components (0 for k = 0).
    The last coordinate of a homogenized edge is half the sum of the
    others, so the homogenized lattice is L = {(x, |x|/2) : x in E}, E the
    lattice of the edges, and the torsion of the quotient is sat(L)/L, the
    classes of sat(E)/E with even coordinate sum |x|.  Per component, E is
    {x : x(A) = x(B)} on a bipartite one with sides A and B, which is
    saturated and has even sums, and the vectors of even sum on a
    non-bipartite one, whose saturation adds the parity of the sum there.
    So sat(E)/E = (Z/2)^k, one parity per non-bipartite component, and an
    even total leaves the kernel of their sum, (Z/2)^(k-1).  The screen
    returns None when k <= 1, and otherwise falls through.

    Rank screen.  With r the rank of the homogenized matrix, the torsion
    subgroup has order d_r, the gcd of its r x r minors.  Bareiss
    elimination gives r and one nonzero r x r minor D, which d_r divides;
    a prime p divides d_r exactly when the rank modulo p drops below r.  So
    the quotient is torsion-free when |D| == 1, or when the rank modulo
    every prime of D is r.

    Only when d_r > 1 does the Smith normal form run.  Its result is a
    self-verified certificate: the vector is the preimage of the standard
    basis vector at the first invariant factor exceeding 1, reduced to a
    canonical coset representative.
    """
    if not points:
        return None
    odd = _odd_components(points)
    if odd is not None and odd <= 1:
        return None
    # rows are the homogenized points: the transpose has the same minors
    rows = [[*point, 1] for point in points]
    r, minor = bareiss_rank(rows)
    if all(rank_mod(rows, p) == r for p in prime_factors(abs(minor))):
        return None
    mat = _homogenized_columns(points)
    diag, u_inv = smith_normal_form(mat)
    factors = tuple(d for d in diag if d)
    k = next((i for i, d in enumerate(diag) if d > 1), None)
    if k is None:
        raise AssertionError("maximal minors share a factor but no invariant factor exceeds 1")
    u = reduce_mod_lattice([row[k] for row in u_inv], column_echelon(mat))
    cert = TorsionCertificate(u=tuple(u), m=diag[k], invariant_factors=factors)
    if not verify_torsion_certificate(cert, points):
        raise AssertionError("torsion certificate failed self-verification")
    return cert


def verify_torsion_certificate(cert: TorsionCertificate, points: Sequence[Sequence[int]]) -> bool:
    """Re-check a torsion certificate by direct lattice membership."""
    if cert.m < 2 or not points:
        return False
    if len(cert.u) != len(points[0]) + 1:
        return False
    ech = column_echelon(_homogenized_columns(points))
    if lattice_member(cert.u, ech):
        return False
    return lattice_member([cert.m * x for x in cert.u], ech)
