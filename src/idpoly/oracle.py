"""Ground-truth normality decisions by exhaustive exact search.

Normality of a 0-1 polytope P says every integer point of every dilation
tP is a sum of t vertices.  Because any fractional vertex combination
with coefficients below 1 has degree at most s-1, and generation degrees
beyond dim(P)-1 add nothing, scanning a finite range of dilations decides
the question outright.  Everything here is exact rational arithmetic; a
verdict from this module is a theorem about the input, not an estimate.

In degree k the polytopal ring is spanned by S_k, the distinct sums of k
vertices, and the Ehrhart ring by the lattice points of kP; P is normal
exactly when the two agree.  The scan builds S_k from S_(k-1) as the
degrees advance and tests each lattice point of kP against it.  The
backtracking integer_decomposition decides the same question for one
point; only the checker calls it, so a certificate is re-checked by a
search the prover does not share.  The checker runs on integers:
verify_witness takes a witness's numerators over its denominator as they
are, verify_coefficients puts its rationals over one denominator once,
and both then run one integer check, whose last clause is the search.
The search packs the point into one int and prunes before it branches,
and it keeps the plain backtracking's answer, the lexicographically
least decomposition.

The exact simplex answers two questions here, both over the integer
membership rows (the all-ones row, then one row per coordinate, with one
column per vertex): the range of one pivot coordinate over the all-ones
row and the rows of the pivots already fixed, for the lattice-point
descent, and one feasible vertex over all the rows, for a witness's
coefficients.

The descent searches only the pivot coordinates, those whose rows are
independent of the rows before them; it gets every other coordinate from
the integer relation ZeroOnePolytope.coordinate_relations gives it,
cutting a branch where that coordinate is not an integer, so it makes
one LP per proper prefix of the pivots it reaches and none for the rest.
The pivots order the points as the coordinates do, and the last LP of a
branch proves its point lies in the dilation, so the scan still meets
the points in lexicographic order, and the least failing point and its
witness, solved over all the rows, do not depend on the pivots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress
from math import ceil, floor
from operator import add, le, mul, or_
from typing import Iterator, Sequence

from .certificates import (
    NORMAL,
    NOT_NORMAL,
    Witness,
    _fill_witness,
    fraction_text,
    range_error,
)
from .intlinalg import common_denominator
from .model import ZeroOnePolytope
from .simplex import objective_range, solve_lp

INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of the brute-force scan.

    degrees_checked lists every dilation examined, in order; bound is the
    completeness bound the scan would need to be a full decision, and
    max_degree echoes a user override.  status is inconclusive only when
    such an override truncated the scan below the bound.
    """

    status: str
    witness: Witness | None
    degrees_checked: tuple[int, ...]
    points_examined: int
    bound: int
    max_degree: int | None = None


@dataclass(frozen=True)
class VerificationResult:
    """Valid, or invalid with the first failed clause spelled out."""

    valid: bool
    reason: str | None = None
    witness: Witness | None = None


def completeness_bound(polytope: ZeroOnePolytope) -> int:
    """Largest dilation that must be scanned for a definitive verdict.

    Coefficients below 1 cap witness degrees at s-1; the affine dimension
    caps the generation degree of the lattice points at dim-1.  The
    smaller of the two wins, and anything below 2 means there is nothing
    to check at all.
    """
    s = polytope.num_vertices
    return min(s - 1, max(1, polytope.affine_dimension - 1))


def lp_membership(
    polytope: ZeroOnePolytope, point: Sequence[int], degree: int
) -> tuple[Fraction, ...] | None:
    """Vertex multipliers that put point in degree·P, or None if there are none.

    None means definitively infeasible.  The returned coefficients are
    the basic solution the pivoting lands on, deterministic per input.
    """
    if len(point) != polytope.ambient_dim:
        raise ValueError(
            f"point has {len(point)} coordinates, polytope lives in "
            f"dimension {polytope.ambient_dim}"
        )
    if degree < 0:
        raise ValueError("degree cannot be negative")
    return solve_lp(polytope.membership_rows, [degree, *point])


def enumerate_lattice_points(
    polytope: ZeroOnePolytope, degree: int
) -> list[tuple[int, ...]]:
    """All integer points of the dilation degree·P, lexicographically.

    Only the pivot coordinates of polytope.coordinate_relations are
    searched.  Left to right, each pivot's admissible integers lie between
    the exact minimum and maximum of that coordinate over the points of
    degree·P that share the pivots already fixed, so no candidate box
    scan and no rounding is involved.  Both bounds come from one
    objective_range call over the all-ones row and the fixed pivots' rows.
    Each other coordinate is set, with no LP, as soon as the pivots
    before it are fixed: denominator · x_j must equal the relation's sum,
    and a branch where the denominator does not divide it ends.

    Why this lists every integer point of degree·P once, in order:
    - order: a dependent coordinate is an affine function of the degree
      and of earlier pivots, so two points of degree·P that first differ
      at some coordinate first differ at a pivot, and the order of pivot
      prefixes is the lexicographic order of the points;
    - leaves: every value in a range is attained, since the points of
      degree·P that share the fixed pivots form a convex set, so the last
      range LP of a branch proves each of its leaves extends to a point
      of degree·P, and the relations, which hold on all of degree·P, give
      that point's other coordinates.
    """
    if degree < 0:
        raise ValueError("degree cannot be negative")
    n = polytope.ambient_dim
    relations = polytope.coordinate_relations
    rows = polytope.membership_rows
    # the all-ones row, then the pivot rows in coordinate order
    pivot_rows = [rows[0]] + [
        rows[j + 1] for j, relation in enumerate(relations) if relation is None
    ]
    out: list[tuple[int, ...]] = []

    def descend(prefix: list[int], rhs: list[int]) -> None:
        j = len(prefix)
        while j < n and relations[j] is not None:
            denominator, constant, terms = relations[j]
            total = constant * degree + sum(c * prefix[i] for i, c in terms)
            if total % denominator:
                return
            prefix = prefix + [total // denominator]
            j += 1
        if j == n:
            out.append(tuple(prefix))
            return
        k = len(rhs)
        bounds = objective_range(pivot_rows[:k], rhs, pivot_rows[k])
        assert bounds is not None, "each pivot value lies in its range"
        low, high = bounds
        for value in range(ceil(low), floor(high) + 1):
            descend(prefix + [value], rhs + [value])

    descend([], [degree])
    return out


def integer_decomposition(
    polytope: ZeroOnePolytope, point: Sequence[int], degree: int
) -> tuple[int, ...] | None:
    """Nonnegative integer vertex multiplicities hitting the point exactly.

    Backtracks over vertices in input order with ascending multiplicity,
    so a returned vector is the lexicographically least decomposition.
    Only the vertices under the point can take part, so every other one
    gets 0 and the search runs on the rest.  The point's positive
    coordinates are packed into one int, a field per coordinate with a
    guard bit on top, so taking a vertex away is one subtraction and the
    guard bits tell whether it fits.  Before it branches, a node is cut
    when a positive coordinate is on no vertex left (reachability), when
    the coordinate sum left cannot be made of the multiplicity left times
    the weights (support sizes) of the vertices left, or when it failed
    before (a memo); and a multiplicity is tried only when it clears
    every coordinate that no later vertex covers.
    """
    if len(point) != polytope.ambient_dim:
        raise ValueError("point dimension mismatch")
    if degree < 0:
        return None
    point = [int(x) for x in point]
    if min(point, default=0) < 0:
        return None
    # each field holds a coordinate of the point, or less, below its top bit
    width = max(point, default=0).bit_length() + 1
    # the point and every vertex packed, one field per positive coordinate
    # of the point; a vertex with a 1 where the point is 0 is not under it
    indices = range(polytope.num_vertices)
    bits = [0] * polytope.num_vertices
    over: set[int] = set()
    packed_point = 0
    unit = 1
    for x, column in zip(point, polytope.membership_rows[1:]):
        if x:
            for i in compress(indices, column):
                bits[i] += unit
            packed_point += x * unit
            unit <<= width
        else:
            over.update(compress(indices, column))
    fields = unit - 1  # every bit of every field
    fill = (1 << width) - 1  # one field's bits
    guards = fields // fill << (width - 1)
    packed = [bits[i] for i in indices if i not in over]
    weights = [b.bit_count() for b in packed]
    m = len(packed)
    # from vertex k on: the field bits no vertex covers, the least and the
    # greatest weight; the entries at m stand for no vertex at all
    covers = [*accumulate(reversed(packed), or_)][::-1]
    outside = [fields & ~(cover * fill) for cover in covers] + [fields]
    low = [*accumulate(reversed(weights), min)][::-1] + [0]
    high = [*accumulate(reversed(weights), max)][::-1] + [0]
    dead: set[tuple[int, int, int]] = set()

    def search(k: int, rest: int, budget: int, total: int) -> list[int] | None:
        if budget == 0:
            return [0] * (m - k) if not rest else None
        if k == m or not budget * low[k] <= total <= budget * high[k]:
            return None
        key = (k, rest, budget)
        if key in dead:
            return None
        vertex, weight, beyond = packed[k], weights[k], outside[k + 1]
        for count in range(budget + 1):
            if not rest & beyond:
                tail = search(k + 1, rest, budget - count, total)
                if tail is not None:
                    return [count, *tail]
            if count == budget:
                break
            taken = (rest | guards) - vertex
            if taken & guards != guards:
                break
            rest = taken ^ guards
            total -= weight
        dead.add(key)
        return None

    if packed_point & outside[0]:
        return None
    found = search(0, packed_point, degree, sum(point))
    if found is None:
        return None
    counts = iter(found)
    return tuple(0 if i in over else next(counts) for i in indices)


def vertex_sums(
    vertices: Sequence[Sequence[int]], ceiling: Sequence[int] | None = None
) -> Iterator[set[tuple[int, ...]]]:
    """S_1, S_2, ...: the distinct sums of k vertices, for k = 1, 2, ...

    S_k = {p + v : p in S_(k-1), v a vertex}, and only the set in hand is
    kept.  An integer point is a sum of k vertices, with multiplicities,
    exactly when it lies in S_k.  With a ceiling, every sum that exceeds
    it in some coordinate is dropped as it appears: the vertices are
    nonnegative, so nothing built on such a sum comes back under the
    ceiling, and each set is S_k cut down to the box under it.
    """
    vectors = [tuple(v) for v in vertices]
    if ceiling is not None:
        vectors = [v for v in vectors if all(map(le, v, ceiling))]
    sums = set(vectors)
    while True:
        yield sums
        if ceiling is None:
            sums = {tuple(map(add, p, v)) for p in sums for v in vectors}
        else:
            grown = (tuple(map(add, p, v)) for p in sums for v in vectors)
            sums = {p for p in grown if all(map(le, p, ceiling))}


def decide_normal_bruteforce(
    polytope: ZeroOnePolytope, max_degree: int | None = None
) -> OracleVerdict:
    """Scan dilations 2..bound for an integer point outside the sum-set.

    A lattice point of degree·P fails when it is not in S_degree, the
    sums of degree vertices that vertex_sums builds one degree after
    another.  The first failing point (least degree, lexicographically
    least point) becomes the witness, with coefficients taken from the
    exact membership solve; at the least failing degree those
    coefficients automatically stay below 1.  A clean scan up to the
    completeness bound proves normality; a scan truncated by max_degree
    below the bound is reported inconclusive rather than guessed.
    """
    bound = completeness_bound(polytope)
    limit = bound if max_degree is None else max_degree
    checked: list[int] = []
    points_examined = 0
    sums = vertex_sums(polytope.vertices)
    next(sums)  # S_1; the scan starts at degree 2
    for degree in range(2, limit + 1):
        checked.append(degree)
        reachable = next(sums)
        for point in enumerate_lattice_points(polytope, degree):
            points_examined += 1
            if point not in reachable:
                coefficients = lp_membership(polytope, point, degree)
                assert coefficients is not None, "failing point came from the dilation"
                witness = Witness(coefficients, degree, point)
                return OracleVerdict(
                    NOT_NORMAL,
                    witness,
                    tuple(checked),
                    points_examined,
                    bound,
                    max_degree,
                )
    status = NORMAL if limit >= bound else INCONCLUSIVE
    return OracleVerdict(
        status, None, tuple(checked), points_examined, bound, max_degree
    )


def verify_coefficients(
    polytope: ZeroOnePolytope, coefficients: Sequence[Fraction]
) -> VerificationResult:
    """Check a raw coefficient vector against every witness requirement.

    Clauses, in order: count, range [0,1), integral sum, integral point,
    and absence of any integer decomposition.  The coefficients that pass
    the first four are themselves a combination putting the point in
    degree·P, so no membership LP is needed.  The first failure is
    reported; success returns the assembled Witness.  The coefficients
    are put over one denominator once, and the clauses run on the
    numerators, as verify_witness runs them.
    """
    denominator, numerators = common_denominator(tuple(Fraction(c) for c in coefficients))
    reason, degree, point = _check_numerators(polytope, denominator, numerators)
    if reason is not None:
        return VerificationResult(False, reason)
    # the clauses passed cover every check of a Witness
    witness = _fill_witness(object.__new__(Witness), denominator, numerators, degree, point)
    return VerificationResult(True, None, witness)


def _check_numerators(
    polytope: ZeroOnePolytope, denominator: int, numerators: Sequence[int]
) -> tuple[str | None, int, list[int]]:
    """The clauses of verify_coefficients on numerators/denominator, on ints.

    Returns the reason of the first clause that fails, or None with the
    degree and the point the numerators give.
    """
    s = polytope.num_vertices
    if len(numerators) != s:
        reason = f"coefficient count mismatch: got {len(numerators)}, polytope has {s} vertices"
        return reason, 0, []
    reason = range_error(denominator, numerators)
    if reason is not None:
        return reason, 0, []
    total = sum(numerators)
    if total % denominator:
        return f"coefficient sum {fraction_text(total, denominator)} is not an integer", 0, []
    degree = total // denominator
    scaled = [sum(map(mul, numerators, column)) for column in polytope.membership_rows[1:]]
    if any(p % denominator for p in scaled):
        return "point not integral", 0, []
    point = [p // denominator for p in scaled]
    decomposition = integer_decomposition(polytope, point, degree)
    if decomposition is not None:
        return f"point admits the integer decomposition {decomposition}", 0, []
    return None, degree, point


def verify_witness(
    polytope: ZeroOnePolytope, witness: Witness
) -> VerificationResult:
    """Full check of a structured witness, including its declared fields.

    The clauses of verify_coefficients run on the witness's own numerators
    over its denominator.  A witness that passes is returned as it is:
    its fields are then the ones the clauses derive.
    """
    reason, degree, point = _check_numerators(polytope, witness.denominator, witness.numerators)
    if reason is not None:
        return VerificationResult(False, reason)
    if witness.degree != degree:
        return VerificationResult(
            False,
            f"declared degree {witness.degree} does not match coefficient sum {degree}",
        )
    if list(witness.point) != point:
        return VerificationResult(
            False, "declared point does not match the coefficient combination"
        )
    return VerificationResult(True, None, witness)
