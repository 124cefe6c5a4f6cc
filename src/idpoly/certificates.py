"""Structural normality rules and the evidence that backs them.

Every rule maps a labeled hypergraph to a RuleOutcome: a verdict for its
class of hypergraphs, or inapplicable, with the reason reports print.  A
negative verdict carries a Witness: a rational combination in the
half-open unit box whose point is integral but admits no integral
rewriting, which the oracle can replay without trusting any of the
structure theory here.  Remark 3.2's verdict also carries the
TorsionCertificate its witness is derived from.  Every rule builds its
witness on integers, numerators over one denominator with the point
summed from them, through ``Witness.over``, and lift_witness carries it
to a parent hypergraph the same way.  Theorem 4.8's search runs on the
edge masks that the engine's minor guard reads; its sum-set test is the
one check of its pair here, and the engine re-checks the witness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import le
from typing import Callable, Collection, Iterable, Sequence

from .hypergraph import (
    BudgetExceeded,
    Cycle,
    LabeledHypergraph,
    MinorTrace,
    NotSeparatedError,
    ReductionTrace,
    find_special_odd_cycle,
    incidence_matrix,
)
from .intlinalg import (
    TorsionCertificate,
    common_denominator,
    prime_factors,
    row_relations,
    torsion_check,
)

NORMAL = "normal"
NOT_NORMAL = "not_normal"
INAPPLICABLE = "inapplicable"
BUDGET_EXCEEDED = "budget_exceeded"

# path-search node budget of the exceptional-pair search
PAIR_BUDGET = 200_000
# path-search node budget of the chordless-odd-cycle search
ODD_CYCLE_BUDGET = 200_000


@dataclass(frozen=True, init=False, slots=True)
class Witness:
    """A degree-t rational combination that blocks normality.

    Coefficients live in [0, 1) and sum to the integer degree; the point
    is their integral combination of the polytope vertices.  Validity
    (membership plus non-decomposability) is the oracle's business, but
    the shape constraints are enforced here so a Witness is never
    structurally nonsensical.

    A witness is held on integers: ``numerators`` over one
    ``denominator``, the lcm of the coefficients' reduced denominators,
    so equal coefficient vectors give equal fields, and equality and the
    hash follow the coefficients.  ``coefficients`` gives them back as
    Fractions.  ``Witness(coefficients, degree, point)`` takes any values
    Fraction takes; ``Witness.over`` is the producers' builder, which
    takes the numerators and the point scaled by the denominator and
    never makes a Fraction.  Both check, in order and with the same
    messages: each point entry is an integer, there is a coefficient,
    each numerator lies in [0, denominator), the numerators sum to
    degree·denominator, the degree and the point are nonnegative.
    """

    denominator: int
    numerators: tuple[int, ...]
    degree: int
    point: tuple[int, ...]

    def __init__(self, coefficients, degree, point) -> None:
        coeffs = tuple(Fraction(c) for c in coefficients)
        degree = int(degree)
        pt = []
        for entry in point:
            if type(entry) is not int:
                value = Fraction(entry)
                if value.denominator != 1:
                    raise ValueError(f"point entry {value} is not an integer")
                entry = int(value)
            pt.append(entry)
        if not coeffs:
            raise ValueError("witness needs at least one coefficient")
        denominator, numerators = common_denominator(coeffs)
        _settle_witness(self, denominator, numerators, degree, pt)

    @classmethod
    def over(
        cls, denominator: int, numerators: Sequence[int], degree: int, scaled: Sequence[int]
    ) -> Witness:
        """The witness numerators/denominator whose point is scaled/denominator.

        ``scaled`` is the point times the denominator, as producers sum it
        from the numerators; an entry the denominator does not divide is
        a point entry that is not an integer.
        """
        point = []
        for entry in scaled:
            if entry % denominator:
                raise ValueError(
                    f"point entry {fraction_text(entry, denominator)} is not an integer"
                )
            point.append(entry // denominator)
        if not numerators:
            raise ValueError("witness needs at least one coefficient")
        witness = object.__new__(cls)
        _settle_witness(witness, denominator, numerators, degree, point)
        return witness

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.denominator) for n in self.numerators)


def _settle_witness(
    witness: Witness,
    denominator: int,
    numerators: Sequence[int],
    degree: int,
    point: Sequence[int],
) -> None:
    """Check the coefficient, degree and point clauses, then set the fields."""
    reason = range_error(denominator, numerators)
    if reason is not None:
        raise ValueError(reason)
    if sum(numerators) != degree * denominator:
        raise ValueError("coefficients do not sum to the degree")
    if degree < 0:
        raise ValueError("degree cannot be negative")
    if any(x < 0 for x in point):
        raise ValueError("point must be nonnegative")
    _fill_witness(witness, denominator, numerators, degree, point)


def _fill_witness(
    witness: Witness,
    denominator: int,
    numerators: Sequence[int],
    degree: int,
    point: Sequence[int],
) -> Witness:
    """Set the fields of checked data, numerators over the least denominator."""
    common = gcd(denominator, *numerators)
    if common > 1:
        denominator //= common
        numerators = [n // common for n in numerators]
    fill = object.__setattr__
    fill(witness, "denominator", denominator)
    fill(witness, "numerators", tuple(numerators))
    fill(witness, "degree", degree)
    fill(witness, "point", tuple(point))
    return witness


def range_error(denominator: int, numerators: Sequence[int]) -> str | None:
    """Why a coefficient numerator/denominator is outside [0, 1), or None."""
    for n in numerators:
        if n < 0 or n >= denominator:
            return f"coefficient {fraction_text(n, denominator)} out of range [0, 1)"
    return None


def fraction_text(numerator: int, denominator: int) -> str:
    """``str(Fraction(numerator, denominator))``, on ints."""
    common = gcd(numerator, denominator)
    numerator //= common
    denominator //= common
    return str(numerator) if denominator == 1 else f"{numerator}/{denominator}"


@dataclass(frozen=True)
class RuleOutcome:
    """What a structural rule concluded, and why.

    status is one of normal / not_normal / inapplicable / budget_exceeded;
    only the first two are verdicts.  reason is human-readable and ends up
    in diagnostic reports verbatim.  not_normal carries a witness on the
    hypergraph the rule ran on; Remark 3.2's carries its torsion
    certificate too, which reports show in place of the witness.
    """

    status: str
    reason: str
    witness: Witness | None = None
    torsion: TorsionCertificate | None = None

    @property
    def is_conclusive(self) -> bool:
        return self.status in (NORMAL, NOT_NORMAL)


@dataclass(frozen=True)
class ExceptionalPair:
    """Two disjoint odd cycles, one fat simple edge each, and a connector.

    Cycle edges are ordinary 2-vertex edges except the designated simple
    edges, which meet the cycle vertices in exactly two vertices apiece.
    The connection is a chain of edges avoiding all cycle vertices that
    starts on special_one's off-cycle part and ends on special_two's.
    The designated edges may share a vertex off the cycles.  A plain
    record: ``find_exceptional_pair`` builds it only after every check.
    """

    cycle_one: Cycle
    cycle_two: Cycle
    special_one: tuple[int, ...]
    special_two: tuple[int, ...]
    connection: tuple[tuple[int, ...], ...]


def _require_separated(hypergraph: LabeledHypergraph) -> None:
    violation = hypergraph.separation_violation()
    if violation is not None:
        raise NotSeparatedError(violation)


def _witness_on(
    hypergraph: LabeledHypergraph, denominator: int, numerators: Sequence[int], degree: int
) -> Witness:
    """The witness numerators/denominator on the vertices, its point on the labels.

    Each label's power is the sum of the numerators of the vertices in its
    image, over the same denominator; ``Witness.over`` rejects a power
    the denominator does not divide.
    """
    indexed = [0, *numerators]  # vertices count from 1
    scaled = [sum(map(indexed.__getitem__, image)) for _, image in hypergraph.labels]
    return Witness.over(denominator, numerators, degree, scaled)


def connected_odd_fires(
    state: int, edges: Collection[int], components: Sequence[tuple[int, int | None]]
) -> bool:
    """Whether Theorem 4.1 finds the vertex set ``state`` not normal, on masks.

    ``edges`` are the edges of ``state`` and ``components`` their
    ``skeleton_components``.  It fires exactly on a 1-skeleton of one
    component with an odd cycle, an even vertex count and every edge of
    even size (odd dimension).  ``decide_connected_odd`` and the engine's
    minor guard both decide through this one condition.
    """
    return (
        len(components) == 1
        and components[0][1] is None
        and state.bit_count() % 2 == 0
        and all(edge.bit_count() % 2 == 0 for edge in edges)
    )


def decide_connected_odd(hypergraph: LabeledHypergraph) -> RuleOutcome:
    """Settle normality when the 1-skeleton is connected and non-bipartite.

    In that regime the hypergraph is normal exactly when the vertex count
    is odd or some edge has even dimension (odd vertex count, dimension
    |E| - 1); otherwise the all-halves combination is a witness.  Both
    directions are exact, so this is a decision, not a heuristic.  The
    not-normal case is ``connected_odd_fires``; the other branches name
    the clause that failed.
    """
    _require_separated(hypergraph)
    skeleton = hypergraph.skeleton
    s = hypergraph.num_vertices
    if connected_odd_fires((1 << s) - 1, hypergraph.edge_masks, skeleton):
        witness = _witness_on(hypergraph, 2, [1] * s, s // 2)
        return RuleOutcome(
            NOT_NORMAL,
            f"vertex count {s} is even and every edge has odd dimension",
            witness=witness,
        )
    if len(skeleton) > 1:
        return RuleOutcome(INAPPLICABLE, "1-skeleton is not connected")
    if all(even is not None for _, even in skeleton):
        return RuleOutcome(INAPPLICABLE, "1-skeleton has no odd cycle")
    if s % 2 == 1:
        return RuleOutcome(NORMAL, f"vertex count {s} is odd")
    edge = next(edge for edge in hypergraph.edges if len(edge) % 2 == 1)
    return RuleOutcome(NORMAL, f"edge {edge} has even dimension {len(edge) - 1}")


def balanced_uniform_rule(hypergraph: LabeledHypergraph) -> RuleOutcome:
    """Normal when generators share one degree and no special odd cycle exists.

    Sufficient only: an inapplicable answer says nothing.  The uniformity
    check runs first because it is trivial, the cycle search second under
    ``hypergraph.CYCLE_BUDGET`` nodes.
    """
    _require_separated(hypergraph)
    if hypergraph.num_vertices == 0:
        return RuleOutcome(INAPPLICABLE, "empty hypergraph")
    # generator v is the product of the labels whose image holds v
    degrees = [0] * hypergraph.num_vertices
    for _, image in hypergraph.labels:
        for v in image:
            degrees[v - 1] += 1
    if len(set(degrees)) != 1:
        listing = ",".join(str(d) for d in degrees)
        return RuleOutcome(
            INAPPLICABLE, f"generator degrees not uniform: ({listing})"
        )
    try:
        cycle = find_special_odd_cycle(hypergraph)
    except BudgetExceeded as exc:
        return RuleOutcome(BUDGET_EXCEEDED, str(exc))
    if cycle is not None:
        return RuleOutcome(
            INAPPLICABLE,
            f"special odd cycle on vertices {cycle.vertices}",
        )
    return RuleOutcome(
        NORMAL,
        f"balanced with uniform generator degree {degrees[0]}",
    )


def odd_cycle_rule(
    hypergraph: LabeledHypergraph, budget: int = ODD_CYCLE_BUDGET
) -> RuleOutcome:
    """Decide by the odd cycle condition, when every generator has degree 2.

    Then the ideal is the edge ideal of a simple graph G on the labels,
    one edge per vertex, and the polytope is G's edge polytope.  That is
    normal iff every two vertex-disjoint chordless odd cycles of G are
    joined by an edge (Ohsugi-Hibi 1998; Simis-Vasconcelos-Villarreal
    1998), read over all of G, so two odd cycles in different components
    fail it.  A failing pair C1, C2 gives the witness: 1/2 on each edge of
    G with both ends in C1 u C2, which are exactly the |C1| + |C2| cycle
    edges since both cycles are chordless and no edge joins them, at
    degree (|C1| + |C2|)/2, with the indicator of C1 u C2 as its point.
    The graph G induces on C1 u C2 is two odd cycles, which have no
    perfect matching, so no sum of that many edges reaches the point.
    Each cycle is grown from its least label as a path with no chord,
    closed when it reaches a neighbour of that label; the path search
    runs under ``budget`` nodes.
    """
    labels = hypergraph.labels
    owners = [0] * (hypergraph.num_vertices + 1)
    for i, (_, image) in enumerate(labels):
        for v in image:
            owners[v] |= 1 << i
    adjacent = [0] * len(labels)
    for v in hypergraph.vertices:
        degree = owners[v].bit_count()
        if degree != 2:
            return RuleOutcome(INAPPLICABLE, f"generator {v} has degree {degree}, not 2")
        a, b = _members(owners[v])
        adjacent[a] |= 1 << b
        adjacent[b] |= 1 << a
    cycles: set[int] = set()
    nodes = budget
    for s, first in enumerate(adjacent):
        below = (2 << s) - 1  # labels a cycle from s may not use again
        # (path, tip, labels a step may not reach: the path and the interior's neighbours)
        stack = [((1 << s) | (1 << v), v, below | (1 << v)) for v in _members(first & ~below)]
        while stack:
            if nodes <= 0:
                return RuleOutcome(
                    BUDGET_EXCEEDED, f"odd-cycle search exceeded its budget of {budget} nodes"
                )
            nodes -= 1
            path, tip, blocked = stack.pop()
            steps = adjacent[tip] & ~blocked
            grown = blocked | adjacent[tip]
            while steps:
                bit = steps & -steps
                steps ^= bit
                if not bit & first:
                    stack.append((path | bit, bit.bit_length() - 1, grown))
                elif path.bit_count() % 2 == 0:
                    cycles.add(path | bit)
    ordered = sorted(cycles)
    for i, one in enumerate(ordered):
        # the cycle and every label next to it
        near = one
        for u in _members(one):
            near |= adjacent[u]
        for two in ordered[i + 1 :]:
            if near & two:
                continue
            union = one | two
            numerators = [int(owners[v] & union == owners[v]) for v in hypergraph.vertices]
            witness = _witness_on(hypergraph, 2, numerators, union.bit_count() // 2)
            one, two = (",".join(labels[u][0] for u in _members(c)) for c in (one, two))
            return RuleOutcome(
                NOT_NORMAL,
                f"chordless odd cycles {{{one}}} and {{{two}}} are disjoint and not joined",
                witness=witness,
            )
    return RuleOutcome(
        NORMAL, f"each two of its {len(cycles)} chordless odd cycles meet or are joined"
    )


def _members(mask: int) -> Iterable[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        bit = mask & -mask
        yield bit.bit_length() - 1
        mask ^= bit


def torsion_obstruction(hypergraph: LabeledHypergraph) -> RuleOutcome:
    """Torsion in the lattice quotient of the ideal's exponent rows: not normal.

    The certificate comes with a witness on the same hypergraph.  With w_i
    the homogenized exponent rows (v_i, 1), ``torsion_check`` has checked
    that m·u lies in their lattice, so u lies in their rational span and
    ``row_relations`` gives d·u = Σ c_i·w_i.  Taking away the lattice
    vector Σ ⌊c_i/d⌋·w_i leaves Σ ((c_i mod d)/d)·w_i: coefficients in
    [0, 1), and an integral point congruent to u, so outside the lattice,
    which no sum of vertices reaches (Bruns-Gubeladze 2009, ch. 2).
    """
    points = incidence_matrix(hypergraph)
    certificate = torsion_check(points)
    if certificate is None:
        return RuleOutcome(INAPPLICABLE, "lattice quotient torsion-free")
    u = certificate.u
    d, c = row_relations([[*point, 1] for point in points] + [list(u)])[-1]
    degree = u[-1] - sum(x // d for x in c)
    witness = _witness_on(hypergraph, d, [x % d for x in c], degree)
    return RuleOutcome(NOT_NORMAL, f"invariant factor {certificate.m}", witness, certificate)


def bicolor_evidence(
    state: int, edges: Collection[int], components: Sequence[tuple[int, int | None]]
) -> tuple[int, int, int] | None:
    """Theorem 4.5's prime, red class and designated edge, on masks, or None.

    ``edges`` are the edges of ``state`` and ``components`` their
    ``skeleton_components``.  It fires exactly on a 1-skeleton of one
    bipartite component, whose red class is the one holding the smallest
    vertex, an imbalance gcd g of at least 2, and an unbalanced simple
    edge.  g is the gcd of the total red/blue imbalance and every edge's;
    p is its smallest prime, and the designated edge is the first
    unbalanced simple edge in the order of ``edges``.  (An unbalanced edge
    makes g nonzero, so g = 1 is the only case the gcd rules out.)
    ``bicolor_obstruction`` and the engine's minor guard both decide
    through this one condition.
    """
    if len(components) != 1 or components[0][1] is None:
        return None
    red = components[0][1]
    g = abs(2 * red.bit_count() - state.bit_count())
    for edge in edges:
        g = gcd(g, abs(2 * (edge & red).bit_count() - edge.bit_count()))
    if g == 1:
        return None
    for edge in edges:
        if 2 * (edge & red).bit_count() != edge.bit_count() and not any(
            other != edge and other & edge == other for other in edges
        ):
            return next(prime_factors(g)), red, edge
    return None


def bicolor_obstruction(hypergraph: LabeledHypergraph) -> RuleOutcome:
    """Unbalanced simple edge under a modular 2-coloring: not normal.

    The 1-skeleton's coloring, connected and bipartite, is unique once the
    smallest vertex is red: red is the side at even distance from it.  p
    is the smallest prime dividing every edge's red/blue imbalance and the
    total one.  When a simple edge is unbalanced, 1/p on red vertices and
    (p-1)/p on blue ones give an integral point with no integral
    rewriting; the designated edge is the first such simple edge in
    canonical order.  Whether it fires is ``bicolor_evidence``.
    """
    _require_separated(hypergraph)
    n = hypergraph.num_vertices
    found = bicolor_evidence((1 << n) - 1, hypergraph.edge_masks, hypergraph.skeleton)
    if found is None:
        return RuleOutcome(INAPPLICABLE, "no unbalanced simple edge")
    p, even, designated = found
    red = {v for v in hypergraph.vertices if even >> (n - v) & 1}
    edge = tuple(v for v in hypergraph.vertices if designated >> (n - v) & 1)
    r = len(red.intersection(edge))
    b = len(edge) - r
    numerators = [1 if v in red else p - 1 for v in hypergraph.vertices]
    degree, rest = divmod(sum(numerators), p)
    assert not rest, "2-solvability makes the total integral"
    return RuleOutcome(
        NOT_NORMAL,
        f"p={p}, simple edge {edge} has {r} red / {b} blue",
        witness=_witness_on(hypergraph, p, numerators, degree),
    )


def fat_simple_edges(edges: Collection[int]) -> list[int]:
    """The edge masks of 3+ vertices holding no other edge, in order.

    Theorem 4.8 closes each of its cycles with one; its search and the
    engine's minor guard both take them from here.
    """
    return [
        g
        for g in edges
        if g.bit_count() >= 3 and not any(f != g and f & g == f for f in edges)
    ]


def _odd_cycle_candidates(
    hypergraph: LabeledHypergraph, spend: Callable[[int], None]
) -> list[tuple[int, int, Cycle]]:
    """(vertex mask, closing edge mask, cycle) for each candidate cycle.

    For each fat simple edge g and each vertex pair x < y in g, a
    depth-first search, spending a node per path it pops, lists the
    even-length skeleton paths from x to y whose interior avoids g; g
    closes each into an odd cycle.  The first path found per (vertex
    mask, g) is kept.  Sorting by (size, -vertex mask, -g) is sorting by
    (size, vertex tuple, g tuple): on masks of one size, and on simple
    edges, which never hold each other, integer order reverses tuple order.
    """
    n = hypergraph.num_vertices
    masks = hypergraph.edge_masks
    bits = [1 << (n - v) for v in range(n + 1)]
    # each vertex's skeleton neighbours descending, so the stack pops them ascending
    neighbours: list[list[int]] = [[] for _ in bits]
    for v, w in reversed([edge for edge in hypergraph.edges if len(edge) == 2]):
        neighbours[v].append(w)
        neighbours[w].append(v)
    vertices_of = dict(zip(masks, hypergraph.edges))
    found: dict[tuple[int, int], Cycle] = {}
    for g in fat_simple_edges(masks):
        closing = vertices_of[g]
        for x, y in combinations(closing, 2):
            stack = [((x,), bits[x])]
            while stack:
                spend(1)
                path, mask = stack.pop()
                for w in neighbours[path[-1]]:
                    if w == y:
                        key = (mask | bits[y], g)
                        if len(path) % 2 == 0 and key not in found:
                            cycle = path + (y,)
                            edges = tuple(tuple(sorted(step)) for step in zip(cycle, cycle[1:]))
                            found[key] = Cycle(cycle, edges + (closing,))
                    elif not bits[w] & (g | mask):
                        stack.append((path + (w,), mask | bits[w]))
    ordered = sorted(found, key=lambda key: (key[0].bit_count(), -key[0], -key[1]))
    return [(vertices, g, found[vertices, g]) for vertices, g in ordered]


def _connection_between(
    outside: Sequence[int], source: int, target: int, relaxed: bool
) -> tuple[int, ...] | None:
    """A chain of edge masks of ``outside`` from ``source`` to ``target``.

    Strict: the first edge meeting both.  Relaxed: the first chain a
    breadth-first search over edges finds, expanding in order.
    """
    if not relaxed:
        return next(((e,) for e in outside if e & source and e & target), None)
    queue = deque((e,) for e in outside if e & source)
    seen = {chain[-1] for chain in queue}
    while queue:
        chain = queue.popleft()
        if chain[-1] & target:
            return chain
        for e in outside:
            if e not in seen and chain[-1] & e:
                seen.add(e)
                queue.append(chain + (e,))
    return None


def _halves_decompose(
    hypergraph: LabeledHypergraph, union: int, spend: Callable[[int], None]
) -> bool:
    """Whether the all-halves point on the mask ``union`` is a sum of |union|/2 vertices.

    ``oracle.vertex_sums`` gives S_k, the sums of k vertices under the
    point.  Each step is paid for before it is taken: |S_(k-1)| times the
    number of vertices under the point.
    """
    from .oracle import vertex_sums  # the oracle imports this module

    point = tuple((mask & union).bit_count() // 2 for mask in hypergraph.label_masks)
    rows = incidence_matrix(hypergraph)
    under = sum(all(map(le, row, point)) for row in rows)
    steps, sums = vertex_sums(rows, ceiling=point), {(0,) * len(point)}
    for _ in range(union.bit_count() // 2):
        spend(len(sums) * under)
        sums = next(steps)
    return point in sums


def find_exceptional_pair(
    hypergraph: LabeledHypergraph, relaxed: bool = False, budget: int = PAIR_BUDGET
) -> ExceptionalPair | None:
    """Search for two connected odd cycles forming an obstruction pattern.

    Candidate cycles consist of skeleton edges closed by one simple edge
    of 3+ vertices; pairs are tried smallest-first, on vertex masks.  A
    pair qualifies when the cycles are fully disjoint, neither closing
    edge meets the other cycle, every edge meets their union evenly, a
    connector chain of edges missing the union exists (a single edge by
    default, an edge path when relaxed), and no sum of |union|/2 vertices
    of this hypergraph's own polytope reaches the all-halves point, so
    the witness is valid by construction.  The budget caps path-search
    nodes and sum-set additions together, and BudgetExceeded is raised
    when it runs out, so None always means "none exists".
    """
    nodes = budget

    def spend(count: int) -> None:
        nonlocal nodes
        if count > nodes:
            raise BudgetExceeded(
                f"exceptional-pair search exceeded its budget of {budget} nodes"
            )
        nodes -= count

    candidates = _odd_cycle_candidates(hypergraph, spend)
    masks = hypergraph.edge_masks
    for i, (one, g_one, cycle_one) in enumerate(candidates):
        for two, g_two, cycle_two in candidates[i + 1 :]:
            if one & two or g_one & two or g_two & one:
                continue
            union = one | two
            if any((e & union).bit_count() % 2 for e in masks):
                continue
            outside = [e for e in masks if not e & union]
            connection = _connection_between(outside, g_one & ~union, g_two & ~union, relaxed)
            if connection is None or _halves_decompose(hypergraph, union, spend):
                continue
            vertices_of = dict(zip(masks, hypergraph.edges))
            return ExceptionalPair(
                cycle_one,
                cycle_two,
                vertices_of[g_one],
                vertices_of[g_two],
                tuple(map(vertices_of.__getitem__, connection)),
            )
    return None


def exceptional_pair_rule(
    hypergraph: LabeledHypergraph, relaxed: bool = False
) -> RuleOutcome:
    """Theorem 4.8: an exceptional pair of odd cycles, and its all-halves witness.

    The witness is 1/2 on the vertices of both cycles, whose point the
    search has already found to admit no decomposition.
    """
    try:
        pair = find_exceptional_pair(hypergraph, relaxed=relaxed)
    except BudgetExceeded as exc:
        return RuleOutcome(BUDGET_EXCEEDED, str(exc))
    if pair is None:
        return RuleOutcome(INAPPLICABLE, "no exceptional pair found")
    union = {*pair.cycle_one.vertices, *pair.cycle_two.vertices}
    numerators = [int(v in union) for v in hypergraph.vertices]
    return RuleOutcome(
        NOT_NORMAL,
        f"cycles {pair.cycle_one.vertices} and {pair.cycle_two.vertices}",
        witness=_witness_on(hypergraph, 2, numerators, len(union) // 2),
    )


def lift_witness(
    context: ReductionTrace | MinorTrace, witness: Witness
) -> Witness:
    """Transport a witness from a reduced or minor hypergraph to its parent.

    Removed vertices receive coefficient 0 and the point is recomputed
    over the parent's full label set.  A non-integral recomputed point
    means the witness does not belong to this trace and raises ValueError.
    """
    if isinstance(context, ReductionTrace):
        parent = context.original
    elif isinstance(context, MinorTrace):
        parent = context.parent
    else:
        raise TypeError(f"cannot lift through {type(context).__name__}")
    surviving = context.surviving
    if len(witness.numerators) != len(surviving):
        raise ValueError(
            f"witness has {len(witness.numerators)} coefficients but the "
            f"trace keeps {len(surviving)} vertices"
        )
    lifted = [0] * parent.num_vertices
    for numerator, original_vertex in zip(witness.numerators, surviving):
        lifted[original_vertex - 1] = numerator
    # Witness.over rejects the recomputed point when it is not integral
    return _witness_on(parent, witness.denominator, lifted, witness.degree)
