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
to a parent hypergraph the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from math import gcd
from typing import Collection, Iterable, Sequence

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
    The designated edges may share a vertex off the cycles;
    exceptional_witness checks the point they give.
    """

    cycle_one: Cycle
    cycle_two: Cycle
    special_one: tuple[int, ...]
    special_two: tuple[int, ...]
    connection: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        c1, c2 = self.cycle_one, self.cycle_two
        for cycle in (c1, c2):
            if len(cycle) < 3 or len(cycle) % 2 == 0:
                raise ValueError("cycles must be odd of length at least 3")
        v1, v2 = set(c1.vertices), set(c2.vertices)
        shared = v1 & v2
        if shared:
            raise ValueError(f"cycles share vertex {min(shared)}")
        e1 = {frozenset(e) for e in c1.edges}
        e2 = {frozenset(e) for e in c2.edges}
        if e1 & e2:
            raise ValueError("cycles share an edge")
        cycle_vertices = v1 | v2
        for cycle, special in ((c1, self.special_one), (c2, self.special_two)):
            fs = frozenset(special)
            if fs not in {frozenset(e) for e in cycle.edges}:
                raise ValueError(f"{special} is not an edge of its cycle")
            for e in cycle.edges:
                if frozenset(e) != fs and len(e) != 2:
                    raise ValueError(f"non-designated cycle edge {e} is not 1-dimensional")
            if len(fs & cycle_vertices) != 2:
                raise ValueError(
                    f"designated edge {special} must meet the cycles in exactly 2 vertices"
                )
        if not self.connection:
            raise ValueError("connection cannot be empty")
        for e in self.connection:
            if set(e) & cycle_vertices:
                raise ValueError(f"connection edge {e} touches a cycle vertex")
        chain = [set(e) for e in self.connection]
        for first, second in zip(chain, chain[1:]):
            if not first & second:
                raise ValueError("connection edges do not chain up")
        if not chain[0] & (set(self.special_one) - cycle_vertices):
            raise ValueError("connection does not reach the first designated edge")
        if not chain[-1] & (set(self.special_two) - cycle_vertices):
            raise ValueError("connection does not reach the second designated edge")

    @property
    def cycle_vertices(self) -> frozenset[int]:
        return frozenset(self.cycle_one.vertices) | frozenset(self.cycle_two.vertices)


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


def _odd_cycle_candidates(
    hypergraph: LabeledHypergraph, budget: int
) -> list[tuple[tuple[int, ...], Cycle, tuple[int, ...]]]:
    """Odd cycles made of skeleton edges plus one fat simple edge.

    For each simple edge G with at least 3 vertices and each vertex pair
    x < y in G, enumerate even-length skeleton paths from x to y whose
    interior avoids G; the path closed by G is an odd cycle meeting G in
    exactly two vertices.  Deduplicated on (vertex set, G) and sorted by
    (size, vertex tuple, G).  Raises BudgetExceeded when the path search
    runs out of its node budget, since the list is then incomplete.
    """
    # canonical edge order lists each vertex's neighbours ascending
    adjacency: dict[int, list[int]] = {v: [] for v in hypergraph.vertices}
    for edge in hypergraph.edges:
        if len(edge) == 2:
            v, w = edge
            adjacency[v].append(w)
            adjacency[w].append(v)
    found: dict[tuple[tuple[int, ...], tuple[int, ...]], Cycle] = {}
    nodes = budget

    def paths(x: int, y: int, forbidden: set[int]) -> Iterable[tuple[int, ...]]:
        stack: list[tuple[int, ...]] = [(x,)]
        nonlocal nodes
        while stack:
            if nodes <= 0:
                raise BudgetExceeded(
                    f"exceptional-pair search exceeded its budget of {budget} nodes"
                )
            nodes -= 1
            path = stack.pop()
            tip = path[-1]
            for w in reversed(adjacency[tip]):
                if w == y:
                    if len(path) % 2 == 0 and len(path) >= 2:
                        yield path + (y,)
                    continue
                if w in forbidden or w in path:
                    continue
                stack.append(path + (w,))

    for simple in hypergraph.simple_edges():
        g = simple.vertices
        if len(g) < 3:
            continue
        g_set = set(g)
        for x, y in combinations(g, 2):
            for path in paths(x, y, g_set):
                key = (tuple(sorted(path)), g)
                if key in found:
                    continue
                skeleton_edges = tuple(
                    tuple(sorted((path[i], path[i + 1])))
                    for i in range(len(path) - 1)
                )
                found[key] = Cycle(path, skeleton_edges + (g,))
    items = [
        (vertices, cycle, g) for (vertices, g), cycle in sorted(found.items())
    ]
    items.sort(key=lambda item: (len(item[0]), item[0], item[2]))
    return items


def _connection_between(
    hypergraph: LabeledHypergraph,
    cycle_vertices: frozenset[int],
    source: set[int],
    target: set[int],
    relaxed: bool,
) -> tuple[tuple[int, ...], ...] | None:
    """Chain of off-cycle edges from source vertices to target vertices."""
    outside = [
        e for e in hypergraph.edges if not cycle_vertices.intersection(e)
    ]
    if not relaxed:
        for e in outside:
            if source.intersection(e) and target.intersection(e):
                return (e,)
        return None
    # breadth-first over edges, expanding in canonical order
    queue: list[tuple[tuple[int, ...], ...]] = [
        (e,) for e in outside if source.intersection(e)
    ]
    seen = {chain[-1] for chain in queue}
    while queue:
        chain = queue.pop(0)
        last = set(chain[-1])
        if target & last:
            return chain
        for e in outside:
            if e not in seen and last.intersection(e):
                seen.add(e)
                queue.append(chain + (e,))
    return None


def _halves_decompose(hypergraph: LabeledHypergraph, union: frozenset[int]) -> bool:
    """Whether the all-halves point on union is a sum of |union|/2 polytope vertices."""
    from .oracle import vertex_sums  # the oracle imports this module

    point = tuple(len(union & img) // 2 for _, img in hypergraph.labels)
    # only sums that stay under the point can add up to it
    sums = vertex_sums(incidence_matrix(hypergraph), ceiling=point)
    return point in next(islice(sums, len(union) // 2 - 1, None))


def find_exceptional_pair(
    hypergraph: LabeledHypergraph, relaxed: bool = False, budget: int = PAIR_BUDGET
) -> ExceptionalPair | None:
    """Search for two connected odd cycles forming an obstruction pattern.

    Candidate cycles consist of skeleton edges closed by one simple edge
    of 3+ vertices; pairs are tried smallest-first.  A pair qualifies when
    the cycles are fully disjoint, every edge meets their union evenly, a
    connector chain exists (a single edge by default, an edge path when
    relaxed), and no sum of |union|/2 vertices of this hypergraph's own
    polytope reaches the all-halves point, so the witness is valid by
    construction.  The budget caps path-search nodes;
    BudgetExceeded is raised when it runs out, before any pair is tried,
    so None always means "none exists".
    """
    candidates = _odd_cycle_candidates(hypergraph, budget)
    all_edges = hypergraph.edges
    for i in range(len(candidates)):
        vertices_one, cycle_one, g_one = candidates[i]
        set_one = frozenset(vertices_one)
        for j in range(i + 1, len(candidates)):
            vertices_two, cycle_two, g_two = candidates[j]
            set_two = frozenset(vertices_two)
            if set_one & set_two:
                continue
            union = set_one | set_two
            if set(g_one) & set_two or set(g_two) & set_one:
                continue
            if any(len(union.intersection(e)) % 2 for e in all_edges):
                continue
            connection = _connection_between(
                hypergraph,
                union,
                set(g_one) - union,
                set(g_two) - union,
                relaxed,
            )
            if connection is None:
                continue
            if _halves_decompose(hypergraph, union):
                continue
            return ExceptionalPair(cycle_one, cycle_two, g_one, g_two, connection)
    return None


def exceptional_witness(
    hypergraph: LabeledHypergraph, pair: ExceptionalPair
) -> Witness:
    """All-halves combination on the pair's cycle vertices.

    Validates the pair against the hypergraph and raises ValueError when
    anything fails: its edges must exist, its designated edges be simple,
    every edge meet the cycles evenly (exactly what makes the point
    integral), and the point must have no integer decomposition.
    """
    edge_set = {frozenset(e) for e in hypergraph.edges}
    for cycle in (pair.cycle_one, pair.cycle_two):
        for e in cycle.edges:
            if frozenset(e) not in edge_set:
                raise ValueError(f"cycle edge {e} is not an edge of the hypergraph")
    simple = {s.vertices for s in hypergraph.simple_edges()}
    for g in (pair.special_one, pair.special_two):
        if tuple(sorted(g)) not in simple:
            raise ValueError(f"designated edge {g} is not a simple edge")
    for e in pair.connection:
        if frozenset(e) not in edge_set:
            raise ValueError(f"connection edge {e} is not an edge of the hypergraph")
    union = pair.cycle_vertices
    for e in hypergraph.edges:
        if len(union.intersection(e)) % 2:
            raise ValueError(
                f"edge {e} meets the cycles in an odd number of vertices"
            )
    if _halves_decompose(hypergraph, union):
        raise ValueError("the all-halves point decomposes")
    numerators = [int(v in union) for v in hypergraph.vertices]
    return _witness_on(hypergraph, 2, numerators, len(union) // 2)


def exceptional_pair_rule(
    hypergraph: LabeledHypergraph, relaxed: bool = False
) -> RuleOutcome:
    """Theorem 4.8: an exceptional pair of odd cycles, and its all-halves witness."""
    try:
        pair = find_exceptional_pair(hypergraph, relaxed=relaxed)
    except BudgetExceeded as exc:
        return RuleOutcome(BUDGET_EXCEEDED, str(exc))
    if pair is None:
        return RuleOutcome(INAPPLICABLE, "no exceptional pair found")
    return RuleOutcome(
        NOT_NORMAL,
        f"cycles {pair.cycle_one.vertices} and {pair.cycle_two.vertices}",
        witness=exceptional_witness(hypergraph, pair),
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
