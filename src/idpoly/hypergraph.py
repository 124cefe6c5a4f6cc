"""Labeled hypergraphs of squarefree monomial ideals.

A labeled hypergraph is a finite vertex set {1..s} together with a map
from label names to vertex subsets.  Edges are the distinct nonempty
images; several labels may share one edge.  For the hypergraph of an
ideal the vertices are generator indices and the label of a variable is
the set of generators it divides, which makes the structural normality
rules combinatorial statements about edges, cycles and vertex parity.

Everything in this module is pure and deterministic: edges are kept in a
fixed canonical order (smallest vertex, then size, then lexicographic),
and all searches enumerate candidates in that order.  A LabeledHypergraph
is frozen, so the structure derived from it (edges, separation, simple
edges, 1-skeleton) is computed once per object and shared by every
caller; none of it may be mutated.

Restrictions to a vertex subset (induced subhypergraphs, the reduced
hypergraph, every minor) are built by one private constructor that skips
validation, since a restriction of a valid hypergraph is valid.  The
minor walk keeps each surviving vertex set as a bitmask, with vertex v of
n stored as bit n - v, so that integer order on masks of one size is the
reverse of lexicographic order on their vertex tuples.  It yields each
minor as a ``Minor`` record of masks (its vertex set, its edges and its
closed-vertex core), which builds its 1-skeleton, the minor as a
hypergraph, its deletion path and its ``MinorTrace`` only when asked:
the engine screens minors on the masks alone and builds only those on
which a detector runs.  The core is carried down the walk: each state's
core is peeled from its parent's, and not at all when the deleted edge
misses it, so a minor with an empty core costs the walk only the search
for its children.  The walk keeps one edge mask per discovered state,
the edge whose deletion found it, and one core per examined state, and
a ``Minor`` walks the edges back to its deletion path on first use,
which the engine asks for only for a hit.

The 1-skeleton is the ordinary graph of the 2-vertex edges, and
``skeleton_components`` is its one implementation: the components of a
vertex mask, each with its 2-coloring, or None for one with an odd
cycle.  The minor screen calls it on a minor's masks, and
``LabeledHypergraph.skeleton`` keeps its answer for the whole vertex
set, in the same bit layout, for the rules and the reports.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection, Iterable, Iterator

from .model import InputError, SquarefreeIdeal


class NotSeparatedError(ValueError):
    """The hypergraph has a vertex pair no edge tells apart.

    Such hypergraphs fall outside the ideal correspondence, so operations
    that need to reconstruct an ideal refuse them.  The offending ordered
    pair (v, w), with no edge containing v but not w, is attached.
    """

    def __init__(self, pair: tuple[int, int]):
        self.pair = pair
        super().__init__(
            f"hypergraph is not separated: every edge containing vertex "
            f"{pair[0]} also contains vertex {pair[1]}"
        )


class BudgetExceeded(RuntimeError):
    """A bounded search ran out of its node budget before resolving."""


# node budget of the special-odd-cycle search behind balancedness
CYCLE_BUDGET = 10**6


def edge_sort_key(edge: Iterable[int]) -> tuple[int, int, tuple[int, ...]]:
    tup = tuple(sorted(edge))
    return (tup[0], len(tup), tup)


@dataclass(frozen=True)
class Edge:
    """An edge together with the labels that map to it."""

    vertices: tuple[int, ...]
    labels: tuple[str, ...]


@dataclass(frozen=True)
class Cycle:
    """An alternating vertex/edge cycle: v_i and v_{i+1} lie on edge i."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        m = len(self.vertices)
        if m < 2 or len(self.edges) != m:
            raise ValueError("cycle needs equally many vertices and edges, at least 2")
        if len(set(self.vertices)) != m or len(set(self.edges)) != m:
            raise ValueError("cycle vertices and edges must be distinct")
        for i, edge in enumerate(self.edges):
            v, w = self.vertices[i], self.vertices[(i + 1) % m]
            if v not in edge or w not in edge:
                raise ValueError(f"edge {i} misses an endpoint of the cycle")

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class LabeledHypergraph:
    """Vertices 1..num_vertices plus an ordered label-to-subset map.

    The label order is the variable order of the originating ideal and is
    significant: reports and tie-breaks follow it.  Labels with empty
    image are allowed (they are alphabet entries that touch nothing) but
    every vertex must lie in some image.
    """

    num_vertices: int
    labels: tuple[tuple[str, frozenset[int]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "labels",
            tuple((name, frozenset(img)) for name, img in self.labels),
        )
        if self.num_vertices < 0:
            raise ValueError("vertex count cannot be negative")
        seen: set[str] = set()
        covered: set[int] = set()
        for name, image in self.labels:
            if not name:
                raise ValueError("empty label name")
            if name in seen:
                raise ValueError(f"duplicate label name {name!r}")
            seen.add(name)
            for v in image:
                if not 1 <= v <= self.num_vertices:
                    raise ValueError(f"label {name!r} touches unknown vertex {v}")
            covered.update(image)
        missing = set(range(1, self.num_vertices + 1)) - covered
        if missing:
            raise ValueError(f"vertex {min(missing)} lies on no edge")

    @property
    def vertices(self) -> range:
        return range(1, self.num_vertices + 1)

    @cached_property
    def _labels_by_image(self) -> dict[frozenset[int], tuple[str, ...]]:
        # each distinct image with the names mapping to it, in label order
        grouped: dict[frozenset[int], list[str]] = {}
        for name, img in self.labels:
            grouped.setdefault(img, []).append(name)
        return {img: tuple(names) for img, names in grouped.items()}

    @cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        distinct = (tuple(sorted(img)) for img in self._labels_by_image if img)
        return tuple(sorted(distinct, key=edge_sort_key))

    @cached_property
    def _edge_set(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(e) for e in self.edges)

    def labels_of(self, edge: Iterable[int]) -> tuple[str, ...]:
        """Names mapping to exactly this edge, in label order."""
        return self._labels_by_image.get(frozenset(edge), ())

    def edge_views(self) -> tuple[Edge, ...]:
        return tuple(Edge(e, self.labels_of(e)) for e in self.edges)

    def separation_violation(self) -> tuple[int, int] | None:
        """Lexicographically least ordered pair no edge splits, if any."""
        return self._separation_violation

    @cached_property
    def _separation_violation(self) -> tuple[int, int] | None:
        # bit i of mask[v] is set when v lies on the i-th nonempty image, so
        # v is not split from w exactly when mask[v] is a subset of mask[w]
        mask = [0] * (self.num_vertices + 1)
        bit = 1
        for _, img in self.labels:
            if img:
                for v in img:
                    mask[v] |= bit
                bit <<= 1
        for v in self.vertices:
            mv = mask[v]
            for w in self.vertices:
                if v != w and mv & mask[w] == mv:
                    return (v, w)
        return None

    @property
    def is_separated(self) -> bool:
        return self.separation_violation() is None

    def closed_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in self.vertices if frozenset((v,)) in self._edge_set)

    def open_vertices(self) -> tuple[int, ...]:
        closed = set(self.closed_vertices())
        return tuple(v for v in self.vertices if v not in closed)

    def simple_edges(self) -> tuple[Edge, ...]:
        """Edges containing no other edge as a proper subset."""
        return self._simple_edges

    @cached_property
    def _simple_edges(self) -> tuple[Edge, ...]:
        images = self._labels_by_image
        out = []
        for e in self.edges:
            es = frozenset(e)
            if not any(f < es for f in images if f):
                out.append(Edge(e, images[es]))
        return tuple(out)

    @cached_property
    def edge_masks(self) -> tuple[int, ...]:
        """The edges in canonical order as masks, vertex v of n as bit n - v."""
        n = self.num_vertices
        return tuple(sum(1 << (n - v) for v in e) for e in self.edges)

    @cached_property
    def skeleton(self) -> tuple[tuple[int, int | None], ...]:
        """``skeleton_components`` of the whole vertex set, in ``edge_masks``' layout."""
        return tuple(skeleton_components((1 << self.num_vertices) - 1, self.edge_masks))


def build_from_ideal(ideal: SquarefreeIdeal) -> LabeledHypergraph:
    """Hypergraph on generator indices; a variable maps to the generators it divides."""
    labels = tuple(
        (
            name,
            frozenset(
                j + 1 for j, gen in enumerate(ideal.generators) if name in gen
            ),
        )
        for name in ideal.variables
    )
    return LabeledHypergraph(len(ideal.generators), labels)


def ideal_of(hypergraph: LabeledHypergraph) -> SquarefreeIdeal:
    """Reconstruct the ideal: generator v multiplies the labels covering v.

    Only separated hypergraphs correspond to ideals; anything else raises
    NotSeparatedError with the first offending vertex pair.
    """
    violation = hypergraph.separation_violation()
    if violation is not None:
        raise NotSeparatedError(violation)
    if hypergraph.num_vertices == 0:
        raise InputError("the empty hypergraph has no ideal")
    variables = tuple(name for name, _ in hypergraph.labels)
    generators = tuple(
        frozenset(name for name, img in hypergraph.labels if v in img)
        for v in hypergraph.vertices
    )
    return SquarefreeIdeal(variables, generators)


def incidence_matrix(hypergraph: LabeledHypergraph) -> tuple[tuple[int, ...], ...]:
    """Vertex-by-label 0-1 incidence matrix.

    One column per alphabet entry in label order (an edge with t labels
    appears as t copies, and a label touching nothing contributes a zero
    column), which makes the matrix coincide with the exponent matrix of
    the corresponding ideal.
    """
    return tuple(
        tuple(1 if v in img else 0 for _, img in hypergraph.labels)
        for v in hypergraph.vertices
    )


def induced_subhypergraph(
    hypergraph: LabeledHypergraph, vertices: Iterable[int]
) -> tuple[LabeledHypergraph, tuple[int, ...]]:
    """Restrict to a vertex subset, renumbering 1..k order-preservingly.

    Labels whose image misses the subset entirely are dropped.  Returns the
    restriction together with the mapping tuple: new vertex i+1 is old
    vertex mapping[i].
    """
    keep = tuple(sorted(set(vertices)))
    for v in keep:
        if not 1 <= v <= hypergraph.num_vertices:
            raise ValueError(f"vertex {v} is not in the hypergraph")
    return _restrict(hypergraph, keep), keep


def _restrict(
    hypergraph: LabeledHypergraph, keep: tuple[int, ...]
) -> LabeledHypergraph:
    """The restriction to ``keep``, ascending vertices of the hypergraph.

    Every restriction, minors included, is built here, and without
    __post_init__: label names stay distinct and nonempty, images stay
    frozensets inside 1..len(keep), and every kept vertex keeps an image,
    so its checks could never fail.
    """
    renumber = {old: new for new, old in enumerate(keep, start=1)}.get
    labels = []
    for name, img in hypergraph.labels:
        # new ids start at 1, so filter(None, ...) drops exactly the lost ones
        contracted = frozenset(filter(None, map(renumber, img)))
        if contracted:
            labels.append((name, contracted))
    restricted = object.__new__(LabeledHypergraph)
    object.__setattr__(restricted, "num_vertices", len(keep))
    object.__setattr__(restricted, "labels", tuple(labels))
    return restricted


@dataclass(frozen=True)
class MinorTrace:
    """Provenance of a minor: which edges were deleted, who survived.

    Deleted edges are recorded in the parent's vertex ids, in deletion
    order, each as contracted at its deletion time.  Deleting an edge
    removes the edge and all of its vertices.
    """

    parent: LabeledHypergraph
    deleted_edges: tuple[tuple[int, ...], ...]
    surviving: tuple[int, ...]


def _mask_vertices(n: int, mask: int) -> tuple[int, ...]:
    # the highest set bit is the smallest vertex, so this ascends
    out = []
    while mask:
        bit = mask.bit_length() - 1
        out.append(n - bit)
        mask ^= 1 << bit
    return tuple(out)


@dataclass(eq=False)
class Minor:
    """One state of the minor walk, as masks; built into a hypergraph on demand.

    ``state`` is the surviving vertex set and ``edges`` the minor's
    distinct edges, each a mask in the parent's bit layout (vertex v of
    its n vertices is bit n - v).  ``core`` is ``closed_core(state,
    edges)``, carried down the walk from the state this one was found
    from (see ``enumerate_minors``).  ``deleted`` is the walk's map from
    each state it has found to the edge mask whose deletion found it (0
    for the parent itself); the state it was found from is that state
    with the edge put back.  ``components`` (``skeleton_components`` of
    the masks), ``path`` (the deletion path, in the parent's vertex ids),
    ``hypergraph`` (built by ``_restrict``, as in
    ``induced_subhypergraph``) and ``trace`` are made on first access and
    kept, so a caller that screens a minor on its masks and rejects it
    never pays for any of them.
    """

    parent: LabeledHypergraph
    state: int
    edges: set[int]
    core: int
    deleted: dict[int, int] = field(repr=False)

    @property
    def num_vertices(self) -> int:
        return self.state.bit_count()

    @cached_property
    def components(self) -> list[tuple[int, int | None]]:
        return skeleton_components(self.state, self.edges)

    @cached_property
    def path(self) -> tuple[tuple[int, ...], ...]:
        n = self.parent.num_vertices
        steps = []
        state = self.state
        while edge := self.deleted[state]:
            steps.append(_mask_vertices(n, edge))
            state |= edge
        return tuple(reversed(steps))

    @cached_property
    def surviving(self) -> tuple[int, ...]:
        return _mask_vertices(self.parent.num_vertices, self.state)

    @cached_property
    def hypergraph(self) -> LabeledHypergraph:
        return _restrict(self.parent, self.surviving)

    @cached_property
    def trace(self) -> MinorTrace:
        return MinorTrace(self.parent, self.path, self.surviving)


def enumerate_minors(
    hypergraph: LabeledHypergraph, budget: int | None = None
) -> Iterator[Minor]:
    """Stream all minors reachable by iterated edge deletion.

    A minor is determined by its surviving vertex set, so states are
    deduplicated on that; enumeration is largest-first with lexicographic
    tie-breaks on the surviving tuple, starting with the hypergraph itself
    (the empty deletion sequence).  At most ``budget`` minors are yielded
    when a budget is given.

    A state is one int with vertex v of the n vertices stored as bit n - v.
    Of two surviving sets of one size, the lexicographically smaller
    tuple holds the smallest vertex where they differ, which is their
    highest differing bit, so it is the larger int; the heap key
    (-popcount, -mask) is therefore the tuple order.  The edges of a state
    are the distinct nonzero ``image & state`` over the images of the
    hypergraph, kept as a plain set: the walk needs them to find the
    state's children, and the yielded ``Minor`` carries them, so a caller
    can screen the minor on masks and build it only if it passes.  Each
    deletion path is the first one found, and keys never tie, so the
    order in which one state's children are pushed cannot change the
    walk.  A path is kept as the last edge deleted on it, per state, and
    built only by ``Minor.path``.

    Each state's closed-vertex core is found from the core of the state
    it was found from, its parent, kept per examined state.  Peeling
    closed vertices is monotone: a vertex set Y with no closed vertex
    (no edge meets Y in it alone) is never peeled from any X containing
    Y, since an edge meeting the survivors in one vertex of Y meets Y in
    it alone.  So core(X) is the largest subset of X with no closed
    vertex, and S ⊆ T implies core(S) ⊆ core(T).  Hence core(child) lies
    in core(parent) & child, which lies in child, and peeling that set
    gives core(child).  When the deleted edge misses core(parent), every
    edge meets core(parent) as it did in the parent, so core(child) is
    core(parent) with nothing to peel; and an empty core stays empty in
    every descendant.
    """
    if budget is not None and budget <= 0:
        return
    n = hypergraph.num_vertices
    images = {sum(1 << (n - v) for v in img) for img in hypergraph._labels_by_image if img}
    start = (1 << n) - 1
    # per discovered state, the edge whose deletion found it
    deleted = {start: 0}
    # per examined state, its closed-vertex core
    cores: dict[int, int] = {}
    heap: list[tuple[int, int]] = [(-n, -start)]
    yielded = 0
    while heap:
        _, negated = heapq.heappop(heap)
        state = -negated
        edges = {img & state for img in images}
        edges.discard(0)
        edge = deleted[state]
        if edge:
            core = cores[state | edge]  # the parent's
            if core & edge:
                core = closed_core(core & state, edges)
        else:
            core = closed_core(state, edges)
        cores[state] = core
        yield Minor(hypergraph, state, edges, core, deleted)
        yielded += 1
        if budget is not None and yielded >= budget:
            return
        for edge in edges:
            child = state ^ edge
            if child not in deleted:
                deleted[child] = edge
                heapq.heappush(heap, (-child.bit_count(), -child))


@dataclass(frozen=True)
class ReductionTrace:
    """Record of the closed-vertex fixpoint: rounds of (vertex, label).

    Each round lists the vertices that were closed at that point, with the
    first label (in label order) whose contracted image was exactly that
    vertex.  Vertex ids are those of the original hypergraph.
    """

    original: LabeledHypergraph
    rounds: tuple[tuple[tuple[int, str], ...], ...]
    surviving: tuple[int, ...]

    @property
    def removed(self) -> tuple[int, ...]:
        return tuple(v for rnd in self.rounds for v, _ in rnd)


def reduce_closed_fixpoint(
    hypergraph: LabeledHypergraph,
) -> tuple[LabeledHypergraph, ReductionTrace]:
    """Repeatedly strip closed vertices until none remain.

    A vertex is closed when some label covers exactly it; such a vertex
    forces coefficient 0 in any fractional decomposition, so removing it
    (contracting every edge through it) preserves normality in both
    directions.  Removal is simultaneous per round and a round can close
    new vertices, hence the fixpoint.
    """
    survivors = set(hypergraph.vertices)
    rounds: list[tuple[tuple[int, str], ...]] = []
    while True:
        current: dict[int, str] = {}
        for name, img in hypergraph.labels:
            contracted = img & survivors
            if len(contracted) == 1:
                (v,) = contracted
                current.setdefault(v, name)
        if not current:
            break
        rounds.append(tuple((v, current[v]) for v in sorted(current)))
        survivors -= current.keys()
    reduced, mapping = induced_subhypergraph(hypergraph, survivors)
    return reduced, ReductionTrace(hypergraph, tuple(rounds), mapping)


def closed_core(state: int, edges: Collection[int]) -> int:
    """The vertices of ``state`` left by stripping closed vertices to a fixpoint.

    ``edges`` are the edges of the vertex set ``state``, as masks.  This
    is ``reduce_closed_fixpoint`` on masks: each round removes every
    vertex that some edge, restricted to the survivors, covers alone.

    On the lattice side it preserves torsion.  A closed vertex v makes
    e_v a column of the homogenized incidence matrix (rows are vertices,
    columns are labels plus the all-ones column).  Subtracting multiples
    of that unit column clears the rest of row v, so the matrix is [1]
    plus the matrix with row v and that column deleted, and the Smith
    form splits off a 1.  Columns that become zero or repeat another
    column add no invariant factor.  So the invariant factors above 1,
    hence the torsion, are those of the core's matrix: its vertices, the
    distinct nonzero ``edge & core``, and the all-ones column.  An empty
    core is torsion-free.
    """
    core = state
    while True:
        closed = 0
        for edge in edges:
            rest = edge & core
            if rest and not rest & (rest - 1):
                closed |= rest
        if not closed:
            return core
        core ^= closed


def skeleton_components(
    state: int, edges: Collection[int]
) -> list[tuple[int, int | None]]:
    """The 1-skeleton's components, each with its 2-coloring, as masks.

    ``edges`` are the edges of the vertex set ``state``, as masks, and
    the 2-vertex ones make up the 1-skeleton.  Every vertex of ``state``
    lies in exactly one component, a vertex on no 2-vertex edge in one of
    its own.  Each component is grown breadth-first from its highest bit,
    which is its smallest vertex, so components come in smallest-vertex
    order.  Beside it comes the mask of its vertices at even distance
    from that vertex, the color class holding it, or None when a 2-vertex
    edge joins two vertices of one layer, which closes an odd cycle.
    """
    pairs = [edge for edge in edges if edge.bit_count() == 2]
    components = []
    while state:
        layer = 1 << (state.bit_length() - 1)
        component = even = layer
        odd_cycle = False
        depth = 0
        while layer:
            grown = 0
            outside = []
            for pair in pairs:
                ends = pair & layer
                if not ends:
                    outside.append(pair)
                elif ends == pair:
                    odd_cycle = True
                else:
                    grown |= pair
            pairs = outside
            layer = grown & ~component
            component |= layer
            depth += 1
            if depth % 2 == 0:
                even |= layer
        components.append((component, None if odd_cycle else even))
        state &= ~component
    return components


def find_special_odd_cycle(
    hypergraph: LabeledHypergraph, budget: int = CYCLE_BUDGET
) -> Cycle | None:
    """Search for an odd cycle whose edges each meet it in exactly 2 vertices.

    Exact backtracking in canonical order: smallest start vertex first,
    then edges in canonical order and next vertices ascending.  Raises
    BudgetExceeded when the node budget runs out before the search space
    is exhausted, in which case absence has not been established.
    """
    edges = hypergraph.edges
    if not edges:
        return None
    by_vertex: dict[int, list[tuple[int, ...]]] = {v: [] for v in hypergraph.vertices}
    for e in edges:
        for v in e:
            by_vertex[v].append(e)
    nodes_left = budget

    def extend(
        path: list[int],
        used: list[tuple[int, ...]],
        covered: set[int],
    ) -> Cycle | None:
        nonlocal nodes_left
        if nodes_left <= 0:
            raise BudgetExceeded(
                f"special-cycle search exceeded its budget of {budget} nodes"
            )
        nodes_left -= 1
        tip = path[-1]
        start = path[0]
        path_set = set(path)
        for edge in by_vertex[tip]:
            if edge in used:
                continue
            overlap = path_set.intersection(edge)
            if len(path) >= 3 and len(path) % 2 == 1 and overlap == {tip, start}:
                return Cycle(tuple(path), tuple(used) + (edge,))
            if overlap != {tip}:
                continue
            for w in sorted(set(edge) - covered):
                if w <= start:
                    continue
                found = extend(path + [w], used + [edge], covered | set(edge))
                if found is not None:
                    return found
        return None

    for start in hypergraph.vertices:
        found = extend([start], [], {start})
        if found is not None:
            return found
    return None


def is_balanced(hypergraph: LabeledHypergraph) -> bool:
    """True when the hypergraph has no special odd cycle."""
    return find_special_odd_cycle(hypergraph) is None
