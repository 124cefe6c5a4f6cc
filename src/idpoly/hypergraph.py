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
reverse of lexicographic order on their vertex tuples.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

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

    @property
    def dimension(self) -> int:
        return len(self.vertices) - 1


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

    def is_special_in(self, cycle_vertices: frozenset[int] | None = None) -> bool:
        """True when no cycle edge contains more than two cycle vertices."""
        verts = cycle_vertices or frozenset(self.vertices)
        return all(len(verts.intersection(e)) <= 2 for e in self.edges)


@dataclass(frozen=True)
class SkeletonComponent:
    vertices: tuple[int, ...]
    coloring: tuple[tuple[int, int], ...] | None
    odd_cycle: tuple[int, ...] | None


class Skeleton:
    """The ordinary graph formed by the 2-vertex edges of a hypergraph.

    LabeledHypergraph.one_skeleton hands every caller the same instance,
    so the adjacency is read-only.
    """

    def __init__(self, num_vertices: int, edges: Sequence[tuple[int, int]]):
        self.num_vertices = num_vertices
        self.edges = tuple(tuple(sorted(e)) for e in edges)
        adjacency: dict[int, list[int]] = {v: [] for v in range(1, num_vertices + 1)}
        for v, w in self.edges:
            adjacency[v].append(w)
            adjacency[w].append(v)
        self.adjacency = {v: tuple(sorted(nbrs)) for v, nbrs in adjacency.items()}

    @cached_property
    def components(self) -> tuple[SkeletonComponent, ...]:
        out: list[SkeletonComponent] = []
        seen: set[int] = set()
        for start in range(1, self.num_vertices + 1):
            if start in seen:
                continue
            color = {start: 0}
            parent: dict[int, int | None] = {start: None}
            order = [start]
            queue = [start]
            odd_cycle: tuple[int, ...] | None = None
            while queue:
                v = queue.pop(0)
                for w in self.adjacency[v]:
                    if w not in color:
                        color[w] = 1 - color[v]
                        parent[w] = v
                        order.append(w)
                        queue.append(w)
                    elif color[w] == color[v] and odd_cycle is None:
                        odd_cycle = self._cycle_through(parent, v, w)
            seen.update(color)
            verts = tuple(sorted(color))
            if odd_cycle is None:
                coloring = tuple(sorted(color.items()))
                out.append(SkeletonComponent(verts, coloring, None))
            else:
                out.append(SkeletonComponent(verts, None, odd_cycle))
        return tuple(out)

    @staticmethod
    def _cycle_through(parent: dict[int, int | None], v: int, w: int) -> tuple[int, ...]:
        path_v = [v]
        while parent[path_v[-1]] is not None:
            path_v.append(parent[path_v[-1]])  # type: ignore[arg-type]
        path_w = [w]
        while parent[path_w[-1]] is not None:
            path_w.append(parent[path_w[-1]])  # type: ignore[arg-type]
        ancestors_v = set(path_v)
        meet = next(u for u in path_w if u in ancestors_v)
        up = path_v[: path_v.index(meet) + 1]
        down = path_w[: path_w.index(meet)]
        return tuple(up + list(reversed(down)))

    @property
    def is_connected(self) -> bool:
        return len(self.components) <= 1

    @property
    def is_bipartite(self) -> bool:
        return all(c.coloring is not None for c in self.components)

    def first_odd_cycle(self) -> tuple[int, ...] | None:
        for comp in self.components:
            if comp.odd_cycle is not None:
                return comp.odd_cycle
        return None

    def connected_coloring(self) -> dict[int, int] | None:
        """Proper 2-coloring of a connected bipartite skeleton, else None.

        The smallest vertex gets color 0, which pins the coloring since a
        connected graph admits at most one up to swapping the colors.
        """
        if not self.is_connected or self.num_vertices == 0:
            return None
        comp = self.components[0]
        if comp.coloring is None:
            return None
        return dict(comp.coloring)


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

    def one_skeleton(self) -> Skeleton:
        return self._one_skeleton

    @cached_property
    def _one_skeleton(self) -> Skeleton:
        pairs = [e for e in self.edges if len(e) == 2]
        return Skeleton(self.num_vertices, pairs)  # type: ignore[arg-type]


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


def incidence_matrix(
    hypergraph: LabeledHypergraph, expand_labels: bool = False
) -> tuple[tuple[int, ...], ...]:
    """Vertex-by-edge 0-1 incidence matrix.

    Collapsed form has one column per edge in canonical order.  Expanded
    form has one column per alphabet entry in label order (an edge with t
    labels appears as t copies, and a label touching nothing contributes a
    zero column), which makes the matrix coincide with the exponent matrix
    of the corresponding ideal.
    """
    if expand_labels:
        columns: list[frozenset[int]] = [img for _, img in hypergraph.labels]
    else:
        columns = [frozenset(e) for e in hypergraph.edges]
    return tuple(
        tuple(1 if v in col else 0 for col in columns) for v in hypergraph.vertices
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


def delete_edge(
    hypergraph: LabeledHypergraph, edge: Iterable[int]
) -> tuple[LabeledHypergraph, MinorTrace]:
    """Remove an edge and all of its vertices."""
    target = frozenset(edge)
    if target not in hypergraph._edge_set:
        raise ValueError(f"{tuple(sorted(target))} is not an edge of the hypergraph")
    survivors = [v for v in hypergraph.vertices if v not in target]
    sub, mapping = induced_subhypergraph(hypergraph, survivors)
    trace = MinorTrace(hypergraph, (tuple(sorted(target)),), mapping)
    return sub, trace


def _mask_vertices(n: int, mask: int) -> tuple[int, ...]:
    # the highest set bit is the smallest vertex, so this ascends
    out = []
    while mask:
        bit = mask.bit_length() - 1
        out.append(n - bit)
        mask ^= 1 << bit
    return tuple(out)


def enumerate_minors(
    hypergraph: LabeledHypergraph, budget: int | None = None
) -> Iterator[tuple[LabeledHypergraph, MinorTrace]]:
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
    hypergraph.  Each deletion path is the first one found, and keys never
    tie, so the order in which one state's children are pushed cannot
    change the walk.  Minors are built by ``_restrict``, as in
    ``induced_subhypergraph``.
    """
    if budget is not None and budget <= 0:
        return
    n = hypergraph.num_vertices
    images = {sum(1 << (n - v) for v in img) for img in hypergraph._labels_by_image if img}
    start = (1 << n) - 1
    # deletion path per discovered state, in the parent's vertex ids
    paths: dict[int, tuple[tuple[int, ...], ...]] = {start: ()}
    heap: list[tuple[int, int]] = [(-n, -start)]
    yielded = 0
    while heap:
        _, negated = heapq.heappop(heap)
        state = -negated
        surviving = _mask_vertices(n, state)
        path = paths[state]
        yield _restrict(hypergraph, surviving), MinorTrace(hypergraph, path, surviving)
        yielded += 1
        if budget is not None and yielded >= budget:
            return
        for edge in {img & state for img in images}:
            child = state ^ edge  # edge 0 gives the state itself, already seen
            if child not in paths:
                paths[child] = path + (_mask_vertices(n, edge),)
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

    @property
    def is_empty(self) -> bool:
        return not self.rounds


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


def is_balanced(hypergraph: LabeledHypergraph, budget: int = CYCLE_BUDGET) -> bool:
    """True when the hypergraph has no special odd cycle."""
    return find_special_odd_cycle(hypergraph, budget=budget) is None
