"""Reference searches on vertex tuples and sets, for tests only.

These are the tuple forms of idpoly's mask searches:
- ``find_exceptional_pair`` lists its candidate cycles as vertex tuples,
  tests pairs on frozensets and connects them by a breadth-first search
  over edge tuples.  It tests the all-halves point with
  ``oracle.vertex_sums`` over the full incidence matrix, and spends the
  same budget as the mask search: one node per path popped, and before
  each sum-set step |S_(k-1)| times the number of vertices under the
  point.
- ``find_special_odd_cycle`` is the recursive backtracking search, one
  interpreter frame per path vertex.
- ``quadratic_simple_edges`` finds the simple edges by a scan of every
  edge pair.

The differential tests hold idpoly's searches to them.
"""

from __future__ import annotations

from itertools import combinations
from operator import le
from typing import Iterable

from idpoly.certificates import PAIR_BUDGET, ExceptionalPair
from idpoly.hypergraph import (
    CYCLE_BUDGET,
    BudgetExceeded,
    Cycle,
    Edge,
    LabeledHypergraph,
    incidence_matrix,
)
from idpoly.oracle import vertex_sums


def quadratic_simple_edges(h: LabeledHypergraph) -> tuple[Edge, ...]:
    """Edges with no other edge strictly inside, labels by a full scan."""
    edge_set = {frozenset(e) for e in h.edges}
    return tuple(
        Edge(e, tuple(name for name, img in h.labels if img == frozenset(e)))
        for e in h.edges
        if not any(f < frozenset(e) for f in edge_set if f != frozenset(e))
    )


class _Budget:
    """The pair search's node pool, shared by its paths and its sum sets."""

    def __init__(self, budget: int) -> None:
        self.budget = self.left = budget

    def spend(self, count: int) -> None:
        if count > self.left:
            raise BudgetExceeded(
                f"exceptional-pair search exceeded its budget of {self.budget} nodes"
            )
        self.left -= count


def odd_cycle_candidates(
    hypergraph: LabeledHypergraph, budget: _Budget
) -> list[tuple[tuple[int, ...], Cycle, tuple[int, ...]]]:
    """Odd cycles made of skeleton edges plus one fat simple edge.

    For each simple edge G with at least 3 vertices and each vertex pair
    x < y in G, enumerate even-length skeleton paths from x to y whose
    interior avoids G; the path closed by G is an odd cycle meeting G in
    exactly two vertices.  Deduplicated on (vertex set, G) and sorted by
    (size, vertex tuple, G).
    """
    # canonical edge order lists each vertex's neighbours ascending
    adjacency: dict[int, list[int]] = {v: [] for v in hypergraph.vertices}
    for edge in hypergraph.edges:
        if len(edge) == 2:
            v, w = edge
            adjacency[v].append(w)
            adjacency[w].append(v)
    found: dict[tuple[tuple[int, ...], tuple[int, ...]], Cycle] = {}

    def paths(x: int, y: int, forbidden: set[int]) -> Iterable[tuple[int, ...]]:
        stack: list[tuple[int, ...]] = [(x,)]
        while stack:
            budget.spend(1)
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

    for simple in quadratic_simple_edges(hypergraph):
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
                    tuple(sorted((path[i], path[i + 1]))) for i in range(len(path) - 1)
                )
                found[key] = Cycle(path, skeleton_edges + (g,))
    items = [(vertices, cycle, g) for (vertices, g), cycle in sorted(found.items())]
    items.sort(key=lambda item: (len(item[0]), item[0], item[2]))
    return items


def connection_between(
    hypergraph: LabeledHypergraph,
    cycle_vertices: frozenset[int],
    source: set[int],
    target: set[int],
    relaxed: bool,
) -> tuple[tuple[int, ...], ...] | None:
    """Chain of off-cycle edges from source vertices to target vertices."""
    outside = [e for e in hypergraph.edges if not cycle_vertices.intersection(e)]
    if not relaxed:
        for e in outside:
            if source.intersection(e) and target.intersection(e):
                return (e,)
        return None
    # breadth-first over edges, expanding in canonical order
    queue: list[tuple[tuple[int, ...], ...]] = [(e,) for e in outside if source.intersection(e)]
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


def halves_decompose(
    hypergraph: LabeledHypergraph, union: frozenset[int], budget: _Budget
) -> bool:
    """Whether the all-halves point on union is a sum of |union|/2 polytope vertices."""
    point = tuple(len(union & img) // 2 for _, img in hypergraph.labels)
    rows = incidence_matrix(hypergraph)
    under = sum(all(map(le, row, point)) for row in rows)
    # only sums that stay under the point can add up to it
    sums = vertex_sums(rows, ceiling=point)
    current = {(0,) * len(point)}
    for _ in range(len(union) // 2):
        budget.spend(len(current) * under)
        current = next(sums)
    return point in current


def find_exceptional_pair(
    hypergraph: LabeledHypergraph, relaxed: bool = False, budget: int = PAIR_BUDGET
) -> ExceptionalPair | None:
    """Two connected odd cycles forming an obstruction pattern, smallest pair first."""
    pool = _Budget(budget)
    candidates = odd_cycle_candidates(hypergraph, pool)
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
            connection = connection_between(
                hypergraph, union, set(g_one) - union, set(g_two) - union, relaxed
            )
            if connection is None:
                continue
            if halves_decompose(hypergraph, union, pool):
                continue
            return ExceptionalPair(cycle_one, cycle_two, g_one, g_two, connection)
    return None


def find_special_odd_cycle(
    hypergraph: LabeledHypergraph, budget: int = CYCLE_BUDGET
) -> Cycle | None:
    """An odd cycle whose edges each meet it in exactly 2 vertices, by recursion."""
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
            raise BudgetExceeded(f"special-cycle search exceeded its budget of {budget} nodes")
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
