"""Reference integer decomposition by plain backtracking, for tests only.

This is the straightforward form of idpoly.oracle.integer_decomposition:
it backtracks over every vertex in input order with ascending
multiplicity, keeps the point left as a tuple, and prunes only by
per-vertex caps, a failure memo and a coverage check, with no packing,
no weight bound and no vertex filter.  It reads only ``ambient_dim``,
``num_vertices`` and ``vertices`` of the polytope, so the differential
tests hold the pruned search to an independent implementation.
"""

from __future__ import annotations

from typing import Sequence


def integer_decomposition(polytope, point: Sequence[int], degree: int) -> tuple[int, ...] | None:
    """The lexicographically least vertex multiplicities summing to the point, or None."""
    n = polytope.ambient_dim
    if len(point) != n:
        raise ValueError("point dimension mismatch")
    if degree < 0:
        return None
    s = polytope.num_vertices
    supports = [
        frozenset(j for j in range(n) if polytope.vertices[i][j])
        for i in range(s)
    ]
    reachable: list[frozenset[int]] = [frozenset()] * (s + 1)
    for i in range(s - 1, -1, -1):
        reachable[i] = reachable[i + 1] | supports[i]
    dead: set[tuple[int, tuple[int, ...], int]] = set()

    def search(index: int, remaining: tuple[int, ...], budget: int) -> list[int] | None:
        if budget == 0:
            return [0] * (s - index) if not any(remaining) else None
        if index == s:
            return None
        key = (index, remaining, budget)
        if key in dead:
            return None
        positive = {j for j, r in enumerate(remaining) if r}
        if not positive <= reachable[index]:
            dead.add(key)
            return None
        cap = budget
        for j in supports[index]:
            cap = min(cap, remaining[j])
        for count in range(cap + 1):
            if count:
                remaining = tuple(
                    r - 1 if j in supports[index] else r
                    for j, r in enumerate(remaining)
                )
            tail = search(index + 1, remaining, budget - count)
            if tail is not None:
                return [count] + tail
        dead.add(key)
        return None

    found = search(0, tuple(int(x) for x in point), degree)
    return tuple(found) if found is not None else None
