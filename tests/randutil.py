"""Random minimal squarefree ideals and their hypergraphs for the randomized suites."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from idpoly.hypergraph import LabeledHypergraph, build_from_ideal
from idpoly.model import SquarefreeIdeal


def random_minimal_ideal(
    rng: random.Random, max_vars: int = 9, max_gens: int = 6
) -> SquarefreeIdeal:
    """Draw a small ideal whose supports form an antichain.

    Supports are sampled and kept only when incomparable with everything
    drawn so far, so the result is minimal by construction.  Variables
    that end up unused are dropped and the rest renamed x1..xk, which
    keeps instances small without skewing the support distribution.
    """
    n = rng.randint(2, max_vars)
    goal = rng.randint(1, max_gens)
    pool = list(range(n))
    supports: list[frozenset[int]] = []
    for _ in range(60):
        if len(supports) == goal:
            break
        size = rng.randint(1, min(4, n))
        cand = frozenset(rng.sample(pool, size))
        if any(cand <= s or s <= cand for s in supports):
            continue
        supports.append(cand)
    used = sorted(set().union(*supports))
    rename = {old: f"x{i + 1}" for i, old in enumerate(used)}
    variables = tuple(rename[old] for old in used)
    generators = tuple(
        frozenset(rename[v] for v in sup) for sup in supports
    )
    return SquarefreeIdeal(variables, generators)


@st.composite
def separated_hypergraphs(draw):
    """Hypergraphs of minimal ideals on at most 6 variables, 7 generators."""
    n = draw(st.integers(1, 6))
    names = tuple(f"x{i}" for i in range(1, n + 1))
    supports = draw(
        st.lists(
            st.frozensets(st.sampled_from(names), min_size=1),
            min_size=1,
            max_size=7,
            unique=True,
        )
    )
    minimal = [g for g in supports if not any(f < g for f in supports)]
    return build_from_ideal(SquarefreeIdeal(names, tuple(minimal)))


@st.composite
def odd_cycle_pair_hypergraphs(draw):
    """Hypergraphs of two vertex-disjoint odd cycles plus a few extra generators.

    Two disjoint odd cycles of degree-2 generators are where torsion and
    the negative rules live, and uniform draws almost never contain them.
    The cycles have lengths 3 or 5 on at most 8 variables; up to 3 extra
    generators of 2 or 3 variables join them, and the generating set is
    minimalized.
    """
    first = draw(st.sampled_from((3, 5)))
    second = 3
    n = draw(st.integers(first + second, 8))
    names = tuple(f"x{i}" for i in range(1, n + 1))
    supports = []
    for start, length in ((0, first), (first, second)):
        cycle = names[start : start + length]
        supports += [frozenset((cycle[i], cycle[(i + 1) % length])) for i in range(length)]
    supports += draw(
        st.lists(st.frozensets(st.sampled_from(names), min_size=2, max_size=3), max_size=3)
    )
    supports = list(dict.fromkeys(supports))
    minimal = [g for g in supports if not any(f < g for f in supports)]
    used = sorted(set().union(*minimal), key=names.index)
    return build_from_ideal(SquarefreeIdeal(tuple(used), tuple(minimal)))


@st.composite
def shared_vertex_cycle_pair_hypergraphs(draw):
    """Two disjoint odd cycles whose closing fat edges share an off-cycle vertex.

    Each cycle is a path of 2-vertex edges closed by a fat edge that holds
    the path's two ends, an off-cycle vertex s common to both fat edges,
    and an off-cycle port of its own.  One to three edges of 2 or 3
    off-cycle vertices, drawn with or without s, can connect the ports,
    and up to two edges hold s and two cycle vertices.  This is the
    pattern of the edge65 minors on which Theorem 4.8's detector once
    returned a pair whose witness decomposes; uniform draws almost never
    build it.

    Only separated hypergraphs have a polytope.  While some vertex v is
    not split from another (every edge through v holds the other), v is
    taken out of every edge, and edges left with one vertex go.  Such a v
    is never s or a cycle vertex, so the pattern survives.
    """
    first = draw(st.sampled_from((3, 5)))
    one = tuple(range(1, first + 1))
    two = (first + 1, first + 2, first + 3)
    shared = first + 4
    off_cycle = range(shared, shared + 4)
    pool = off_cycle if draw(st.booleans()) else off_cycle[1:]
    outside = st.frozensets(st.sampled_from(pool), min_size=2, max_size=3)
    edges = set(draw(st.lists(outside, min_size=1, max_size=3)))
    for cycle, port in ((one, shared + 1), (two, shared + 2)):
        edges.update(frozenset(pair) for pair in zip(cycle, cycle[1:]))
        edges.add(frozenset((cycle[0], cycle[-1], shared, port)))
    on_cycles = st.frozensets(st.sampled_from(one + two), min_size=2, max_size=2)
    edges.update(ends | {shared} for ends in draw(st.lists(on_cycles, max_size=2)))
    while True:
        used = sorted(set().union(*edges))
        rename = {old: new for new, old in enumerate(used, start=1)}
        labels = tuple(
            (f"e{i}", frozenset(rename[v] for v in edge))
            for i, edge in enumerate(sorted(edges, key=sorted))
        )
        hypergraph = LabeledHypergraph(len(used), labels)
        violation = hypergraph.separation_violation()
        if violation is None:
            return hypergraph
        unsplit = used[violation[0] - 1]
        edges = {e - {unsplit} for e in edges if len(e - {unsplit}) > 1}
