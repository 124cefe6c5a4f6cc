"""Random minimal squarefree ideals and their hypergraphs for the randomized suites.

Also a plain breadth-first 1-skeleton on vertex ids, the reference the
suites hold the mask components against.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations

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


def skeleton_by_bfs(
    hypergraph: LabeledHypergraph,
) -> list[tuple[set[int], set[int] | None]]:
    """Components of the graph of the 2-vertex edges, with their colorings.

    Each component is searched from its smallest vertex, smallest first,
    and comes with the vertices at even distance from that vertex, or
    None when some edge joins two vertices at one distance (an odd cycle).
    """
    neighbours: dict[int, set[int]] = {v: set() for v in hypergraph.vertices}
    for edge in hypergraph.edges:
        if len(edge) == 2:
            v, w = edge
            neighbours[v].add(w)
            neighbours[w].add(v)
    components = []
    for start in hypergraph.vertices:
        if any(start in component for component, _ in components):
            continue
        distance = {start: 0}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in neighbours[v]:
                if w not in distance:
                    distance[w] = distance[v] + 1
                    queue.append(w)
        odd_cycle = any(distance[v] == distance[w] for v in distance for w in neighbours[v])
        even = None if odd_cycle else {v for v, d in distance.items() if d % 2 == 0}
        components.append((set(distance), even))
    return components


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
def covered_ideals(draw, max_vars: int = 8, max_gens: int = 7):
    """Minimal ideals with 2- and 3-variable generators, most of them unreduced.

    A variable that divides one generator only is added to a second one,
    since a generator holding such a variable is a closed vertex, which
    reduction removes before any rule or the oracle sees it.  Keeping the
    result minimal can leave a few closed vertices all the same.
    """
    n = draw(st.integers(3, max_vars))
    names = tuple(f"x{i}" for i in range(1, n + 1))
    supports = draw(
        st.lists(
            st.frozensets(st.sampled_from(names), min_size=2, max_size=3),
            min_size=4,
            max_size=max_gens,
            unique=True,
        )
    )
    for x in names:
        holders = [i for i, g in enumerate(supports) if x in g]
        if len(holders) == 1:
            others = [i for i in range(len(supports)) if i != holders[0]]
            j = draw(st.sampled_from(others))
            supports[j] |= {x}
    supports = list(dict.fromkeys(supports))
    minimal = [g for g in supports if not any(f < g for f in supports)]
    used = tuple(x for x in names if any(x in g for g in minimal))
    return SquarefreeIdeal(used, tuple(minimal))


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


@st.composite
def chorded_cycle_pair_hypergraphs(draw):
    """Two odd cycles with chords, closed by fat edges and linked by a network.

    Each cycle is a path of 2-vertex edges, with up to two chords between
    its vertices, closed by a fat edge holding the path's two ends and an
    off-cycle port of its own.  A chord lets two paths of one vertex set
    join the ends, which the pair search must tell apart by the order it
    finds them in.  Up to five 2-vertex edges among the two ports and
    three more off-cycle vertices form the network that can connect the
    cycles, through one edge or through chains of several, with choices
    that a breadth-first search takes in order.
    """
    first = draw(st.sampled_from((3, 5, 7)))
    second = draw(st.sampled_from((3, 5)))
    one = tuple(range(1, first + 1))
    two = tuple(range(first + 1, first + second + 1))
    port = first + second + 1
    edges = set()
    for cycle, own_port in ((one, port), (two, port + 1)):
        edges.update(frozenset(pair) for pair in zip(cycle, cycle[1:]))
        chords = st.frozensets(st.sampled_from(cycle), min_size=2, max_size=2)
        edges.update(draw(st.lists(chords, max_size=2)))
        edges.add(frozenset((cycle[0], cycle[-1], own_port)))
    network = st.frozensets(st.sampled_from(range(port, port + 5)), min_size=2, max_size=2)
    edges.update(draw(st.lists(network, min_size=1, max_size=5)))
    used = sorted(set().union(*edges))
    rename = {old: new for new, old in enumerate(used, start=1)}
    labels = tuple(
        (f"e{i}", frozenset(rename[v] for v in edge))
        for i, edge in enumerate(sorted(edges, key=sorted))
    )
    return LabeledHypergraph(len(used), labels)


@st.composite
def small_graph_edge_ideals(draw, max_edges: int = 8):
    """Edge ideals of simple graphs with at most ``max_edges`` edges and 9 nodes.

    Half the draws plant two vertex-disjoint odd cycles, a triangle and a
    triangle or a 5-cycle, and fill the edge count up with edges among
    their nodes and up to 3 more.  The odd cycle condition then turns on
    whether some edge joins the two cycles, and without one they may lie
    in different components; uniform draws seldom build either case.
    The other half are uniform graphs on at most 8 nodes.  Nodes no edge
    touches are left out of the ideal.
    """
    if draw(st.booleans()):
        first = draw(st.sampled_from((3, 5)))
        n = draw(st.integers(first + 3, min(first + 6, 9)))
        cycles = (range(first), range(first, first + 3))
        edges = [frozenset((c[i - 1], c[i])) for c in cycles for i in range(len(c))]
    else:
        n = draw(st.integers(2, 8))
        edges = []
    pairs = [frozenset(pair) for pair in combinations(range(n), 2)]
    more = st.lists(
        st.sampled_from(pairs), min_size=0 if edges else 1, max_size=max_edges - len(edges)
    )
    edges = list(dict.fromkeys(edges + draw(more)))
    used = sorted(set().union(*edges))
    names = {v: f"x{v + 1}" for v in used}
    return SquarefreeIdeal(
        tuple(names[v] for v in used), tuple(frozenset(map(names.get, e)) for e in edges)
    )


def benchmark_edge_ideals(seed: int):
    """The edge ideals of the benchmark's ``analyze-edge`` population ``seed``.

    The same draws as ``edge_ideals`` in perfbench/workloads.py, whose
    default population is seed 5 and whose held-out one is seed 6: 200
    uniform graphs with 11 nodes and 14 edges, their used nodes renamed
    x1.. in order.
    """
    rng = random.Random(seed)
    for _ in range(200):
        pairs = rng.sample(list(combinations(range(11), 2)), 14)
        used = sorted(set().union(*pairs))
        names = {v: f"x{i}" for i, v in enumerate(used, start=1)}
        generators = tuple(frozenset((names[a], names[b])) for a, b in pairs)
        yield SquarefreeIdeal(tuple(names[v] for v in used), generators)


def cycle_edge_ideal(length: int) -> SquarefreeIdeal:
    """The edge ideal of the cycle x0 - x1 - ... - x(length-1) - x0."""
    names = tuple(f"x{i}" for i in range(length))
    generators = tuple(frozenset((names[i], names[(i + 1) % length])) for i in range(length))
    return SquarefreeIdeal(names, generators)


def linked_cycles_ideal(length: int) -> SquarefreeIdeal:
    """The edge ideal of two cycles x and y of one length, joined by x0*z and z*y0."""
    cycles = [cycle_edge_ideal(length), cycle_edge_ideal(length)]
    ys = {f"x{i}": f"y{i}" for i in range(length)}
    generators = [*cycles[0].generators]
    generators += [frozenset(map(ys.get, g)) for g in cycles[1].generators]
    generators += [frozenset(("x0", "z")), frozenset(("z", "y0"))]
    return SquarefreeIdeal((*cycles[0].variables, *ys.values(), "z"), tuple(generators))


def ideal_text(ideal: SquarefreeIdeal) -> str:
    """The ideal in the input format, its variables declared in order."""
    generators = ", ".join("*".join(sorted(g, key=ideal.variables.index)) for g in ideal.generators)
    return f"vars: {' '.join(ideal.variables)}\n{generators}\n"
