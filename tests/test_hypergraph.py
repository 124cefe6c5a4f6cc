from __future__ import annotations

import heapq
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idpoly.hypergraph import (
    CYCLE_BUDGET,
    BudgetExceeded,
    LabeledHypergraph,
    NotSeparatedError,
    build_from_ideal,
    closed_core,
    edge_sort_key,
    enumerate_minors,
    find_special_odd_cycle,
    ideal_of,
    incidence_matrix,
    induced_subhypergraph,
    is_balanced,
    reduce_closed_fixpoint,
    skeleton_components,
)
from idpoly.model import polytope_from_ideal

import reference_hypergraph as reference
import reference_search
from randutil import (
    cycle_edge_ideal,
    odd_cycle_pair_hypergraphs,
    random_minimal_ideal,
    separated_hypergraphs,
    shared_vertex_cycle_pair_hypergraphs,
    skeleton_by_bfs,
)


def test_rem32_label_images():
    # the matrix fixture has no variable names, so synthesize x1..x7 the
    # way the CLI does before building the hypergraph
    from idpoly import parsing
    from idpoly.model import minimalize_generators
    from conftest import DATA

    poly = parsing.parse_matrix_text((DATA / "rem32.mat").read_text())
    gens = [
        frozenset(f"x{i + 1}" for i, bit in enumerate(row) if bit)
        for row in poly.vertices
    ]
    ideal = minimalize_generators([f"x{i + 1}" for i in range(7)], gens)
    h = build_from_ideal(ideal)
    assert h.num_vertices == 6
    images = {name: tuple(sorted(img)) for name, img in h.labels}
    assert images == {
        "x1": (1, 2),
        "x2": (1, 3),
        "x3": (2, 3),
        "x4": (4, 5),
        "x5": (4, 6),
        "x6": (5, 6),
        "x7": (3, 6),
    }


def test_fig1_edges_canonical_order(load_ideal):
    h = build_from_ideal(load_ideal("fig1.ideal"))
    assert h.num_vertices == 4
    assert h.edges == (
        (1, 2),
        (1, 3, 4),
        (2,),
        (2, 4),
        (2, 3, 4),
        (3,),
        (4,),
    )
    assert h.labels_of((1, 2)) == ("a", "f")
    assert h.labels_of((2, 3, 4)) == ("i", "j")
    assert [len(e.vertices) - 1 for e in h.edge_views()] == [1, 2, 0, 1, 2, 0, 0]


def test_edge_sort_key_ordering():
    edges = [(2, 3), (1, 4), (1, 2, 3), (1, 3)]
    ordered = sorted(edges, key=edge_sort_key)
    assert ordered == [(1, 3), (1, 4), (1, 2, 3), (2, 3)]


def test_vertex_must_lie_on_some_edge():
    with pytest.raises(ValueError, match="vertex 2 lies on no edge"):
        LabeledHypergraph(2, (("a", frozenset({1})),))


def test_duplicate_and_empty_label_names():
    with pytest.raises(ValueError, match="duplicate label"):
        LabeledHypergraph(1, (("a", frozenset({1})), ("a", frozenset({1}))))
    with pytest.raises(ValueError, match="empty label name"):
        LabeledHypergraph(1, (("", frozenset({1})),))


def test_separation_violation_detected():
    h = LabeledHypergraph(2, (("a", frozenset({1, 2})), ("b", frozenset({1, 2}))))
    assert h.separation_violation() == (1, 2)
    assert not h.is_separated
    with pytest.raises(NotSeparatedError, match="every edge containing vertex 1"):
        ideal_of(h)


def quadratic_separation_violation(h: LabeledHypergraph) -> tuple[int, int] | None:
    """Reference scan: the first (v, w) such that every image holding v holds w."""
    images = [img for _, img in h.labels if img]
    for v in h.vertices:
        containing = [img for img in images if v in img]
        for w in h.vertices:
            if v != w and all(w in img for img in containing):
                return (v, w)
    return None


@st.composite
def small_hypergraphs(draw):
    s = draw(st.integers(1, 7))
    images = draw(
        st.lists(st.frozensets(st.integers(1, s), max_size=s), max_size=6)
    )
    return _covering(s, images)


@st.composite
def wide_hypergraphs(draw):
    """8 to 12 vertices and images of at least half of them.

    Vertex 1 is the top bit of the minor walk's masks, so these are the
    inputs where a bit-order or tie-break slip would show.
    """
    s = draw(st.integers(8, 12))
    images = draw(
        st.lists(
            st.frozensets(st.integers(1, s), min_size=s // 2, max_size=s),
            min_size=1,
            max_size=6,
        )
    )
    narrow = draw(st.lists(st.frozensets(st.integers(1, s), max_size=3), max_size=3))
    return _covering(s, images + narrow)


def _covering(s: int, images: list) -> LabeledHypergraph:
    uncovered = frozenset(range(1, s + 1)).difference(*images)
    if uncovered:
        images.append(uncovered)
    labels = tuple((f"x{i}", img) for i, img in enumerate(images, start=1))
    return LabeledHypergraph(s, labels)


@settings(max_examples=400, deadline=None)
@given(h=small_hypergraphs())
def test_separation_violation_matches_quadratic_scan(h):
    assert h.separation_violation() == quadratic_separation_violation(h)


def pointer_chasing_minors(h: LabeledHypergraph, budget: int | None = None):
    """Reference walk: a parent pointer per state, chased back on every yield."""
    if budget is not None and budget <= 0:
        return
    start = tuple(h.vertices)
    origin = {start: (None, None)}
    heap = [(-len(start), start)]
    yielded = 0
    while heap:
        _, state = heapq.heappop(heap)
        sub, mapping = induced_subhypergraph(h, state)
        path = []
        cursor = state
        while origin[cursor][0] is not None:
            cursor, edge = origin[cursor]
            path.append(edge)
        yield state, tuple(reversed(path))
        yielded += 1
        if budget is not None and yielded >= budget:
            return
        back = dict(enumerate(mapping, start=1))
        for edge in sub.edges:
            original_edge = tuple(sorted(back[v] for v in edge))
            child = tuple(v for v in state if v not in set(original_edge))
            if child not in origin:
                origin[child] = (state, original_edge)
                heapq.heappush(heap, (-len(child), child))


@settings(max_examples=300, deadline=None)
@given(
    h=small_hypergraphs() | wide_hypergraphs(),
    budget=st.none() | st.integers(0, 12) | st.integers(100, 400),
)
def test_minor_walk_matches_pointer_chasing(h, budget):
    walked = [
        (m.trace.surviving, m.trace.deleted_edges) for m in enumerate_minors(h, budget=budget)
    ]
    assert walked == list(pointer_chasing_minors(h, budget))


@settings(max_examples=150, deadline=None)
@given(h=small_hypergraphs() | wide_hypergraphs())
def test_minors_are_validated_restrictions(h):
    for record in enumerate_minors(h, budget=300):
        minor, trace = record.hypergraph, record.trace
        assert trace.parent is h
        assert minor == induced_subhypergraph(h, trace.surviving)[0]
        # the walk skips validation; the checked constructor must agree
        assert LabeledHypergraph(minor.num_vertices, minor.labels) == minor


@settings(max_examples=200, deadline=None)
@given(h=separated_hypergraphs())
def test_minor_points_are_the_expanded_incidence_matrix(h):
    for record in enumerate_minors(h):
        minor = record.hypergraph
        if minor.num_vertices == 0:
            continue
        points = polytope_from_ideal(ideal_of(minor)).vertices
        assert incidence_matrix(minor) == points


def vertex_mask(n, vertices):
    return sum(1 << (n - v) for v in vertices)


def skeleton_masks(h, n, back):
    """``skeleton_by_bfs(h)`` as masks of n vertices, vertex v of h renamed back[v]."""

    def mask(vertices):
        return vertex_mask(n, (back[v] for v in vertices))

    return [(mask(c), None if even is None else mask(even)) for c, even in skeleton_by_bfs(h)]


@settings(max_examples=200, deadline=None)
@given(h=small_hypergraphs() | separated_hypergraphs())
def test_minor_masks_are_the_built_minor(h):
    n = h.num_vertices
    for record in enumerate_minors(h, budget=300):
        minor, trace = record.hypergraph, record.trace
        assert record.hypergraph is minor and record.trace is trace
        assert record.state == vertex_mask(n, trace.surviving)
        assert record.num_vertices == minor.num_vertices
        back = dict(enumerate(trace.surviving, start=1))
        built = {vertex_mask(n, (back[v] for v in e)) for e in minor.edges}
        assert record.edges == built


@settings(max_examples=200, deadline=None)
@given(h=separated_hypergraphs())
def test_closed_core_is_the_closed_fixpoint(h):
    n = h.num_vertices
    for record in enumerate_minors(h):
        _, reduction = reduce_closed_fixpoint(record.hypergraph)
        back = dict(enumerate(record.trace.surviving, start=1))
        expected = vertex_mask(n, (back[v] for v in reduction.surviving))
        assert closed_core(record.state, record.edges) == expected


@settings(max_examples=200, deadline=None)
@given(h=small_hypergraphs() | separated_hypergraphs())
def test_skeleton_components_are_the_built_skeletons(h):
    n = h.num_vertices
    assert h.skeleton == tuple(skeleton_masks(h, n, {v: v for v in h.vertices}))
    for record in enumerate_minors(h, budget=300):
        minor = record.hypergraph
        back = dict(enumerate(record.trace.surviving, start=1))
        components = skeleton_components(record.state, record.edges)
        assert components == skeleton_masks(minor, n, back)
        assert record.components == components
        own = skeleton_masks(minor, minor.num_vertices, {v: v for v in minor.vertices})
        assert minor.skeleton == tuple(own)


def test_derived_structure_is_computed_once(load_ideal):
    h = build_from_ideal(load_ideal("fig1.ideal"))
    assert h.skeleton is h.skeleton
    merged = LabeledHypergraph(2, (("a", frozenset({1, 2})), ("b", frozenset({1, 2}))))
    assert merged.separation_violation() is merged.separation_violation()


def test_ideal_hypergraph_round_trip(load_ideal):
    ideal = load_ideal("fig1.ideal")
    h = build_from_ideal(ideal)
    assert ideal_of(h) == ideal


def test_closed_open_simple(load_ideal):
    h = build_from_ideal(load_ideal("fig1.ideal"))
    assert h.closed_vertices() == (2, 3, 4)
    assert h.open_vertices() == (1,)


def test_skeleton_structure(load_ideal):
    # the skeleton edges {1,2}, {2,4} leave vertex 3 in a component of its own
    h = build_from_ideal(load_ideal("fig1.ideal"))
    assert h.skeleton == (
        (vertex_mask(4, (1, 2, 4)), vertex_mask(4, (1, 4))),
        (vertex_mask(4, (3,)), vertex_mask(4, (3,))),
    )

    tri = build_from_ideal(load_ideal("tri.ideal"))
    assert tri.skeleton == ((vertex_mask(3, (1, 2, 3)), None),)

    four = build_from_ideal(load_ideal("fourcyc.ideal"))
    ((component, even),) = four.skeleton
    assert component == vertex_mask(4, (1, 2, 3, 4))
    assert even == vertex_mask(4, (1, 3))
    for e in four.edges:
        if len(e) == 2:
            assert (vertex_mask(4, e) & even).bit_count() == 1


def test_fig1_reduction_rounds(load_ideal):
    h = build_from_ideal(load_ideal("fig1.ideal"))
    reduced, trace = reduce_closed_fixpoint(h)
    assert reduced.num_vertices == 0
    assert trace.rounds == (
        ((2, "e"), (3, "b"), (4, "d")),
        ((1, "a"),),
    )
    assert trace.removed == (2, 3, 4, 1)
    assert trace.surviving == ()


def test_reduction_fixpoint_is_stable(load_ideal):
    h = build_from_ideal(load_ideal("tri.ideal"))
    reduced, trace = reduce_closed_fixpoint(h)
    assert reduced == h
    assert trace.surviving == (1, 2, 3)


def test_minor_enumeration_order(load_ideal):
    h = build_from_ideal(load_ideal("tri.ideal"))
    states = [record.trace.surviving for record in enumerate_minors(h)]
    assert states == [(1, 2, 3), (1,), (2,), (3,), ()]
    # each deletion path replays to the survivors it claims
    for record in enumerate_minors(h):
        sub, trace = record.hypergraph, record.trace
        assert sub.num_vertices == len(trace.surviving)
        assert trace.parent is h


def test_minor_budget_stops_enumeration(load_ideal):
    h = build_from_ideal(load_ideal("tri.ideal"))
    states = [m.trace.surviving for m in enumerate_minors(h, budget=2)]
    assert states == [(1, 2, 3), (1,)]
    assert list(enumerate_minors(h, budget=0)) == []


def test_induced_subhypergraph_renumbers(load_ideal):
    veiled = build_from_ideal(load_ideal("veiled.ideal"))
    sub, mapping = induced_subhypergraph(veiled, range(1, 11))
    assert mapping == tuple(range(1, 11))
    expected = build_from_ideal(load_ideal("veiled_minor10.ideal"))
    assert sub.edges == expected.edges
    # same edge/label structure up to label names
    sub_images = sorted(img for _, img in sub.labels)
    exp_images = sorted(img for _, img in expected.labels)
    assert sub_images == exp_images


def test_induced_subhypergraph_rejects_stray_vertex(load_ideal):
    h = build_from_ideal(load_ideal("tri.ideal"))
    with pytest.raises(ValueError, match="vertex 9 is not in the hypergraph"):
        induced_subhypergraph(h, [1, 9])


def test_incidence_matrix(load_ideal):
    h = build_from_ideal(load_ideal("tri.ideal"))
    mat = incidence_matrix(h)
    # rows are vertices, columns follow label order (u, v, w)
    assert mat == ((1, 1, 0), (1, 0, 1), (0, 1, 1))


@settings(max_examples=200, deadline=None)
@given(h=small_hypergraphs())
def test_incidence_matrix_matches_a_scan_per_entry(h):
    assert incidence_matrix(h) == tuple(
        tuple(1 if v in img else 0 for _, img in h.labels) for v in h.vertices
    )


def test_special_odd_cycle_found(load_ideal):
    tri = build_from_ideal(load_ideal("tri.ideal"))
    assert search_outcome(find_special_odd_cycle, tri) == (1, 2, 3)

    four = build_from_ideal(load_ideal("fourcyc.ideal"))
    assert find_special_odd_cycle(four) is None


def search_outcome(search, h, **kwargs):
    """What a search returns, or the message of the BudgetExceeded it raises.

    A cycle it returns must pass ``cycle_shape_error``.
    """
    try:
        cycle = search(h, **kwargs)
    except BudgetExceeded as exc:
        return str(exc)
    if cycle is not None:
        assert reference_search.cycle_shape_error(h, cycle) is None, cycle
    return cycle


@settings(max_examples=300, deadline=None)
@given(
    h=small_hypergraphs()
    | separated_hypergraphs()
    | odd_cycle_pair_hypergraphs()
    | shared_vertex_cycle_pair_hypergraphs(),
    budget=st.sampled_from((CYCLE_BUDGET, 5, 40)),
)
def test_special_odd_cycle_matches_the_recursive_search(h, budget):
    # the same cycle, or the same budget message, at the same node count;
    # each cycle returned passes the shape check
    assert search_outcome(find_special_odd_cycle, h, budget=budget) == search_outcome(
        reference_search.find_special_odd_cycle, h, budget=budget
    )


def test_special_odd_cycle_search_is_not_bounded_by_recursion():
    # the cycle of 1201 generators closes 1201 vertices deep, past the
    # default recursion limit of 1000 frames
    h = build_from_ideal(cycle_edge_ideal(1201))
    cycle = search_outcome(find_special_odd_cycle, h)
    assert len(cycle) == 1201 and cycle[:3] == (1, 2, 3)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(5000)
    try:
        assert cycle == search_outcome(reference_search.find_special_odd_cycle, h)
    finally:
        sys.setrecursionlimit(limit)
    assert not is_balanced(h)


def test_is_balanced(load_ideal):
    assert is_balanced(build_from_ideal(load_ideal("fourcyc.ideal")))
    assert not is_balanced(build_from_ideal(load_ideal("tri.ideal")))


def test_cycle_search_budget_exhausts(load_ideal):
    # the four-cycle has no special odd cycle, so a tiny budget runs out
    # before the search space does
    h = build_from_ideal(load_ideal("fourcyc.ideal"))
    with pytest.raises(BudgetExceeded):
        find_special_odd_cycle(h, budget=1)


def test_cycle_shape_check_rejects_broken_cycles():
    def hypergraph(*edges):
        n = max(max(e) for e in edges)
        return LabeledHypergraph(n, tuple((f"e{i}", frozenset(e)) for i, e in enumerate(edges)))

    shape = reference_search.cycle_shape_error
    triangle = hypergraph((1, 2), (2, 3), (1, 3))
    assert shape(triangle, (1, 2, 3)) is None
    assert shape(triangle, (2, 1, 3)) is None
    assert shape(triangle, (1, 2)) == "cycle (1, 2) has 2 vertices, not an odd number of at least 3"
    assert shape(triangle, (1, 2, 1)) == "cycle (1, 2, 1) repeats a vertex"
    square = hypergraph((1, 2), (2, 3), (3, 4), (1, 4))
    assert shape(square, (1, 2, 3, 4)) == (
        "cycle (1, 2, 3, 4) has 4 vertices, not an odd number of at least 3"
    )
    # (2, 3) lies on no edge, and (1, 2, 3) meets all three vertices
    assert shape(hypergraph((1, 2), (2, 4), (1, 3)), (1, 2, 3)) == (
        "no edge meets cycle (1, 2, 3) in (2, 3) alone"
    )
    assert shape(hypergraph((1, 2), (2, 3), (1, 2, 3)), (1, 2, 3)) == (
        "no edge meets cycle (1, 2, 3) in (1, 3) alone"
    )


def test_induced_preserves_separatedness():
    rng = random.Random(2024)
    for _ in range(50):
        ideal = random_minimal_ideal(rng)
        h = build_from_ideal(ideal)
        assert h.is_separated
        if h.num_vertices < 2:
            continue
        keep = rng.sample(list(h.vertices), rng.randint(1, h.num_vertices))
        sub, _ = induced_subhypergraph(h, keep)
        assert sub.is_separated


def test_minor_dedup_on_survivor_sets(load_ideal):
    # the four-cycle has four 2-vertex edges; deleting opposite edges in
    # either order lands on the same survivor set, which must appear once
    h = build_from_ideal(load_ideal("fourcyc.ideal"))
    states = [m.trace.surviving for m in enumerate_minors(h)]
    assert len(states) == len(set(states))
    sizes = [len(s) for s in states]
    assert sizes == sorted(sizes, reverse=True)


def _seeded_ideals(seed: int, count: int = 200):
    rng = random.Random(seed)
    return [random_minimal_ideal(rng, 12, 10) for _ in range(count)]


def fresh_separation_violation(h: LabeledHypergraph) -> tuple[int, int] | None:
    """``separation_violation()`` scanned anew, whatever the object has cached."""
    return LabeledHypergraph._separation_violation.func(h)


@pytest.mark.parametrize("seed", [3, 11])
def test_build_from_ideal_is_the_validated_construction(seed):
    for ideal in _seeded_ideals(seed):
        h = build_from_ideal(ideal)
        expected = reference.build_from_ideal(ideal)
        assert h == expected
        assert h.label_masks == expected.label_masks
        assert h.separation_violation() is None
        assert fresh_separation_violation(h) is None


def _assert_reduction_matches_reference(h: LabeledHypergraph) -> None:
    reduced, trace = reduce_closed_fixpoint(h)
    expected, rounds, surviving = reference.reduce_closed_fixpoint(h)
    assert trace.original is h
    assert trace.rounds == rounds
    assert trace.surviving == surviving
    assert reduced == expected
    assert reduced.separation_violation() == fresh_separation_violation(reduced)


@pytest.mark.parametrize("seed", [5, 13])
def test_mask_reduction_is_the_set_reduction_on_ideals(seed):
    for ideal in _seeded_ideals(seed):
        _assert_reduction_matches_reference(build_from_ideal(ideal))


@settings(max_examples=300, deadline=None)
@given(h=small_hypergraphs() | wide_hypergraphs() | separated_hypergraphs())
def test_mask_reduction_is_the_set_reduction(h):
    _assert_reduction_matches_reference(h)


@settings(max_examples=200, deadline=None)
@given(h=small_hypergraphs() | separated_hypergraphs())
def test_restrictions_answer_separation_as_a_fresh_scan(h):
    # a restriction of a separated hypergraph is recorded separated; of
    # any other, it is scanned when asked
    separated = h.is_separated
    reduced, _ = reduce_closed_fixpoint(h)
    restrictions = [reduced] + [m.hypergraph for m in enumerate_minors(reduced, budget=100)]
    for sub in restrictions:
        if separated:
            assert vars(sub)["_separation_violation"] is None
        assert sub.separation_violation() == fresh_separation_violation(sub)
