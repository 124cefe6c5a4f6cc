from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idpoly import certificates
from idpoly.certificates import (
    BUDGET_EXCEEDED,
    INAPPLICABLE,
    NORMAL,
    NOT_NORMAL,
    PAIR_BUDGET,
    ExceptionalPair,
    RuleOutcome,
    Witness,
    balanced_uniform_rule,
    bicolor_obstruction,
    decide_connected_odd,
    exceptional_pair_rule,
    find_exceptional_pair,
    lift_witness,
    odd_cycle_rule,
    torsion_obstruction,
)
from idpoly.hypergraph import (
    BudgetExceeded,
    LabeledHypergraph,
    MinorTrace,
    ReductionTrace,
    build_from_ideal,
    enumerate_minors,
    ideal_of,
    induced_subhypergraph,
    reduce_closed_fixpoint,
)
from idpoly.intlinalg import prime_factors, verify_torsion_certificate
from idpoly.model import SquarefreeIdeal, polytope_from_ideal
from idpoly.oracle import decide_normal_bruteforce, verify_witness

import fraction_witness
import reference_search
from randutil import (
    chorded_cycle_pair_hypergraphs,
    linked_cycles_ideal,
    odd_cycle_pair_hypergraphs,
    separated_hypergraphs,
    shared_vertex_cycle_pair_hypergraphs,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
NO_BICOLOR = RuleOutcome(INAPPLICABLE, "no unbalanced simple edge")


def test_smallest_prime_factor():
    # The certificates take the smallest prime of a gcd as the first
    # prime that ``prime_factors`` yields.
    assert next(prime_factors(2)) == 2
    assert next(prime_factors(9)) == 3
    assert next(prime_factors(35)) == 5
    assert next(prime_factors(97)) == 97


def test_witness_validation():
    with pytest.raises(ValueError, match="at least one coefficient"):
        fraction_witness.witness((), 0, (0,))
    with pytest.raises(ValueError, match="out of range"):
        fraction_witness.witness((Fraction(1),), 1, (1,))
    with pytest.raises(ValueError, match="out of range"):
        fraction_witness.witness((Fraction(-1, 2), HALF), 0, (0,))
    with pytest.raises(ValueError, match="do not sum to the degree"):
        fraction_witness.witness((HALF, HALF), 2, (1,))
    with pytest.raises(ValueError, match="not an integer"):
        fraction_witness.witness((HALF, HALF), 1, (Fraction(1, 2),))
    with pytest.raises(ValueError, match="nonnegative"):
        fraction_witness.witness((HALF, HALF), 1, (-1,))
    w = fraction_witness.witness((HALF, HALF), 1, (1, 0))
    assert w.degree == 1


@pytest.mark.parametrize(
    "coefficients,degree,point,message",
    [
        ((), 0, (0,), "witness needs at least one coefficient"),
        ((Fraction(1),), 1, (1,), "coefficient 1 out of range [0, 1)"),
        ((Fraction(-1, 2), HALF), 0, (0,), "coefficient -1/2 out of range [0, 1)"),
        ((HALF, Fraction(3, 2)), 2, (0,), "coefficient 3/2 out of range [0, 1)"),
        ((HALF, HALF), 2, (1,), "coefficients do not sum to the degree"),
        ((HALF, THIRD), 1, (1,), "coefficients do not sum to the degree"),
        ((HALF, HALF), -1, (1,), "coefficients do not sum to the degree"),
        ((HALF, HALF), 1, (Fraction(1, 2),), "point entry 1/2 is not an integer"),
        ((HALF, HALF), 1, (1, "3/2"), "point entry 3/2 is not an integer"),
        ((HALF, HALF), 1, (-1,), "point must be nonnegative"),
        # the point is checked first, then the coefficients
        ((Fraction(3, 2),), 9, (THIRD,), "point entry 1/3 is not an integer"),
        ((), 0, (THIRD,), "point entry 1/3 is not an integer"),
    ],
)
def test_witness_messages_verbatim(coefficients, degree, point, message):
    with pytest.raises(ValueError) as info:
        fraction_witness.witness(coefficients, degree, point)
    assert str(info.value) == message


def test_witness_takes_int_and_str():
    w = fraction_witness.witness(
        ("1/2", 0, HALF, "0.5", "2/4"), "2", (1, "2", Fraction(3), True)
    )
    assert w == fraction_witness.witness((HALF, 0, HALF, HALF, HALF), 2, (1, 2, 3, 1))
    assert type(w.denominator) is int
    assert all(type(n) is int for n in w.numerators)
    assert all(type(x) is int for x in w.point)
    assert type(w.degree) is int


# a Witness field entry: a multiple of 1/d for d in 1..4 from -1/d to 1,
# given as a Fraction, a str or, when whole, an int
WITNESS_VALUES = st.builds(
    lambda a, d, form: form(Fraction(a, d)),
    st.integers(-1, 4),
    st.integers(1, 4),
    st.sampled_from([Fraction, str]),
).filter(lambda v: Fraction(v) <= 1) | st.integers(-1, 3)


@st.composite
def witness_fields(draw):
    coefficients = draw(st.lists(WITNESS_VALUES, max_size=4))
    total = sum((Fraction(c) for c in coefficients), Fraction(0))
    degree = draw(st.sampled_from([int(total), int(total) + 1, -1]))
    point = draw(st.lists(WITNESS_VALUES, max_size=3))
    return coefficients, degree, point


@settings(max_examples=300, deadline=None)
@given(fields=witness_fields())
def test_witness_matches_fraction_reference(fields):
    coefficients, degree, point = fields
    message = fraction_witness.witness_error(coefficients, degree, point)
    if message is not None:
        with pytest.raises(ValueError) as info:
            fraction_witness.witness(coefficients, degree, point)
        assert str(info.value) == message
        return
    w = fraction_witness.witness(coefficients, degree, point)
    assert fraction_witness.coefficients(w) == tuple(Fraction(c) for c in coefficients)
    assert w.point == tuple(int(Fraction(x)) for x in point)
    assert w.degree == degree


@settings(max_examples=300, deadline=None)
@given(fields=witness_fields(), scale=st.integers(1, 3))
def test_witness_over_matches_fraction_reference(fields, scale):
    # the constructor takes the numerators over any common denominator,
    # here a multiple of the lcm of every denominator drawn, and an integer
    # point; it raises the reference's messages, in the same order, and on
    # success builds the reference's witness over the least denominator.
    # A point entry that is not an integer never reaches it: the reference
    # names that entry first, and _witness_on raises it
    coefficients, degree, point = fields
    values = [Fraction(c) for c in coefficients]
    entries = [Fraction(x) for x in point]
    message = fraction_witness.witness_error(coefficients, degree, point)
    if any(x.denominator != 1 for x in entries):
        assert message.startswith("point entry ")
        return
    denominator = scale * math.lcm(*(v.denominator for v in values))
    numerators = [int(v * denominator) for v in values]
    entries = [int(x) for x in entries]
    if message is not None:
        with pytest.raises(ValueError) as info:
            Witness(denominator, numerators, degree, entries)
        assert str(info.value) == message
        return
    w = Witness(denominator, numerators, degree, entries)
    assert w == fraction_witness.witness(coefficients, degree, point)
    assert w.denominator == denominator // scale
    assert fraction_witness.coefficients(w) == tuple(values)


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 6),
    numerators=st.lists(st.integers(0, 5), min_size=1, max_size=5),
    scale=st.integers(1, 4),
    point=st.lists(st.integers(0, 3), max_size=3),
)
def test_integer_and_fraction_witnesses_agree(d, numerators, scale, point):
    # a witness built from Fractions by the reference and one built on
    # integers, over a denominator that need not be the least, are equal,
    # hash alike, give the same coefficients and keep the same canonical
    # denominator: the lcm of the reduced denominators
    numerators = [a % d for a in numerators]
    numerators[-1] = (numerators[-1] - sum(numerators)) % d
    coefficients = [Fraction(a, d) for a in numerators]
    degree = sum(numerators) // d
    by_fractions = fraction_witness.witness(coefficients, degree, point)
    on_integers = Witness(d * scale, [a * scale for a in numerators], degree, point)
    assert by_fractions == on_integers
    assert hash(by_fractions) == hash(on_integers)
    assert fraction_witness.coefficients(on_integers) == tuple(coefficients)
    assert fraction_witness.coefficients(by_fractions) == tuple(coefficients)
    least = math.lcm(*(c.denominator for c in coefficients))
    assert by_fractions.denominator == on_integers.denominator == least
    assert by_fractions.numerators == on_integers.numerators
    assert on_integers.point == tuple(point)


def test_connected_odd_normal_odd_count(load_ideal):
    h = build_from_ideal(load_ideal("tri.ideal"))
    out = decide_connected_odd(h)
    assert out.status == NORMAL
    assert "vertex count 3 is odd" in out.reason
    assert out.witness is None


def test_connected_odd_normal_even_dimensional_edge(load_ideal):
    h = build_from_ideal(load_ideal("sixtri.ideal"))
    out = decide_connected_odd(h)
    assert out.status == NORMAL
    assert "edge (4, 5, 6) has even dimension 2" in out.reason


def test_connected_odd_not_normal(load_ideal):
    h = build_from_ideal(load_ideal("hex6.ideal"))
    out = decide_connected_odd(h)
    assert out.status == NOT_NORMAL
    assert out.reason == "vertex count 6 is even and every edge has odd dimension"
    assert out.witness == fraction_witness.witness(
        (HALF,) * 6, 3, (1, 1, 1, 1, 1, 1, 1)
    )
    poly = polytope_from_ideal(load_ideal("hex6.ideal"))
    assert verify_witness(poly, out.witness).valid


def test_connected_odd_inapplicable(load_ideal):
    disconnected = build_from_ideal(load_ideal("fig1.ideal"))
    assert decide_connected_odd(disconnected).status == INAPPLICABLE
    bipartite = build_from_ideal(load_ideal("fourcyc.ideal"))
    out = decide_connected_odd(bipartite)
    assert out.status == INAPPLICABLE
    assert "no odd cycle" in out.reason


def test_singleton_edge_counts_as_even_dimensional():
    # two triangles joined by a bridge, plus one label seeing only the
    # first generator: that singleton edge has dimension 0, flipping the
    # even-count verdict from not-normal to normal
    ideal = SquarefreeIdeal(
        ("a", "b", "c", "d", "e", "f", "g", "t"),
        (
            {"a", "b", "t"},
            {"a", "c"},
            {"b", "c", "d"},
            {"d", "e", "f"},
            {"e", "g"},
            {"f", "g"},
        ),
    )
    h = build_from_ideal(ideal)
    assert (1,) in h.edges
    out = decide_connected_odd(h)
    assert out.status == NORMAL
    assert "edge (1,) has even dimension 0" in out.reason
    # the brute-force oracle confirms the polytope really is normal
    verdict = decide_normal_bruteforce(polytope_from_ideal(ideal))
    assert verdict.status == "normal"


def test_balanced_uniform_rule(load_ideal):
    four = build_from_ideal(load_ideal("fourcyc.ideal"))
    out = balanced_uniform_rule(four)
    assert out.status == NORMAL
    assert "uniform generator degree 2" in out.reason

    tri = build_from_ideal(load_ideal("tri.ideal"))
    out = balanced_uniform_rule(tri)
    assert out.status == INAPPLICABLE
    assert "special odd cycle on vertices (1, 2, 3)" in out.reason

    from conftest import DATA
    from idpoly import parsing
    from idpoly.model import minimalize_generators

    poly = parsing.parse_matrix_text((DATA / "rem32.mat").read_text())
    gens = [
        frozenset(f"x{i + 1}" for i, bit in enumerate(row) if bit)
        for row in poly.vertices
    ]
    rem32 = build_from_ideal(
        minimalize_generators([f"x{i + 1}" for i in range(7)], gens)
    )
    out = balanced_uniform_rule(rem32)
    assert out.status == INAPPLICABLE
    assert out.reason == "generator degrees not uniform: (2,2,3,2,2,3)"


def test_two_solvable_certificate(load_ideal):
    # solv3 is 2-solvable for 3 with red vertices 1, 3, 5: red carries 1/3
    # and blue 2/3, and the simple edge (1, 3, 5) is all red
    out = bicolor_obstruction(build_from_ideal(load_ideal("solv3.ideal")))
    assert out.status == NOT_NORMAL
    assert out.reason == "p=3, simple edge (1, 3, 5) has 3 red / 0 blue"
    assert out.torsion is None


def test_bicolor_obstruction_solv3(load_ideal):
    h = build_from_ideal(load_ideal("solv3.ideal"))
    witness = bicolor_obstruction(h).witness
    assert fraction_witness.coefficients(witness) == (THIRD, 2 * THIRD) * 3
    assert witness.degree == 3
    assert verify_witness(polytope_from_ideal(load_ideal("solv3.ideal")), witness).valid


def test_bicolor_no_obstruction_on_balanced_edges(load_ideal):
    # K_{2,4} is 2-solvable but every simple edge is balanced
    h = build_from_ideal(load_ideal("k24.ideal"))
    assert bicolor_obstruction(h) == NO_BICOLOR


def test_bicolor_requires_bipartite_skeleton(load_ideal):
    h = build_from_ideal(load_ideal("hex6.ideal"))
    assert bicolor_obstruction(h) == NO_BICOLOR


def graph_hypergraph(*edges):
    """The hypergraph of the edge ideal of a graph given by its edges."""
    names = tuple(dict.fromkeys(name for edge in edges for name in edge))
    return build_from_ideal(SquarefreeIdeal(names, tuple(frozenset(edge) for edge in edges)))


# the wheel on 5 spokes: its 5 triangles and its rim are its only chordless
# odd cycles, and a path of 4 rim nodes closed through the hub, which comes
# last, is a 5-cycle with chords
WHEEL = ["ab", "bc", "cd", "de", "ea"] + [(r, "h") for r in "abcde"]


@pytest.mark.parametrize(
    "name, outcome",
    [
        (
            "tri.ideal",
            RuleOutcome(NORMAL, "each two of its 1 chordless odd cycles meet or are joined"),
        ),
        (
            "fourcyc.ideal",
            RuleOutcome(NORMAL, "each two of its 0 chordless odd cycles meet or are joined"),
        ),
        (
            "bowtie.ideal",
            RuleOutcome(
                NOT_NORMAL,
                "chordless odd cycles {u1,u2,u3} and {u5,u6,u7} are disjoint and not joined",
                witness=fraction_witness.witness(
                    (HALF, HALF, HALF, 0, 0, HALF, HALF, HALF), 3, (1, 1, 1, 0, 1, 1, 1)
                ),
            ),
        ),
        ("solv3.ideal", RuleOutcome(INAPPLICABLE, "generator 1 has degree 3, not 2")),
    ],
)
def test_odd_cycle_rule_on_fixtures(load_ideal, name, outcome):
    assert odd_cycle_rule(build_from_ideal(load_ideal(name))) == outcome


def test_odd_cycle_rule_lists_only_chordless_cycles():
    assert odd_cycle_rule(graph_hypergraph(*WHEEL)) == RuleOutcome(
        NORMAL, "each two of its 6 chordless odd cycles meet or are joined"
    )
    # two triangles in different components are never joined
    assert odd_cycle_rule(graph_hypergraph("ab", "bc", "ca", "de", "ef", "fd")) == RuleOutcome(
        NOT_NORMAL,
        "chordless odd cycles {a,b,c} and {d,e,f} are disjoint and not joined",
        witness=fraction_witness.witness((HALF,) * 6, 3, (1,) * 6),
    )


@pytest.mark.parametrize(
    "edges, nonzero",
    [
        # a triangle and a 5-cycle whose closest nodes are two steps apart
        (["ab", "bc", "ca", "cx", "xd", "de", "ef", "fg", "gh", "hd"], (1, 2, 3, 6, 7, 8, 9, 10)),
        # a 5-cycle with the chord ac, and a triangle: only the chordless
        # triangle abc of the 5-cycle pairs with it, and the chord is a
        # triangle edge
        (["ab", "bc", "cd", "de", "ea", "ac", "dx", "xy", "yz", "zx"], (1, 2, 6, 8, 9, 10)),
    ],
)
def test_odd_cycle_witness_is_the_two_cycles(edges, nonzero):
    # 1/2 on exactly the edges of the two cycles, at half their length,
    # and the point is the indicator of their nodes
    h = graph_hypergraph(*edges)
    outcome = odd_cycle_rule(h)
    assert outcome.status == NOT_NORMAL
    witness = outcome.witness
    assert fraction_witness.coefficients(witness) == tuple(
        HALF if v in nonzero else 0 for v in h.vertices
    )
    assert witness.degree == len(nonzero) // 2
    ends = {name for v in nonzero for name in edges[v - 1]}
    assert witness.point == tuple(int(name in ends) for name, _ in h.labels)
    polytope = polytope_from_ideal(ideal_of(h))
    assert verify_witness(polytope, witness).valid
    assert decide_normal_bruteforce(polytope).status == NOT_NORMAL


def test_odd_cycle_rule_joined_cycles_are_normal():
    # two triangles joined by an edge, or sharing a node, meet the condition
    for edges in (
        ["ab", "bc", "ca", "de", "ef", "fd", "ad"],
        ["ab", "bc", "ca", "cd", "de", "ec"],
    ):
        h = graph_hypergraph(*edges)
        assert odd_cycle_rule(h).status == NORMAL, edges
        assert decide_normal_bruteforce(polytope_from_ideal(ideal_of(h))).status == NORMAL


def test_odd_cycle_budget_exhaustion_is_reported():
    # a search cut short has not listed every cycle
    h = graph_hypergraph(*WHEEL)
    assert odd_cycle_rule(h, budget=3) == RuleOutcome(
        BUDGET_EXCEEDED, "odd-cycle search exceeded its budget of 3 nodes"
    )
    assert odd_cycle_rule(h).status == NORMAL


def test_torsion_obstruction(load_ideal):
    # solv3's vertex lattice quotient has invariant factor 3; the
    # certificate comes with a witness derived from it on the same rows
    ideal = load_ideal("solv3.ideal")
    out = torsion_obstruction(build_from_ideal(ideal))
    assert out.status == NOT_NORMAL
    assert out.reason == "invariant factor 3"
    polytope = polytope_from_ideal(ideal)
    assert verify_witness(polytope, out.witness).valid
    assert verify_torsion_certificate(out.torsion, polytope.vertices)

    out = torsion_obstruction(build_from_ideal(load_ideal("tri.ideal")))
    assert out == RuleOutcome(INAPPLICABLE, "lattice quotient torsion-free")


def test_exceptional_pair_bowtie(load_ideal):
    h = build_from_ideal(load_ideal("bowtie.ideal"))
    pair = find_exceptional_pair(h)
    assert pair is not None
    assert set(pair.cycle_one.vertices) == {1, 2, 3}
    assert set(pair.cycle_two.vertices) == {6, 7, 8}
    assert tuple(sorted(pair.special_one)) == (2, 3, 4)
    assert tuple(sorted(pair.special_two)) == (5, 6, 7)
    assert pair.connection == ((4, 5),)
    witness = exceptional_pair_rule(h).witness
    assert fraction_witness.coefficients(witness) == (HALF, HALF, HALF, 0, 0, HALF, HALF, HALF)
    assert witness.degree == 3
    assert verify_witness(polytope_from_ideal(load_ideal("bowtie.ideal")), witness).valid
    assert exceptional_pair_rule(h) == RuleOutcome(
        NOT_NORMAL, "cycles (2, 1, 3) and (6, 8, 7)", witness=witness
    )


def test_exceptional_pair_budget_exhaustion_is_reported(load_ideal, monkeypatch):
    # a search cut short has not shown that no pair exists
    h = build_from_ideal(load_ideal("bowtie.ideal"))
    with pytest.raises(BudgetExceeded) as exhausted:
        find_exceptional_pair(h, budget=1)
    assert str(exhausted.value) == "exceptional-pair search exceeded its budget of 1 nodes"
    assert exceptional_pair_rule(h).status == NOT_NORMAL

    def exhausting(hypergraph, relaxed=False):
        raise exhausted.value

    monkeypatch.setattr(certificates, "find_exceptional_pair", exhausting)
    for relaxed in (False, True):
        assert exceptional_pair_rule(h, relaxed=relaxed) == RuleOutcome(
            BUDGET_EXCEEDED, "exceptional-pair search exceeded its budget of 1 nodes"
        )


@pytest.mark.parametrize("name,degree", [("ih1.ideal", 5), ("ih2.ideal", 5)])
def test_exceptional_pair_larger_instances(load_ideal, name, degree):
    h = build_from_ideal(load_ideal(name))
    pair = find_exceptional_pair(h)
    assert pair is not None
    witness = exceptional_pair_rule(h).witness
    assert witness.degree == degree
    assert verify_witness(polytope_from_ideal(load_ideal(name)), witness).valid


@pytest.mark.parametrize("name", ["tri.ideal", "fourcyc.ideal", "veiled.ideal"])
def test_exceptional_pair_absent(load_ideal, name):
    h = build_from_ideal(load_ideal(name))
    assert find_exceptional_pair(h) is None


def test_exceptional_pair_relaxed_connection(load_ideal):
    h = build_from_ideal(load_ideal("twin_d.ideal"))
    assert find_exceptional_pair(h) is None
    assert exceptional_pair_rule(h) == RuleOutcome(INAPPLICABLE, "no exceptional pair found")
    pair = find_exceptional_pair(h, relaxed=True)
    assert pair is not None
    assert pair.connection == ((4, 9), (5, 9))
    witness = exceptional_pair_rule(h, relaxed=True).witness
    assert witness.degree == 3
    assert witness.point == (1, 1, 1, 1, 1, 1, 0, 0)


@pytest.mark.parametrize(
    "surviving", [(1, 2, 3, 5, 6, 7, 9, 10, 11), (1, 2, 4, 5, 6, 7, 8, 10, 11)]
)
@pytest.mark.parametrize("relaxed", [False, True])
def test_exceptional_pair_skips_shared_off_cycle_vertex(load_ideal, surviving, relaxed):
    # in these two minors of the reduced edge65 hypergraph the only pair
    # has designated edges sharing vertex 6 off the cycles; its all-halves
    # point decomposes, and edge65 is normal by the odd cycle condition
    reduced, _ = reduce_closed_fixpoint(build_from_ideal(load_ideal("edge65.ideal")))
    minor, _ = induced_subhypergraph(reduced, surviving)
    fat_one, fat_two = (set(e) for e in minor.edges if len(e) > 2)
    assert fat_one & fat_two == {6}
    assert find_exceptional_pair(minor, relaxed=relaxed) is None


@settings(max_examples=150, deadline=None)
@given(
    h=shared_vertex_cycle_pair_hypergraphs() | odd_cycle_pair_hypergraphs(),
    relaxed=st.booleans(),
)
def test_exceptional_pair_witness_stands_on_its_own_polytope(h, relaxed):
    # the shared-vertex draws are where the detector once returned pairs
    # whose all-halves point decomposes
    pair = find_exceptional_pair(h, relaxed=relaxed)
    if pair is not None:
        polytope = polytope_from_ideal(ideal_of(h))
        witness = exceptional_pair_rule(h, relaxed=relaxed).witness
        assert verify_witness(polytope, witness).valid


def edge_hypergraph(num_vertices, edges):
    return LabeledHypergraph(
        num_vertices, tuple((f"e{i}", frozenset(e)) for i, e in enumerate(edges))
    )


def test_exceptional_witness_rejects_a_lone_shared_vertex():
    # vertex 7 lies on the two designated edges and on no other edge, the
    # pattern whose all-halves point decomposes
    h = edge_hypergraph(
        9, ((1, 2), (2, 3), (1, 3, 7, 9), (4, 5), (5, 6), (4, 6, 7, 8), (8, 9))
    )
    assert find_exceptional_pair(h) is None


@pytest.mark.parametrize("relaxed", [False, True])
def test_exceptional_pair_skips_a_decomposing_shared_vertex_on_a_third_edge(relaxed):
    # vertex 7 is on both designated edges and on (1, 4, 7), which meets
    # the cycles evenly, so 7 may take part in a decomposition: v7 + v2 + v5
    # rewrites the all-halves point
    h = edge_hypergraph(
        9, ((1, 2), (2, 3), (1, 3, 7, 8), (4, 5), (5, 6), (4, 6, 7, 9), (8, 9), (1, 4, 7))
    )
    assert find_exceptional_pair(h, relaxed=relaxed) is None


@pytest.mark.parametrize("relaxed", [False, True])
def test_exceptional_pair_keeps_a_shared_vertex_on_a_third_edge(relaxed):
    # the designated edges share vertex 7 off the cycles, but the edge
    # (7, 9) holds it too; the all-halves point then stands
    h = edge_hypergraph(
        9, ((1, 2), (2, 3), (1, 3, 7, 8), (4, 5), (5, 6), (4, 6, 7), (7, 9), (8, 9))
    )
    pair = find_exceptional_pair(h, relaxed=relaxed)
    assert pair is not None
    assert (pair.special_one, pair.special_two) == ((1, 3, 7, 8), (4, 6, 7))
    assert pair.connection == ((7, 9),)
    polytope = polytope_from_ideal(ideal_of(h))
    assert verify_witness(polytope, exceptional_pair_rule(h, relaxed=relaxed).witness).valid


@pytest.mark.parametrize("relaxed", [False, True])
def test_every_pair_is_checked_for_a_decomposition(load_ideal, monkeypatch, relaxed):
    # bowtie's designated edges share no vertex.  No input makes such a
    # pair's point decompose: a decomposition would need one off-cycle
    # vertex on each designated edge, one vertex more than its degree.  So
    # a planted decomposition is what shows the check runs on such pairs.
    h = build_from_ideal(load_ideal("bowtie.ideal"))
    pair = find_exceptional_pair(h, relaxed=relaxed)
    assert not set(pair.special_one) & set(pair.special_two)
    monkeypatch.setattr(certificates, "_halves_decompose", lambda hypergraph, union, spend: True)
    assert find_exceptional_pair(h, relaxed=relaxed) is None


def pair_search_outcomes(h):
    """Each (relaxed, budget) pair's search result, or its budget message, by both searches."""
    for relaxed in (False, True):
        for budget in (PAIR_BUDGET, 5, 40):
            found = []
            for search in (find_exceptional_pair, reference_search.find_exceptional_pair):
                try:
                    found.append(search(h, relaxed=relaxed, budget=budget))
                except BudgetExceeded as exc:
                    found.append(str(exc))
            yield (relaxed, budget), *found


# the chords (1, 3) and (2, 4) give two paths from 1 to 5 through 1..5,
# of which the search keeps the first, 1-2-3-4-5
CHORDED_PENTAGON = edge_hypergraph(
    10,
    ((1, 2), (2, 3), (3, 4), (4, 5), (1, 3), (2, 4), (1, 5, 6), (7, 8), (8, 9), (7, 9, 10),
     (6, 10)),
)
# two relaxed connections of three edges, through 10 and through 11, of
# which breadth-first search in canonical order finds the first
FORKED_CONNECTION = edge_hypergraph(
    11,
    ((1, 2), (2, 3), (1, 3, 4), (5, 6), (6, 7), (5, 7, 8), (4, 9), (9, 10), (9, 11), (8, 10),
     (8, 11)),
)


@settings(max_examples=300, deadline=None)
@given(
    h=separated_hypergraphs()
    | odd_cycle_pair_hypergraphs()
    | shared_vertex_cycle_pair_hypergraphs()
    | chorded_cycle_pair_hypergraphs()
)
@example(h=CHORDED_PENTAGON)
@example(h=FORKED_CONNECTION)
def test_exceptional_pair_matches_the_tuple_search(h):
    # the same cycles, vertex order, designated edges and connection, or
    # the same budget message
    for setting, found, expected in pair_search_outcomes(h):
        assert found == expected, setting


def test_exceptional_pair_keeps_the_first_path_and_chain():
    pair = find_exceptional_pair(CHORDED_PENTAGON)
    assert pair.cycle_two.vertices == (1, 2, 3, 4, 5)
    assert find_exceptional_pair(FORKED_CONNECTION) is None
    pair = find_exceptional_pair(FORKED_CONNECTION, relaxed=True)
    assert pair.connection == ((4, 9), (9, 10), (8, 10))


def test_exceptional_pair_matches_the_tuple_search_on_fixture_minors(load_ideal):
    from conftest import DATA

    kinds = set()
    for path in sorted(DATA.glob("*.ideal")):
        h = build_from_ideal(load_ideal(path.name))
        reduced, _ = reduce_closed_fixpoint(h)
        minors = (record.hypergraph for record in enumerate_minors(reduced, budget=400))
        for g in (h, reduced, *minors):
            for setting, found, expected in pair_search_outcomes(g):
                assert found == expected, (path.name, setting)
                kinds.add(type(found))
    # pairs, their absence and exhausted budgets are all compared
    assert kinds == {ExceptionalPair, type(None), str}


@pytest.mark.parametrize("length", [15, 51])
def test_all_halves_test_runs_under_the_pair_budget(length):
    # the two cycles form an exceptional pair, whose all-halves test is a
    # sum set of 2·length vertices at degree length; it exhausts the
    # budget at a step it has not begun, instead of memory
    h = build_from_ideal(linked_cycles_ideal(length))
    with pytest.raises(BudgetExceeded) as exhausted:
        find_exceptional_pair(h)
    assert str(exhausted.value) == "exceptional-pair search exceeded its budget of 200000 nodes"


def test_lift_witness_through_reduction():
    # append a closed vertex to the bowtie: z divides only generator 9,
    # which reduces away, and the witness lifts back with a 0 coefficient
    ideal = SquarefreeIdeal(
        ("u1", "u2", "u3", "u4", "u5", "u6", "u7", "z"),
        (
            {"u1", "u2"},
            {"u1", "u3"},
            {"u2", "u3"},
            {"u3", "u4"},
            {"u4", "u5"},
            {"u5", "u6"},
            {"u5", "u7"},
            {"u6", "u7"},
            {"z", "u4"},
        ),
    )
    h = build_from_ideal(ideal)
    reduced, trace = reduce_closed_fixpoint(h)
    assert trace.rounds == (((9, "z"),),)
    assert reduced.num_vertices == 8
    pair = find_exceptional_pair(reduced)
    assert pair is not None
    small = exceptional_pair_rule(reduced).witness
    lifted = lift_witness(trace, small)
    coefficients = fraction_witness.coefficients(small)
    assert fraction_witness.coefficients(lifted) == coefficients + (Fraction(0),)
    assert lifted.degree == small.degree
    assert verify_witness(polytope_from_ideal(ideal), lifted).valid


def connector_deleted(h):
    """The bowtie minor that deleting the connector edge (4, 5) leaves."""
    sub, mapping = induced_subhypergraph(h, (1, 2, 3, 6, 7, 8))
    return sub, MinorTrace(h, ((4, 5),), mapping)


def test_lift_witness_through_minor(load_ideal):
    h = build_from_ideal(load_ideal("bowtie.ideal"))
    # deleting the connector edge leaves the two triangles; build a small
    # witness there and lift it back
    sub, trace = connector_deleted(h)
    assert trace.surviving == (1, 2, 3, 6, 7, 8)
    small = fraction_witness.witness((HALF,) * 6, 3, (1, 1, 1, 0, 1, 1, 1))
    lifted = lift_witness(trace, small)
    assert fraction_witness.coefficients(lifted) == (HALF, HALF, HALF, 0, 0, HALF, HALF, HALF)
    assert lifted.point == (1, 1, 1, 0, 1, 1, 1)


def test_lift_witness_rejects_a_fractional_point(load_ideal):
    h = build_from_ideal(load_ideal("bowtie.ideal"))
    _, trace = connector_deleted(h)
    # halves on the bowtie's vertices 1 and 2 put 1/2 on label u2 = {1, 3}
    small = fraction_witness.witness((HALF, HALF, 0, 0, 0, 0), 1, (1, 0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError) as info:
        lift_witness(trace, small)
    assert str(info.value) == "point entry 1/2 is not an integer"


@st.composite
def identity_lifts(draw):
    """A hypergraph and a valid witness shape on its vertices.

    The coefficients are multiples of 1/d in [0, 1), the last one chosen
    so that they sum to an integer; the lift through the identity trace
    recomputes the point, which may be fractional.
    """
    h = draw(separated_hypergraphs())
    d = draw(st.integers(1, 4))
    numerators = draw(
        st.lists(st.integers(0, d - 1), min_size=h.num_vertices - 1, max_size=h.num_vertices - 1)
    )
    numerators.append(-sum(numerators) % d)
    coefficients = tuple(Fraction(a, d) for a in numerators)
    return h, fraction_witness.witness(coefficients, sum(coefficients), (0,))


@settings(max_examples=200, deadline=None)
@given(case=identity_lifts())
def test_lift_witness_matches_fraction_reference(case):
    h, small = case
    trace = ReductionTrace(h, (), tuple(h.vertices))
    coefficients = fraction_witness.coefficients(small)
    powers = fraction_witness.label_powers(h.labels, coefficients)
    message = fraction_witness.witness_error(coefficients, small.degree, powers)
    if message is not None:
        with pytest.raises(ValueError) as info:
            lift_witness(trace, small)
        assert str(info.value) == message
        return
    lifted = lift_witness(trace, small)
    assert lifted == fraction_witness.witness(coefficients, small.degree, tuple(map(int, powers)))


def test_lift_witness_validation(load_ideal):
    h = build_from_ideal(load_ideal("bowtie.ideal"))
    _, trace = connector_deleted(h)
    with pytest.raises(TypeError, match="cannot lift"):
        lift_witness("not a trace", fraction_witness.witness((HALF, HALF), 1, (1,)))
    with pytest.raises(ValueError, match="witness has 2 coefficients"):
        lift_witness(trace, fraction_witness.witness((HALF, HALF), 1, (1,)))
