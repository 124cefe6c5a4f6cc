from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings

from idpoly import engine
from idpoly.certificates import (
    RuleOutcome,
    Witness,
    bicolor_obstruction,
    decide_connected_odd,
    find_exceptional_pair,
)
from idpoly.engine import (
    NORMAL,
    NOT_NORMAL,
    RULE_BALANCED,
    RULE_BICOLOR,
    RULE_CONNECTED_ODD,
    RULE_EMPTY,
    RULE_MINOR,
    RULE_ORACLE,
    RULE_PAIR,
    RULE_SINGLE,
    RULE_TORSION,
    UNKNOWN,
    EngineConfig,
    _may_fire,
    analyze,
    citation_for,
)
from idpoly.hypergraph import build_from_ideal, enumerate_minors, reduce_closed_fixpoint
from idpoly.intlinalg import TorsionCertificate
from idpoly.model import SquarefreeIdeal, polytope_from_ideal
from idpoly.oracle import decide_normal_bruteforce, verify_witness

from randutil import separated_hypergraphs

HALF = Fraction(1, 2)


def mat_ideal(name):
    from conftest import DATA
    from idpoly import parsing
    from idpoly.model import minimalize_generators

    poly = parsing.parse_matrix_text((DATA / name).read_text())
    n = poly.ambient_dim
    gens = [
        frozenset(f"x{i + 1}" for i, bit in enumerate(row) if bit)
        for row in poly.vertices
    ]
    return minimalize_generators([f"x{i + 1}" for i in range(n)], gens)


RULE_TABLE = [
    ("fig1.ideal", NORMAL, RULE_EMPTY),
    ("tri.ideal", NORMAL, RULE_CONNECTED_ODD),
    ("fourcyc.ideal", NORMAL, RULE_BALANCED),
    ("hex6.ideal", NOT_NORMAL, RULE_CONNECTED_ODD),
    ("sixtri.ideal", NORMAL, RULE_CONNECTED_ODD),
    ("k24.ideal", NOT_NORMAL, RULE_TORSION),
    ("solv3.ideal", NOT_NORMAL, RULE_TORSION),
    ("bowtie.ideal", NOT_NORMAL, RULE_PAIR),
    ("ih1.ideal", NOT_NORMAL, RULE_TORSION),
    ("ih2.ideal", NOT_NORMAL, RULE_PAIR),
    ("veiled_minor10.ideal", NOT_NORMAL, RULE_PAIR),
]


@pytest.mark.parametrize("name,status,rule", RULE_TABLE)
def test_rule_table(load_ideal, name, status, rule):
    report = analyze(load_ideal(name))
    assert report.status == status
    assert report.rule == rule
    assert report.verified
    if status == NOT_NORMAL and report.witness is not None:
        poly = polytope_from_ideal(load_ideal(name))
        assert verify_witness(poly, report.witness).valid


def test_rem32_full_report():
    report = analyze(mat_ideal("rem32.mat"))
    assert report.status == NOT_NORMAL
    assert report.rule == RULE_CONNECTED_ODD
    assert report.paper_rule == (
        "Theorem 4.1: even vertex count, no even-dimensional edge"
    )
    assert report.witness.coefficients == (HALF,) * 6
    assert report.witness.degree == 3
    assert report.witness.point == (1, 1, 1, 1, 1, 1, 1)
    assert report.torsion is None
    assert report.minor is None
    assert report.verified
    diag = dict(report.diagnostics)
    assert diag[RULE_CONNECTED_ODD] == (
        "not_normal: vertex count 6 is even and every edge has odd dimension"
    )
    assert diag[RULE_BALANCED] == (
        "inapplicable: generator degrees not uniform: (2,2,3,2,2,3)"
    )
    assert diag[RULE_TORSION] == "not_normal: invariant factor 2"
    assert diag[RULE_BICOLOR] == "inapplicable: no unbalanced simple edge"
    assert diag[RULE_PAIR] == "inapplicable: no exceptional pair found"
    assert report.stats["reduction_rounds"] == 0


def test_fig1_reduces_to_nothing(load_ideal):
    report = analyze(load_ideal("fig1.ideal"))
    assert report.status == NORMAL
    assert report.rule == RULE_EMPTY
    assert report.reduction.rounds == (
        ((2, "e"), (3, "b"), (4, "d")),
        ((1, "a"),),
    )
    assert report.stats["reduction_rounds"] == 2
    assert report.verified


def test_single_generator_reduces_to_empty():
    # one generator means every label contracts to that vertex, so the
    # fixpoint always empties; the single-vertex rule stays defensive
    ideal = SquarefreeIdeal(("x", "y"), ({"x", "y"},))
    report = analyze(ideal)
    assert report.status == NORMAL
    assert report.rule == RULE_EMPTY
    assert report.reduction.rounds == (((1, "x"),),)


def test_solv3_diagnostics_record_prime(load_ideal):
    report = analyze(load_ideal("solv3.ideal"))
    diag = dict(report.diagnostics)
    assert diag[RULE_BICOLOR] == (
        "not_normal: p=3, simple edge (1, 3, 5) has 3 red / 0 blue"
    )
    # torsion outranks the coloring in the priority order
    assert report.rule == RULE_TORSION
    assert report.torsion.m == 3
    assert report.torsion_scope == "original"


def test_twin_d_strict_goes_through_minors(load_ideal):
    report = analyze(load_ideal("twin_d.ideal"))
    assert report.status == NOT_NORMAL
    assert report.rule == RULE_MINOR
    assert report.minor_rule == RULE_TORSION
    assert report.minor.deleted_edges == ((5, 9),)
    assert report.minor.surviving == (1, 2, 3, 4, 6, 7, 8)
    assert report.torsion.u == (0, 0, 0, 0, 0, 1, 1, 1)
    assert report.torsion.m == 2
    assert report.torsion_scope == "minor"
    assert report.witness is None
    assert report.verified
    assert report.stats["minors_examined"] == 4
    diag = dict(report.diagnostics)
    assert diag[RULE_CONNECTED_ODD] == "inapplicable: 1-skeleton is not connected"
    assert diag[RULE_BALANCED] == (
        "inapplicable: special odd cycle on vertices (1, 2, 3)"
    )
    assert diag[RULE_TORSION] == "inapplicable: lattice quotient torsion-free"


def test_twin_d_relaxed_finds_pair_directly(load_ideal):
    report = analyze(load_ideal("twin_d.ideal"), EngineConfig(relaxed_connection=True))
    assert report.status == NOT_NORMAL
    assert report.rule == RULE_PAIR
    assert report.minor is None
    assert report.witness.coefficients == (
        HALF, HALF, HALF, 0, 0, HALF, HALF, HALF, 0,
    )
    assert report.witness.degree == 3
    assert report.witness.point == (1, 1, 1, 1, 1, 1, 0, 0)
    assert report.verified


def test_twin_d_without_minors_is_unknown(load_ideal):
    config = EngineConfig(use_minors=False)
    report = analyze(load_ideal("twin_d.ideal"), config)
    assert report.status == UNKNOWN
    assert report.rule is None
    assert not report.verified
    diag = dict(report.diagnostics)
    assert diag[RULE_ORACLE] == (
        "skipped: instance size (9 vertices, dimension 8) exceeds the oracle caps"
    )


def test_veiled_needs_minor_search(load_ideal):
    report = analyze(load_ideal("veiled.ideal"))
    assert report.status == NOT_NORMAL
    assert report.rule == RULE_MINOR
    assert report.minor_rule == RULE_TORSION
    assert report.minor.deleted_edges == ((12, 17), (11, 16), (4, 5))
    assert report.minor.surviving == (
        1, 2, 3, 6, 7, 8, 9, 10, 13, 14, 15, 18, 19, 20,
    )
    assert report.torsion.u == (0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1)
    assert report.torsion.m == 2
    assert report.torsion_scope == "minor"
    assert report.stats["minors_examined"] == 162
    assert report.verified


def test_veiled_pair_only_minor_search(load_ideal):
    config = EngineConfig(
        minor_rules=frozenset((RULE_PAIR,)), minor_budget=20000
    )
    report = analyze(load_ideal("veiled.ideal"), config)
    assert report.status == NOT_NORMAL
    assert report.rule == RULE_MINOR
    assert report.minor_rule == RULE_PAIR
    assert report.minor.deleted_edges == ((14, 19), (12, 17), (11, 16), (7, 8))
    assert report.minor.surviving == (1, 2, 3, 4, 5, 6, 9, 10, 13, 15, 18, 20)
    assert report.witness is not None
    assert report.witness.degree == 5
    assert report.witness.point == (1, 1, 1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1)
    nonzero = tuple(
        i + 1 for i, c in enumerate(report.witness.coefficients) if c
    )
    assert nonzero == (1, 2, 3, 6, 9, 10, 13, 15, 18, 20)
    assert report.stats["minors_examined"] == 455
    assert report.verified
    poly = polytope_from_ideal(load_ideal("veiled.ideal"))
    assert verify_witness(poly, report.witness).valid


def test_veiled_without_minors_is_unknown(load_ideal):
    report = analyze(load_ideal("veiled.ideal"), EngineConfig(use_minors=False))
    assert report.status == UNKNOWN


def test_closed_vertex_then_minor_witness_lift():
    # bowtie plus a ninth generator z*u4: the engine reduces the closed
    # vertex away, the pair detector is disabled, and the minor search
    # must find the pair on the full reduced hypergraph (empty deletion)
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
    report = analyze(ideal, EngineConfig(use_exceptional_pair=False))
    assert report.status == NOT_NORMAL
    assert report.rule == RULE_MINOR
    assert report.minor_rule == RULE_PAIR
    assert report.reduction.rounds == (((9, "z"),),)
    assert report.minor.deleted_edges == ()
    assert report.minor.surviving == (1, 2, 3, 4, 5, 6, 7, 8)
    assert report.witness.coefficients == (
        HALF, HALF, HALF, 0, 0, HALF, HALF, HALF, 0,
    )
    assert report.witness.degree == 3
    assert report.witness.point == (1, 1, 1, 0, 1, 1, 1, 0)
    assert report.verified
    assert verify_witness(polytope_from_ideal(ideal), report.witness).valid


def test_disabling_first_rule_falls_through(load_ideal):
    report = analyze(mat_ideal("rem32.mat"), EngineConfig(use_connected_odd=False))
    assert report.status == NOT_NORMAL
    assert report.rule == RULE_TORSION
    assert report.torsion.m == 2
    assert report.torsion_scope == "original"
    assert report.witness is None


def test_all_rules_disabled_is_unknown(load_ideal):
    config = EngineConfig(
        use_connected_odd=False,
        use_balanced_uniform=False,
        use_torsion=False,
        use_bicolor=False,
        use_exceptional_pair=False,
        use_minors=False,
        use_oracle=False,
    )
    report = analyze(load_ideal("hex6.ideal"), config)
    assert report.status == UNKNOWN
    assert report.rule is None
    assert report.diagnostics == ()


def test_oracle_only_configuration(load_ideal):
    config = EngineConfig(
        use_connected_odd=False,
        use_balanced_uniform=False,
        use_torsion=False,
        use_bicolor=False,
        use_exceptional_pair=False,
        use_minors=False,
    )
    report = analyze(load_ideal("hex6.ideal"), config)
    assert report.status == NOT_NORMAL
    assert report.rule == RULE_ORACLE
    assert report.witness == report.witness  # structured witness present
    assert report.witness.degree == 3
    assert report.verified
    assert report.stats["oracle_degrees"] == [2, 3]
    assert report.stats["oracle_points"] > 0


def test_no_verify_flag(load_ideal):
    report = analyze(load_ideal("hex6.ideal"), EngineConfig(verify=False))
    assert report.status == NOT_NORMAL
    assert not report.verified


def test_reports_are_deterministic(load_ideal):
    a = analyze(load_ideal("twin_d.ideal"))
    b = analyze(load_ideal("twin_d.ideal"))
    # stats carries timing and is excluded from equality
    assert a == b


def test_citation_strings():
    assert citation_for(RULE_CONNECTED_ODD, NOT_NORMAL) == (
        "Theorem 4.1: even vertex count, no even-dimensional edge"
    )
    assert citation_for(RULE_CONNECTED_ODD, NORMAL) == (
        "Theorem 4.1: odd vertex count or even-dimensional edge"
    )
    assert citation_for(RULE_ORACLE, NORMAL)
    assert citation_for(RULE_EMPTY, NORMAL)


@pytest.mark.parametrize(
    "name",
    [
        "tri.ideal",
        "fourcyc.ideal",
        "fig1.ideal",
        "sixtri.ideal",
        "hex6.ideal",
        "solv3.ideal",
        "k24.ideal",
    ],
)
def test_engine_agrees_with_oracle(load_ideal, name):
    ideal = load_ideal(name)
    report = analyze(ideal)
    verdict = decide_normal_bruteforce(polytope_from_ideal(ideal))
    assert report.status == verdict.status


def test_unreduced_and_reduced_verdicts_match(load_ideal):
    # closed-vertex reduction must not change the answer: compare the
    # engine on the bowtie against the bowtie with a pendant generator
    plain = analyze(load_ideal("bowtie.ideal"))
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
    padded = analyze(ideal)
    assert plain.status == padded.status == NOT_NORMAL


GUARDED_RULES = (RULE_CONNECTED_ODD, RULE_BICOLOR, RULE_PAIR)


def unguarded_fires(minor, rule):
    """Whether the detector itself fires, without the engine's guard."""
    if rule == RULE_CONNECTED_ODD:
        return decide_connected_odd(minor).status == NOT_NORMAL
    if rule == RULE_BICOLOR:
        return bicolor_obstruction(minor) is not None
    return any(
        find_exceptional_pair(minor, relaxed=relaxed) is not None
        for relaxed in (False, True)
    )


def guarded_minor_rules_that_fire(h, budget=None):
    fired = set()
    for minor, _ in enumerate_minors(h, budget=budget):
        if minor.num_vertices == 0:
            continue
        for rule in GUARDED_RULES:
            if unguarded_fires(minor, rule):
                assert _may_fire(minor, rule), (rule, minor)
                fired.add(rule)
    return fired


@settings(max_examples=300, deadline=None)
@given(h=separated_hypergraphs())
def test_minor_guards_hold_wherever_a_detector_fires(h):
    guarded_minor_rules_that_fire(h)


def test_minor_guards_hold_on_fixture_minors(load_ideal):
    from conftest import DATA

    fired = set()
    for path in sorted(DATA.glob("*.ideal")) + [DATA / "rem32.mat"]:
        ideal = mat_ideal(path.name) if path.suffix == ".mat" else load_ideal(path.name)
        reduced, _ = reduce_closed_fixpoint(build_from_ideal(ideal))
        fired |= guarded_minor_rules_that_fire(reduced, budget=200)
    assert fired == set(GUARDED_RULES)


@settings(max_examples=300, deadline=None)
@given(h=separated_hypergraphs())
def test_minor_guards_are_their_stated_conditions(h):
    for minor, _ in enumerate_minors(h):
        s = minor.num_vertices
        if s == 0:
            continue
        even = s % 2 == 0 and all(len(e) % 2 == 0 for e in minor.edges)
        assert _may_fire(minor, RULE_CONNECTED_ODD) == even
        connectable = len(minor.one_skeleton().edges) >= s - 1
        assert _may_fire(minor, RULE_BICOLOR) == connectable
        fat_simple = any(len(e.vertices) >= 3 for e in minor.simple_edges())
        assert _may_fire(minor, RULE_PAIR) == fat_simple


def zero_witness(num_vertices, num_labels):
    """Well-formed but invalid: the zero point at degree 0 decomposes trivially."""
    return Witness((Fraction(0),) * num_vertices, 0, (0,) * num_labels)


NO_STRUCTURAL_RULES = dict(
    use_connected_odd=False,
    use_balanced_uniform=False,
    use_torsion=False,
    use_bicolor=False,
    use_exceptional_pair=False,
)


def test_demoted_structural_candidate_falls_through(monkeypatch):
    def planted(h):
        return RuleOutcome(NOT_NORMAL, "planted", zero_witness(h.num_vertices, len(h.labels)))

    monkeypatch.setattr(engine, "decide_connected_odd", planted)
    report = analyze(mat_ideal("rem32.mat"))
    assert report.status == NOT_NORMAL
    assert report.rule == RULE_TORSION
    assert report.torsion.m == 2
    assert report.verified
    assert report.diagnostics[0] == (RULE_CONNECTED_ODD, "not_normal: planted")
    assert report.diagnostics[-1][0] == RULE_CONNECTED_ODD
    assert report.diagnostics[-1][1].startswith("demoted: witness failed verification: ")


def test_demoted_minor_witness_goes_on_to_the_oracle(load_ideal, monkeypatch):
    real = engine._search_minors

    def planted(hypergraph, config):
        hit, examined, notes = real(hypergraph, config)
        assert hit.rule == RULE_CONNECTED_ODD
        bad = zero_witness(hypergraph.num_vertices, len(hypergraph.labels))
        return replace(hit, witness=bad), examined, notes

    monkeypatch.setattr(engine, "_search_minors", planted)
    report = analyze(load_ideal("hex6.ideal"), EngineConfig(**NO_STRUCTURAL_RULES))
    assert report.status == NOT_NORMAL
    assert report.rule == RULE_ORACLE
    assert report.minor is None
    assert report.witness.degree == 3
    assert report.verified
    assert report.stats["oracle_degrees"] == [2, 3]
    rules = [rule for rule, _ in report.diagnostics]
    assert rules == [RULE_MINOR]
    assert report.diagnostics[0][1].startswith(
        "demoted: lifted witness failed verification: "
    )


def test_demoted_oracle_witness_is_unknown_at_once(load_ideal, monkeypatch):
    real = engine.decide_normal_bruteforce

    def planted(polytope, **kwargs):
        verdict = real(polytope, **kwargs)
        bad = zero_witness(polytope.num_vertices, polytope.ambient_dim)
        return replace(verdict, witness=bad)

    monkeypatch.setattr(engine, "decide_normal_bruteforce", planted)
    config = EngineConfig(use_minors=False, **NO_STRUCTURAL_RULES)
    report = analyze(load_ideal("hex6.ideal"), config)
    assert report.status == UNKNOWN
    assert report.rule is None
    assert report.witness is None
    assert not report.verified
    assert report.stats["oracle_degrees"] == [2, 3]
    assert len(report.diagnostics) == 1
    rule, message = report.diagnostics[0]
    assert rule == RULE_ORACLE
    assert message.startswith("demoted: witness failed verification: ")


def test_demoted_torsion_certificate_goes_on_to_the_oracle(load_ideal, monkeypatch):
    def planted(points):
        # u = 0 lies in every lattice, so the re-check must reject it
        return TorsionCertificate((0,) * (len(points[0]) + 1), 2, (2,))

    monkeypatch.setattr(engine, "torsion_check", planted)
    config = EngineConfig(use_minors=False, **{**NO_STRUCTURAL_RULES, "use_torsion": True})
    report = analyze(load_ideal("hex6.ideal"), config)
    assert report.status == NOT_NORMAL
    assert report.rule == RULE_ORACLE
    assert report.torsion is None
    assert report.verified
    assert report.diagnostics == (
        (RULE_TORSION, "not_normal: invariant factor 2"),
        (RULE_TORSION, "demoted: certificate failed re-check"),
    )
