from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from itertools import combinations, islice

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form

from idpoly import certificates, engine
from idpoly.certificates import (
    INAPPLICABLE,
    RuleOutcome,
    Witness,
    bicolor_obstruction,
    decide_connected_odd,
    exceptional_pair_rule,
    lift_witness,
    odd_cycle_rule,
    torsion_obstruction,
)
from idpoly.engine import (
    NORMAL,
    NOT_NORMAL,
    RULE_EMPTY,
    RULE_MINOR,
    RULE_ORACLE,
    RULE_SINGLE,
    UNKNOWN,
    EngineConfig,
    _core_has_torsion,
    analyze,
    citation_for,
    oracle_report,
)
from idpoly.hypergraph import (
    build_from_ideal,
    closed_core,
    enumerate_minors,
    ideal_of,
    incidence_matrix,
    induced_subhypergraph,
    reduce_closed_fixpoint,
)
from idpoly.intlinalg import (
    TorsionCertificate,
    column_echelon,
    lattice_member,
    torsion_check,
    transpose,
    verify_torsion_certificate,
)
from idpoly.model import SquarefreeIdeal, ZeroOnePolytope, polytope_from_ideal
from idpoly.oracle import decide_normal_bruteforce, vertex_sums, verify_witness

from randutil import (
    benchmark_edge_ideals,
    covered_ideals,
    odd_cycle_pair_hypergraphs,
    separated_hypergraphs,
    shared_vertex_cycle_pair_hypergraphs,
    skeleton_by_bfs,
    small_graph_edge_ideals,
)
from reference_search import quadratic_simple_edges

HALF = Fraction(1, 2)

# the structural rules' ids, as reports print them
RULE_CONNECTED_ODD = "thm-4.1"
RULE_BALANCED = "prop-3.5"
RULE_TORSION = "rem-3.2"
RULE_BICOLOR = "thm-4.5"
RULE_PAIR = "thm-4.8"
RULE_ODD_CYCLE = "odd-cycle"
RULES = {rule.id: rule for rule in engine.STRUCTURAL_RULES}


def rules_named(*ids):
    """The records of the rules ``ids``, in priority order."""
    return tuple(rule for rule in RULES.values() if rule.id in ids)


def may_fire(rule_id, record):
    """A rule's minor guard on a walk record, with a fresh screen memo."""
    return RULES[rule_id].guard(record, {})


def test_rule_records_and_their_order():
    assert tuple(RULES) == (
        RULE_CONNECTED_ODD, RULE_BALANCED, RULE_TORSION, RULE_BICOLOR, RULE_PAIR, RULE_ODD_CYCLE
    )
    # the minor rules are the records with a guard, in priority order
    assert engine.MINOR_RULES == rules_named(
        RULE_CONNECTED_ODD, RULE_TORSION, RULE_BICOLOR, RULE_PAIR
    )
    assert RULES[RULE_BALANCED].guard is None
    assert RULES[RULE_ODD_CYCLE].guard is None


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


def without_rules(monkeypatch, *rules):
    """Run the structural rules minus ``rules``, in their priority order."""
    kept = tuple(r for r in engine.STRUCTURAL_RULES if r.id not in rules)
    monkeypatch.setattr(engine, "STRUCTURAL_RULES", kept)


def assert_odd_cycle_witness(ideal, report, nonzero, point):
    """The report is the odd-cycle rule's: 1/2 on the generators ``nonzero``."""
    assert report.status == NOT_NORMAL
    assert report.rule == RULE_ODD_CYCLE
    assert report.minor is None
    assert report.torsion is None
    assert report.verified
    coefficients = report.witness.coefficients
    assert tuple(i + 1 for i, c in enumerate(coefficients) if c) == nonzero
    assert set(coefficients) == {0, HALF}
    assert report.witness.degree == len(nonzero) // 2
    assert report.witness.point == point
    assert verify_witness(polytope_from_ideal(ideal), report.witness).valid


# twin_d's triangles {a,b,c} and {e,f,g}: generators 1-3 and 6-8
TWIN_D_ODD_CYCLES = ((1, 2, 3, 6, 7, 8), (1, 1, 1, 1, 1, 1, 0, 0))


def test_twin_d_strict_goes_through_minors(load_ideal, monkeypatch):
    ideal = load_ideal("twin_d.ideal")
    assert_odd_cycle_witness(ideal, analyze(ideal), *TWIN_D_ODD_CYCLES)
    without_rules(monkeypatch, RULE_ODD_CYCLE)
    report = analyze(ideal)
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


def test_twin_d_without_minors_is_unknown(load_ideal, monkeypatch):
    config = EngineConfig(minor_budget=0)
    ideal = load_ideal("twin_d.ideal")
    assert_odd_cycle_witness(ideal, analyze(ideal, config), *TWIN_D_ODD_CYCLES)
    without_rules(monkeypatch, RULE_ODD_CYCLE)
    report = analyze(ideal, config)
    assert report.status == UNKNOWN
    assert report.rule is None
    assert not report.verified
    diag = dict(report.diagnostics)
    assert diag[RULE_ORACLE] == (
        "skipped: instance size (9 vertices, dimension 8) exceeds the oracle caps"
    )


# veiled's triangle {u1,u2,u3} and 5-cycle {u5,...,u9}: generators 1-3 and 6-10
VEILED_ODD_CYCLES = (
    (1, 2, 3, 6, 7, 8, 9, 10),
    (1, 1, 1, 0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0),
)


def test_veiled_needs_minor_search(load_ideal, monkeypatch):
    ideal = load_ideal("veiled.ideal")
    assert_odd_cycle_witness(ideal, analyze(ideal), *VEILED_ODD_CYCLES)
    without_rules(monkeypatch, RULE_ODD_CYCLE)
    report = analyze(ideal)
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


def test_veiled_pair_only_minor_search(load_ideal, monkeypatch):
    monkeypatch.setattr(engine, "MINOR_RULES", rules_named(RULE_PAIR))
    ideal = load_ideal("veiled.ideal")
    config = EngineConfig(minor_budget=20000)
    assert_odd_cycle_witness(ideal, analyze(ideal, config), *VEILED_ODD_CYCLES)
    without_rules(monkeypatch, RULE_ODD_CYCLE)
    report = analyze(ideal, config)
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


def test_veiled_without_minors_is_unknown(load_ideal, monkeypatch):
    ideal = load_ideal("veiled.ideal")
    config = EngineConfig(minor_budget=0)
    assert_odd_cycle_witness(ideal, analyze(ideal, config), *VEILED_ODD_CYCLES)
    without_rules(monkeypatch, RULE_ODD_CYCLE)
    report = analyze(ideal, config)
    assert report.status == UNKNOWN


def test_closed_vertex_then_minor_witness_lift(monkeypatch):
    # bowtie plus a ninth generator z*u4: the engine reduces the closed
    # vertex away, the pair detector and the odd-cycle rule are disabled,
    # and the minor search must find the pair on the full reduced
    # hypergraph (empty deletion)
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
    with monkeypatch.context() as patch:
        # with the odd-cycle rule on, it settles the reduced graph first,
        # with the same witness, lifted through the reduction
        without_rules(patch, RULE_PAIR)
        assert_odd_cycle_witness(
            ideal, analyze(ideal), (1, 2, 3, 6, 7, 8), (1, 1, 1, 0, 1, 1, 1, 0)
        )
    without_rules(monkeypatch, RULE_PAIR, RULE_ODD_CYCLE)
    report = analyze(ideal)
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


def test_disabling_first_rule_falls_through(monkeypatch):
    without_rules(monkeypatch, RULE_CONNECTED_ODD)
    report = analyze(mat_ideal("rem32.mat"))
    assert report.status == NOT_NORMAL
    assert report.rule == RULE_TORSION
    assert report.torsion.m == 2
    assert report.torsion_scope == "original"
    assert report.witness is None


def test_all_rules_disabled_is_unknown(load_ideal, monkeypatch):
    monkeypatch.setattr(engine, "STRUCTURAL_RULES", ())
    config = EngineConfig(minor_budget=0, use_oracle=False)
    report = analyze(load_ideal("hex6.ideal"), config)
    assert report.status == UNKNOWN
    assert report.rule is None
    assert report.diagnostics == ()


def test_oracle_only_configuration(load_ideal, monkeypatch):
    monkeypatch.setattr(engine, "STRUCTURAL_RULES", ())
    report = analyze(load_ideal("hex6.ideal"), EngineConfig(minor_budget=0))
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
    for rule in engine.STRUCTURAL_RULES:
        assert rule.cite, rule.id
        assert set(rule.cite) <= {NORMAL, NOT_NORMAL}, rule.id
        for status, text in rule.cite.items():
            assert text, (rule.id, status)
            assert citation_for(rule.id, status) == text
    assert citation_for(RULE_ODD_CYCLE, NOT_NORMAL) == (
        "Ohsugi-Hibi 1998, Simis-Vasconcelos-Villarreal 1998: two disjoint unjoined odd cycles"
    )
    # only Theorem 4.1 and the odd cycle condition decide both ways
    assert [rule.id for rule in engine.STRUCTURAL_RULES if len(rule.cite) == 2] == [
        RULE_CONNECTED_ODD, RULE_ODD_CYCLE
    ]


def test_rules_dispatch_through_module_level_names(load_ideal, monkeypatch):
    # the benchmark's tracer wraps a detector by replacing the module
    # attributes that hold it, so dispatch must look each name up in engine
    calls = []
    for name in (
        "decide_connected_odd",
        "balanced_uniform_rule",
        "torsion_obstruction",
        "bicolor_obstruction",
        "exceptional_pair_rule",
    ):
        real = getattr(engine, name)

        def recorder(*args, _name=name, _real=real, **kwargs):
            calls.append((_name, kwargs))
            return _real(*args, **kwargs)

        monkeypatch.setattr(engine, name, recorder)
    for relaxed in (False, True):
        calls.clear()
        analyze(mat_ideal("rem32.mat"), EngineConfig(relaxed_connection=relaxed))
        assert calls == [
            ("decide_connected_odd", {}),
            ("balanced_uniform_rule", {}),
            ("torsion_obstruction", {}),
            ("bicolor_obstruction", {}),
            ("exceptional_pair_rule", {"relaxed": relaxed}),
        ]
    # the minor walk dispatches the same way.  An exact guard runs its
    # detector on a minor only where it fires, so between them these walks
    # run every minor rule: hex6's first minor fires Theorem 4.1, and
    # solv3's fires Theorem 4.5 once torsion, which fires there too, is
    # taken out of the walk
    calls.clear()
    monkeypatch.setattr(engine, "STRUCTURAL_RULES", ())
    for name in ("hex6.ideal", "k24.ideal", "edge65.ideal"):
        analyze(load_ideal(name), EngineConfig(use_oracle=False))
    monkeypatch.setattr(engine, "MINOR_RULES", rules_named(RULE_BICOLOR))
    analyze(load_ideal("solv3.ideal"), EngineConfig(use_oracle=False))
    assert {name for name, _ in calls} == {
        "decide_connected_odd",
        "torsion_obstruction",
        "bicolor_obstruction",
        "exceptional_pair_rule",
    }


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


@settings(max_examples=200, deadline=None)
@given(ideal=covered_ideals(max_vars=8, max_gens=7))
def test_engine_agrees_with_oracle_on_random_ideals(ideal):
    # at most 7 vertices and 8 variables: inside the oracle's caps, so
    # analyze decides every ideal, by reduction, a rule or the oracle
    report = analyze(ideal)
    assert report.status == decide_normal_bruteforce(polytope_from_ideal(ideal)).status


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


def simplex_normality(polytope):
    """Whether a lattice simplex is normal by its Smith form; None for a non-simplex.

    The vertices are affinely independent exactly when the rows (v, 1)
    are linearly independent, that is when the homogenized vertex matrix
    has as many nonzero invariant factors as rows.  Such a simplex is
    normal iff it is unimodular, iff every invariant factor is 1.  Then
    the rows are a basis of the lattice points of their span, so every
    point of kP is a sum of k vertices.  Otherwise some nonzero point
    sum(c_i (v_i, 1)) of Z^(n+1) has every c_i in [0, 1), so degree
    sum(c_i) >= 1, and no sum of vertices reaches it, since its
    coefficients are unique and not integral.  Computed by sympy's
    ``smith_normal_form``, so it shares no code with ``idpoly.intlinalg``.
    """
    matrix = sympy.Matrix([[*v, 1] for v in polytope.vertices])
    if matrix.rows > matrix.cols:
        return None
    form = sympy_smith_normal_form(matrix, domain=sympy.ZZ)
    factors = [abs(form[i, i]) for i in range(matrix.rows)]
    if 0 in factors:
        return None
    return all(factor == 1 for factor in factors)


@st.composite
def zero_one_simplices(draw):
    """Affinely independent 0-1 points, at most 7 in dimension at most 6."""
    n = draw(st.integers(2, 6))
    point = st.tuples(*[st.integers(0, 1)] * n)
    polytope = ZeroOnePolytope(draw(st.lists(point, min_size=2, max_size=n + 1, unique=True)))
    assume(simplex_normality(polytope) is not None)
    return polytope


# the standard triangle, and a tetrahedron of normalized volume 2 whose
# point (1, 1, 1) at degree 2 is no sum of two vertices
@example(polytope=ZeroOnePolytope([(0, 0), (1, 0), (0, 1)]))
@example(polytope=ZeroOnePolytope([(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)]))
@settings(max_examples=150, deadline=None)
@given(polytope=zero_one_simplices())
def test_simplex_normality_agrees_with_the_oracle(polytope):
    normal = simplex_normality(polytope)
    assert normal is not None
    assert normal == (decide_normal_bruteforce(polytope).status == NORMAL)


def structural_candidates_stand(h, relaxed_values=(False, True), oracle_statuses=None):
    """Check every candidate ``_detect`` returns on h against h's own polytope.

    Every not_normal candidate has a witness, which must pass
    ``verify_witness``; only Remark 3.2's also has a torsion certificate,
    which must pass ``verify_torsion_certificate`` on the polytope's
    vertices.  A normal outcome must match ``simplex_normality`` on a
    lattice simplex, and on any other polytope the oracle's verdict within
    ``analyze``'s vertex cap.  Returns the (rule, status) pairs that fired.  ``oracle_statuses``
    maps a vertex set to its status; pass one dict to share those verdicts
    between calls, since many minors span the same polytope.
    """
    polytope = polytope_from_ideal(ideal_of(h))
    if oracle_statuses is None:
        oracle_statuses = {}
    fired = set()
    for relaxed in relaxed_values:
        cfg = EngineConfig(relaxed_connection=relaxed)
        for record in engine.STRUCTURAL_RULES:
            rule = record.id
            _, found = engine._detect(record, h, cfg)
            if found is None:
                continue
            fired.add((rule, found.status))
            if found.status == NOT_NORMAL:
                assert verify_witness(polytope, found.witness).valid, (rule, h)
                assert (found.torsion is not None) == (rule == RULE_TORSION), (rule, h)
                if found.torsion is not None:
                    assert verify_torsion_certificate(found.torsion, polytope.vertices), (rule, h)
                continue
            assert found.status == NORMAL, (rule, h)
            vertices = frozenset(polytope.vertices)
            if vertices not in oracle_statuses:
                normal = simplex_normality(polytope)
                if normal is not None:
                    oracle_statuses[vertices] = NORMAL if normal else NOT_NORMAL
                elif h.num_vertices <= engine.ORACLE_MAX_VERTICES:
                    oracle_statuses[vertices] = decide_normal_bruteforce(polytope).status
            if vertices in oracle_statuses:
                assert oracle_statuses[vertices] == NORMAL, (rule, h)
    return fired


@settings(max_examples=400, deadline=None)
@given(
    h=separated_hypergraphs()
    | odd_cycle_pair_hypergraphs()
    | shared_vertex_cycle_pair_hypergraphs(),
    relaxed=st.booleans(),
)
def test_structural_candidates_stand_on_their_own_polytope(h, relaxed):
    structural_candidates_stand(h, (relaxed,))


def test_structural_candidates_stand_on_fixture_minors(load_ideal):
    # 3,000 draws of the random strategies fired neither thm-4.1 not_normal
    # nor thm-4.5; the fixtures and their minors fire every rule
    from conftest import DATA

    fired = set()
    oracle_statuses = {}
    for path in sorted(DATA.glob("*.ideal")) + [DATA / "rem32.mat"]:
        ideal = mat_ideal(path.name) if path.suffix == ".mat" else load_ideal(path.name)
        reduced, _ = reduce_closed_fixpoint(build_from_ideal(ideal))
        minors = [record.hypergraph for record in enumerate_minors(reduced, budget=300)]
        for h in [reduced] + minors:
            if h.num_vertices > 0:
                fired |= structural_candidates_stand(h, oracle_statuses=oracle_statuses)
    assert fired == {
        (RULE_CONNECTED_ODD, NORMAL),
        (RULE_CONNECTED_ODD, NOT_NORMAL),
        (RULE_BALANCED, NORMAL),
        (RULE_TORSION, NOT_NORMAL),
        (RULE_BICOLOR, NOT_NORMAL),
        (RULE_PAIR, NOT_NORMAL),
        (RULE_ODD_CYCLE, NORMAL),
        (RULE_ODD_CYCLE, NOT_NORMAL),
    }


GUARDED_RULES = (RULE_CONNECTED_ODD, RULE_BICOLOR, RULE_PAIR)


def unguarded_fires(minor, rule):
    """Whether the detector itself fires, without the engine's guard."""
    if rule == RULE_CONNECTED_ODD:
        return decide_connected_odd(minor).status == NOT_NORMAL
    if rule == RULE_BICOLOR:
        return bicolor_obstruction(minor).status == NOT_NORMAL
    return any(
        exceptional_pair_rule(minor, relaxed=relaxed).status == NOT_NORMAL
        for relaxed in (False, True)
    )


def guarded_minor_rules_that_fire(h, budget=300):
    fired = set()
    for record in enumerate_minors(h, budget=budget):
        if record.num_vertices == 0:
            continue
        minor = record.hypergraph
        for rule in GUARDED_RULES:
            if unguarded_fires(minor, rule):
                assert may_fire(rule, record), (rule, minor)
                fired.add(rule)
    return fired


# the planted strategies draw the minors on which the Theorem 4.8 guard
# and the fat-simple-edge count it refines tell apart; uniform draws do not
PLANTED_OR_SEPARATED = (
    separated_hypergraphs() | odd_cycle_pair_hypergraphs() | shared_vertex_cycle_pair_hypergraphs()
)


@settings(max_examples=300, deadline=None)
@given(h=PLANTED_OR_SEPARATED)
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


def pair_union_exists(minor):
    """The Theorem 4.8 guard, restated on a built minor.

    Some U, one skeleton component of 6 or more vertices or two of 3 or
    more, that every edge meets evenly and two fat simple edges meet in
    exactly 2 vertices.
    """
    fat_simple = [set(e.vertices) for e in quadratic_simple_edges(minor) if len(e.vertices) >= 3]
    big = [c for c, _ in skeleton_by_bfs(minor) if len(c) >= 3]
    unions = [c for c in big if len(c) >= 6] + [c | d for c, d in combinations(big, 2)]
    return any(
        all(len(u.intersection(e)) % 2 == 0 for e in minor.edges)
        and sum(len(u & g) == 2 for g in fat_simple) >= 2
        for u in unions
    )


@settings(max_examples=300, deadline=None)
@given(h=PLANTED_OR_SEPARATED)
def test_minor_guards_are_their_stated_conditions(h):
    # the Theorem 4.1 and 4.5 guards are their detectors: see
    # test_exact_guards_are_their_detectors
    for record in enumerate_minors(h, budget=300):
        if record.num_vertices == 0:
            continue
        assert may_fire(RULE_PAIR, record) == pair_union_exists(record.hypergraph)
        assert may_fire(RULE_TORSION, record) == core_screen_has_torsion(record)


def fixture_hypergraphs(load_ideal):
    """Each tests/data input's hypergraph, as built and as reduced."""
    for _, ideal in fixture_ideals(load_ideal):
        h = build_from_ideal(ideal)
        yield h
        yield reduce_closed_fixpoint(h)[0]


def assert_walk_carries_cores(h, budget=300):
    """Each minor's carried core is its ``closed_core``, and empty cores stay empty.

    A child of a minor is the minor less one of its edges; each child the
    walk reaches from an empty-core minor must have an empty core too.
    """
    records = list(enumerate_minors(h, budget=budget))
    cores = {record.state: record.core for record in records}
    for record in records:
        assert record.core == closed_core(record.state, record.edges), record.surviving
        if not record.core:
            for edge in record.edges:
                assert cores.get(record.state ^ edge, 0) == 0, record.surviving


@settings(max_examples=300, deadline=None)
@given(h=PLANTED_OR_SEPARATED)
def test_walk_carries_each_minors_core(h):
    assert_walk_carries_cores(h)


def test_walk_carries_each_minors_core_on_fixtures(load_ideal):
    for h in fixture_hypergraphs(load_ideal):
        assert_walk_carries_cores(h)


def assert_exact_guards_are_their_detectors(h, budget=300):
    """Theorem 4.1's and 4.5's guards hold iff the detectors fire, and an empty core is inert.

    On a minor with an empty closed-vertex core no guard holds and no
    minor detector fires, with a strict or a relaxed connector search.
    Returns how often each exact guard held, and the empty cores seen.
    """
    detectors = {RULE_CONNECTED_ODD: decide_connected_odd, RULE_BICOLOR: bicolor_obstruction}
    held = dict.fromkeys(detectors, 0)
    empty = 0
    for record in enumerate_minors(h, budget=budget):
        if record.num_vertices == 0:
            continue
        minor = record.hypergraph
        for rule, detector in detectors.items():
            fires = detector(minor).status == NOT_NORMAL
            assert may_fire(rule, record) == fires, (rule, record.surviving)
            held[rule] += fires
        if record.core:
            continue
        empty += 1
        for rule in engine.MINOR_RULES:
            assert not rule.guard(record, {}), (rule.id, record.surviving)
            for relaxed in (False, True):
                outcome = rule.run(minor, EngineConfig(relaxed_connection=relaxed))
                assert outcome.status != NOT_NORMAL, (rule.id, relaxed, record.surviving)
    return held, empty


@settings(max_examples=300, deadline=None)
@given(h=PLANTED_OR_SEPARATED)
def test_exact_guards_are_their_detectors(h):
    assert_exact_guards_are_their_detectors(h)


def test_exact_guards_are_their_detectors_on_fixtures(load_ideal):
    held = {RULE_CONNECTED_ODD: 0, RULE_BICOLOR: 0}
    empty = 0
    for h in fixture_hypergraphs(load_ideal):
        counts, empties = assert_exact_guards_are_their_detectors(h)
        held = {rule: held[rule] + counts[rule] for rule in held}
        empty += empties
    # each exact guard is seen holding, and empty cores are seen
    assert all(held.values()) and empty > 0, (held, empty)


def test_pairs_the_guard_rejects_are_inapplicable_on_edge65_minors(load_ideal):
    reduced, _ = reduce_closed_fixpoint(build_from_ideal(load_ideal("edge65.ideal")))
    rejected = 0
    for record in enumerate_minors(reduced):
        minor = record.hypergraph
        fat_simple = [e for e in quadratic_simple_edges(minor) if len(e.vertices) >= 3]
        if len(fat_simple) < 2 or may_fire(RULE_PAIR, record):
            continue
        rejected += 1
        for relaxed in (False, True):
            outcome = exceptional_pair_rule(minor, relaxed=relaxed)
            assert outcome.status == INAPPLICABLE, (record.surviving, relaxed)
    assert rejected > 0


def core_screen_has_torsion(record):
    core = closed_core(record.state, record.edges)
    return bool(core) and _core_has_torsion(core, record.edges)


def assert_core_screen_is_torsion_check(h):
    """Compare the core screen with torsion_check on each full minor; count torsion.

    The torsion guard, with one memo for the whole walk, must agree too.
    """
    guard = RULES[RULE_TORSION].guard
    screens = {}
    with_torsion = 0
    for record in enumerate_minors(h):
        if record.num_vertices == 0:
            continue
        points = incidence_matrix(record.hypergraph)
        torsion = torsion_check(points) is not None
        assert core_screen_has_torsion(record) == torsion, record.trace.surviving
        assert guard(record, screens) == torsion, record.trace.surviving
        with_torsion += torsion
    return with_torsion


@settings(max_examples=300, deadline=None)
@given(h=separated_hypergraphs() | odd_cycle_pair_hypergraphs())
def test_core_screen_agrees_with_torsion_check(h):
    assert_core_screen_is_torsion_check(h)


@pytest.mark.parametrize("name", ["rem32.mat", "hex6.ideal"])
def test_core_screen_agrees_on_fixture_minors_with_torsion(load_ideal, name):
    ideal = mat_ideal(name) if name.endswith(".mat") else load_ideal(name)
    reduced, _ = reduce_closed_fixpoint(build_from_ideal(ideal))
    assert assert_core_screen_is_torsion_check(reduced) > 0


def fixture_ideals(load_ideal):
    from conftest import DATA

    for path in sorted(DATA.glob("*.ideal")) + sorted(DATA.glob("*.mat")):
        yield path.name, mat_ideal(path.name) if path.suffix == ".mat" else load_ideal(path.name)


@pytest.mark.parametrize("structural", [True, False])
def test_minor_walk_counters(load_ideal, monkeypatch, structural):
    # without the structural rules every input that keeps 2 or more
    # vertices after reduction reaches the walk; with them, mix45's walk
    # runs to its end.  With every rule, mix41 and mix45 alone reach the
    # walk, so the structural run drops the odd-cycle rule, which lets
    # twin_d and veiled walk too
    cfg = EngineConfig()
    if structural:
        walking = [
            name
            for name, ideal in fixture_ideals(load_ideal)
            if "minors_examined" in analyze(ideal).stats
        ]
        assert walking == ["mix41.ideal", "mix45.ideal"]
        without_rules(monkeypatch, RULE_ODD_CYCLE)
    else:
        monkeypatch.setattr(engine, "STRUCTURAL_RULES", ())
        cfg = EngineConfig(use_oracle=False)
    walked = 0
    exhausted = []
    for name, ideal in fixture_ideals(load_ideal):
        report = analyze(ideal, cfg)
        stats = report.stats
        if "minors_examined" not in stats:
            continue
        walked += 1
        examined = stats["minors_examined"]
        assert stats["minors_built"] <= stats["minors_screened"] <= examined, name
        assert stats["torsion_screens"] <= examined, name
        if report.minor is not None:
            continue  # the walk stopped inside its last minor
        # one screen per distinct nonempty core, guards on every minor with
        # a nonempty core, and one build per minor that some detector runs on
        exhausted.append(name)
        reduced, _ = reduce_closed_fixpoint(build_from_ideal(ideal))
        records = list(enumerate_minors(reduced, budget=examined))
        cores = [closed_core(r.state, r.edges) for r in records]
        assert stats["torsion_screens"] == len(set(cores) - {0}), name
        assert stats["minors_screened"] == sum(1 for core in cores if core), name
        built = sum(
            1 for r in records if any(rule.guard(r, {}) for rule in engine.MINOR_RULES)
        )
        assert stats["minors_built"] == built, name
    assert "mix45.ideal" in exhausted
    assert len(exhausted) >= (1 if structural else 4)
    assert walked >= (3 if structural else 12)


def odd_cycle_normal_is_unopposed(h):
    """Where the odd-cycle rule says normal, nothing finds h not normal.

    No other structural rule returns not_normal, with a strict or a
    relaxed connector search, and ``torsion_check`` finds no torsion.
    Returns whether the rule said normal.
    """
    if odd_cycle_rule(h).status != NORMAL:
        return False
    assert torsion_check(incidence_matrix(h)) is None, h
    for relaxed in (False, True):
        cfg = EngineConfig(relaxed_connection=relaxed)
        for record in engine.STRUCTURAL_RULES:
            assert record.run(h, cfg).status != NOT_NORMAL, (record.id, relaxed, h)
    return True


@settings(max_examples=100, deadline=None)
@given(ideal=small_graph_edge_ideals())
def test_odd_cycle_rule_agrees_with_the_oracle(ideal):
    # the odd cycle condition is exact on edge ideals: the rule says normal
    # exactly where the oracle does, and not_normal exactly where the oracle
    # does, with a witness that stands on the polytope and whose point no
    # sum of that many vertices reaches
    h = build_from_ideal(ideal)
    said_normal = odd_cycle_normal_is_unopposed(h)
    outcome = odd_cycle_rule(h)
    assert outcome.status == oracle_report(ideal).status
    assert said_normal == (outcome.status == NORMAL)
    if outcome.status == NOT_NORMAL:
        polytope = polytope_from_ideal(ideal)
        witness = outcome.witness
        assert verify_witness(polytope, witness).valid
        sums = next(islice(vertex_sums(polytope.vertices), witness.degree - 1, None))
        assert witness.point not in sums


def test_odd_cycle_normal_is_unopposed_on_fixtures(load_ideal):
    normal = 0
    for h in fixture_hypergraphs(load_ideal):
        for record in enumerate_minors(h, budget=100):
            if record.num_vertices:
                normal += odd_cycle_normal_is_unopposed(record.hypergraph)
    assert normal > 0


@pytest.mark.parametrize(
    "seed, normal, not_normal",
    [pytest.param(5, 184, 16, id="5-184"), pytest.param(6, 191, 9, id="6-191")],
)
def test_odd_cycle_rule_on_the_benchmark_edge_graphs(seed, normal, not_normal):
    # the rule decides every graph of both analyze-edge populations: where
    # it says normal no negative detector fires, and where it says not
    # normal the report is not_normal too; no report walks a minor
    said = {NORMAL: 0, NOT_NORMAL: 0}
    for ideal in benchmark_edge_ideals(seed):
        reduced, _ = reduce_closed_fixpoint(build_from_ideal(ideal))
        if odd_cycle_normal_is_unopposed(reduced):
            said[NORMAL] += 1
        else:
            assert odd_cycle_rule(reduced).status == NOT_NORMAL, ideal
            said[NOT_NORMAL] += 1
            report = analyze(ideal)
            assert report.status == NOT_NORMAL, ideal
            assert "minors_examined" not in report.stats, ideal
    assert said == {NORMAL: normal, NOT_NORMAL: not_normal}


def test_odd_cycle_budget_exhaustion_keeps_the_verdict(load_ideal, monkeypatch):
    # with the search cut short, each report is the one the engine gives
    # without the rule, plus the rule's line
    real = engine.odd_cycle_rule
    cut = "budget_exceeded: odd-cycle search exceeded its budget of 3 nodes"
    cut_short = []
    for name, ideal in fixture_ideals(load_ideal):
        with monkeypatch.context() as patch:
            patch.setattr(engine, "odd_cycle_rule", lambda h: real(h, budget=3))
            short = analyze(ideal)
        with monkeypatch.context() as patch:
            patch.setattr(engine, "STRUCTURAL_RULES", engine.STRUCTURAL_RULES[:-1])
            without = analyze(ideal)
        assert short.rule != RULE_ODD_CYCLE, name
        assert replace(short, diagnostics=()) == replace(without, diagnostics=()), name
        others = tuple(line for line in short.diagnostics if line[0] != RULE_ODD_CYCLE)
        assert others == without.diagnostics, name
        if (RULE_ODD_CYCLE, cut) in short.diagnostics:
            cut_short.append(name)
    # edge65 is normal by the rule when its search runs to the end
    assert "edge65.ideal" in cut_short


def zero_witness(num_vertices, num_labels):
    """Well-formed but invalid: the zero point at degree 0 decomposes trivially."""
    return Witness((Fraction(0),) * num_vertices, 0, (0,) * num_labels)


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


def plant_zero_witness_on_connected_odd(monkeypatch):
    def planted(h):
        return RuleOutcome(NOT_NORMAL, "planted", zero_witness(h.num_vertices, len(h.labels)))

    monkeypatch.setattr(engine, "decide_connected_odd", planted)


def test_demoted_minor_witness_continues_the_walk(load_ideal, monkeypatch):
    plant_zero_witness_on_connected_odd(monkeypatch)
    monkeypatch.setattr(engine, "STRUCTURAL_RULES", ())
    report = analyze(load_ideal("hex6.ideal"))
    assert report.status == NOT_NORMAL
    assert report.rule == RULE_MINOR
    assert report.minor_rule == RULE_TORSION
    assert report.minor.surviving == (1, 2, 3, 4, 5, 6)
    assert report.verified
    rule, message = report.diagnostics[0]
    assert rule == RULE_CONNECTED_ODD
    assert message.startswith(
        "lifted witness from minor (1, 2, 3, 4, 5, 6) failed verification:"
    )


def test_demoted_minor_witness_goes_on_to_the_oracle(load_ideal, monkeypatch):
    plant_zero_witness_on_connected_odd(monkeypatch)
    monkeypatch.setattr(engine, "STRUCTURAL_RULES", ())
    monkeypatch.setattr(engine, "MINOR_RULES", rules_named(RULE_CONNECTED_ODD))
    report = analyze(load_ideal("hex6.ideal"))
    assert report.status == NOT_NORMAL
    assert report.rule == RULE_ORACLE
    assert report.minor is None
    assert report.witness.degree == 3
    assert report.verified
    assert report.stats["oracle_degrees"] == [2, 3]
    assert report.stats["minors_examined"] == 32
    rules = {rule for rule, _ in report.diagnostics[:-1]}
    assert rules == {RULE_CONNECTED_ODD}
    assert all(
        message.startswith("lifted witness from minor ")
        for _, message in report.diagnostics[:-1]
    )
    assert report.diagnostics[-1] == (RULE_MINOR, "no minor hit within budget (32 examined)")


def test_demoted_oracle_witness_is_unknown_at_once(load_ideal, monkeypatch):
    real = engine.decide_normal_bruteforce

    def planted(polytope, **kwargs):
        verdict = real(polytope, **kwargs)
        bad = zero_witness(polytope.num_vertices, polytope.ambient_dim)
        return replace(verdict, witness=bad)

    monkeypatch.setattr(engine, "decide_normal_bruteforce", planted)
    monkeypatch.setattr(engine, "STRUCTURAL_RULES", ())
    report = analyze(load_ideal("hex6.ideal"), EngineConfig(minor_budget=0))
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
        # u = 0 lies in every lattice: its derived witness is the zero point,
        # the empty sum of vertices, so the re-check must reject it
        return TorsionCertificate((0,) * (len(points[0]) + 1), 2, (2,))

    monkeypatch.setattr(certificates, "torsion_check", planted)
    monkeypatch.setattr(engine, "STRUCTURAL_RULES", rules_named(RULE_TORSION))
    report = analyze(load_ideal("hex6.ideal"), EngineConfig(minor_budget=0))
    assert report.status == NOT_NORMAL
    assert report.rule == RULE_ORACLE
    assert report.torsion is None
    assert report.verified
    assert report.diagnostics == (
        (RULE_TORSION, "not_normal: invariant factor 2"),
        (
            RULE_TORSION,
            "demoted: witness failed verification: "
            "point admits the integer decomposition (0, 0, 0, 0, 0, 0)",
        ),
    )


def test_demoted_minor_torsion_certificate_continues_the_walk(load_ideal, monkeypatch):
    # mix41's walk ends in its one hit, Remark 3.2 on its 7th minor; a
    # planted u = 0 there gives the zero witness, which fails once lifted,
    # and the walk runs on to its end
    ideal = load_ideal("mix41.ideal")
    assert analyze(ideal).stats["minors_examined"] == 7
    real = certificates.torsion_check

    def planted(points):
        certificate = real(points)
        if certificate is None:
            return None
        return TorsionCertificate((0,) * len(certificate.u), 2, (2,))

    monkeypatch.setattr(certificates, "torsion_check", planted)
    report = analyze(ideal)
    assert report.status == UNKNOWN
    assert report.torsion is None and report.minor is None
    assert not report.verified
    assert report.stats["minors_examined"] == 207
    assert report.diagnostics[6:] == (
        (
            RULE_TORSION,
            "lifted witness from minor (1, 2, 3, 4, 5, 7, 8, 11) failed verification: "
            "point admits the integer decomposition (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)",
        ),
        (RULE_MINOR, "no minor hit within budget (207 examined)"),
        (
            RULE_ORACLE,
            "skipped: instance size (12 vertices, dimension 10) exceeds the oracle caps",
        ),
    )


def derived_torsion_witness_stands(ideal):
    """Re-derive the witness behind a torsion verdict, and check it; False if none.

    The certificate is found again on the hypergraph its scope names: the
    minor, else the reduced hypergraph.  (point, degree) - u of the derived
    witness must lie in that hypergraph's homogenized lattice, and the
    witness, lifted as ``_settle`` lifts it, must pass ``verify_witness``
    on the original polytope.
    """
    report = analyze(ideal, EngineConfig(use_oracle=False))
    if report.torsion is None:
        return False
    minor = report.minor
    h, _ = reduce_closed_fixpoint(build_from_ideal(ideal))
    if minor is not None:
        h, _ = induced_subhypergraph(h, minor.surviving)
    out = torsion_obstruction(h)
    assert out.torsion == report.torsion
    witness = out.witness
    rows = [[*point, 1] for point in incidence_matrix(h)]
    moved = [x - y for x, y in zip((*witness.point, witness.degree), out.torsion.u)]
    assert lattice_member(moved, column_echelon(transpose(rows)))
    if minor is not None:
        witness = lift_witness(minor, witness)
    if report.reduction.removed:
        witness = lift_witness(report.reduction, witness)
    assert verify_witness(polytope_from_ideal(ideal), witness).valid
    return True


# two disjoint triangles and a pendant edge, whose reduction leaves the triangles
TRIANGLES_AND_PENDANT = SquarefreeIdeal(
    tuple("abcdefg"),
    tuple(frozenset(e) for e in ("ab", "bc", "ac", "de", "ef", "df", "cg")),
)


@example(ideal=TRIANGLES_AND_PENDANT)
@settings(max_examples=150, deadline=None)
@given(ideal=small_graph_edge_ideals() | odd_cycle_pair_hypergraphs().map(ideal_of))
def test_derived_torsion_witness_stands_on_the_original_polytope(ideal):
    derived_torsion_witness_stands(ideal)


def test_derived_torsion_witness_stands_on_fixtures(load_ideal):
    # scope original on ih1, k24 and solv3, minor on mix41; the example
    # above has scope reduced
    assert analyze(TRIANGLES_AND_PENDANT).torsion_scope == "reduced"
    standing = [
        name
        for name, ideal in fixture_ideals(load_ideal)
        if derived_torsion_witness_stands(ideal)
    ]
    assert standing == ["ih1.ideal", "k24.ideal", "mix41.ideal", "solv3.ideal"]
