"""End-to-end acceptance checks with explicit time budgets.

Each test covers one numbered criterion; the terminal summary in
conftest.py prints a pass/fail line per criterion after the run.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from idpoly.certificates import exceptional_pair_rule, find_exceptional_pair
from idpoly.engine import NORMAL, NOT_NORMAL, UNKNOWN, analyze
from idpoly.hypergraph import (
    build_from_ideal,
    ideal_of,
    incidence_matrix,
    induced_subhypergraph,
    reduce_closed_fixpoint,
)
from idpoly.intlinalg import torsion_check, verify_torsion_certificate
from idpoly.model import polytope_from_ideal
from idpoly.oracle import decide_normal_bruteforce, verify_witness

import fraction_witness
from randutil import random_minimal_ideal

HALF = Fraction(1, 2)


class Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds
        self.started = time.perf_counter()

    def check(self) -> None:
        elapsed = time.perf_counter() - self.started
        assert elapsed < self.seconds, (
            f"budget exceeded: {elapsed:.2f}s > {self.seconds}s"
        )


def test_criterion_1_worked_example_hypergraph(load_ideal):
    budget = Budget(0.1)
    h = build_from_ideal(load_ideal("fig1.ideal"))
    assert h.num_vertices == 4
    assert h.edges == (
        (1, 2), (1, 3, 4), (2,), (2, 4), (2, 3, 4), (3,), (4,),
    )
    assert h.labels_of((1, 2)) == ("a", "f")
    assert h.closed_vertices() == (2, 3, 4)
    assert h.open_vertices() == (1,)
    reduced, trace = reduce_closed_fixpoint(h)
    assert reduced.num_vertices == 0
    assert trace.rounds == (((2, "e"), (3, "b"), (4, "d")), ((1, "a"),))
    budget.check()


def test_criterion_2_counterexample_witness_and_torsion():
    from conftest import DATA
    from idpoly import parsing
    from idpoly.model import minimalize_generators

    budget = Budget(1.0)
    poly = parsing.parse_matrix_text((DATA / "rem32.mat").read_text())
    gens = [
        frozenset(f"x{i + 1}" for i, bit in enumerate(row) if bit)
        for row in poly.vertices
    ]
    ideal = minimalize_generators([f"x{i + 1}" for i in range(7)], gens)

    report = analyze(ideal)
    assert report.status == NOT_NORMAL
    assert fraction_witness.coefficients(report.witness) == (HALF,) * 6
    assert report.witness.degree == 3
    assert report.witness.point == (1, 1, 1, 1, 1, 1, 1)
    assert report.verified

    verdict = decide_normal_bruteforce(poly)
    assert verdict.status == NOT_NORMAL
    assert verdict.witness.degree == 3
    assert verdict.witness.point == (1, 1, 1, 1, 1, 1, 1)
    assert verify_witness(poly, verdict.witness).valid

    cert = torsion_check(poly.vertices)
    assert cert is not None
    assert cert.m == 2
    assert verify_torsion_certificate(cert, poly.vertices)
    budget.check()


def test_criterion_3_balanced_rule_silent_on_bipartite(load_ideal):
    from idpoly.certificates import INAPPLICABLE, balanced_uniform_rule

    budget = Budget(5.0)
    ideal = load_ideal("k24.ideal")
    h = build_from_ideal(ideal)
    out = balanced_uniform_rule(h)
    assert out.status == INAPPLICABLE
    assert "generator degrees not uniform: (4,4,2,2,2,2)" in out.reason

    poly = polytope_from_ideal(ideal)
    verdict = decide_normal_bruteforce(poly)
    assert verdict.status == NOT_NORMAL
    assert verdict.witness.degree == 3
    assert verify_witness(poly, verdict.witness).valid
    budget.check()


def test_criterion_4_exceptional_pairs(load_ideal):
    for name, degree in (
        ("bowtie.ideal", 3),
        ("ih1.ideal", 5),
        ("ih2.ideal", 5),
    ):
        budget = Budget(5.0)
        ideal = load_ideal(name)
        h = build_from_ideal(ideal)
        pair = find_exceptional_pair(h)
        assert pair is not None, name
        witness = exceptional_pair_rule(h).witness
        assert witness.degree == degree
        poly = polytope_from_ideal(ideal)
        assert verify_witness(poly, witness).valid

        report = analyze(ideal)
        assert report.status == NOT_NORMAL
        assert report.verified
        budget.check()


def test_criterion_5_hexagon_family(load_ideal):
    for name, status in (
        ("tri.ideal", NORMAL),
        ("sixtri.ideal", NORMAL),
        ("hex6.ideal", NOT_NORMAL),
    ):
        budget = Budget(1.0)
        ideal = load_ideal(name)
        report = analyze(ideal)
        assert report.status == status, name
        verdict = decide_normal_bruteforce(polytope_from_ideal(ideal))
        assert verdict.status == status, name
        budget.check()


def test_criterion_6_prime_three_obstruction(load_ideal):
    from idpoly.certificates import bicolor_obstruction

    budget = Budget(1.0)
    ideal = load_ideal("solv3.ideal")
    h = build_from_ideal(ideal)
    found = bicolor_obstruction(h)
    assert found.status == NOT_NORMAL
    assert found.reason.startswith("p=3, ")
    witness = found.witness
    assert set(fraction_witness.coefficients(witness)) <= {Fraction(1, 3), Fraction(2, 3)}
    assert witness.degree == 3
    poly = polytope_from_ideal(ideal)
    assert verify_witness(poly, witness).valid
    verdict = decide_normal_bruteforce(poly)
    assert verdict.status == NOT_NORMAL
    budget.check()


def test_criterion_7_reduction_preserves_oracle_verdict(load_ideal):
    budget = Budget(60.0)
    rng = random.Random(7001)
    for _ in range(200):
        ideal = random_minimal_ideal(rng, max_vars=9, max_gens=6)
        original = decide_normal_bruteforce(polytope_from_ideal(ideal))
        h = build_from_ideal(ideal)
        reduced, _ = reduce_closed_fixpoint(h)
        if reduced.num_vertices == 0:
            assert original.status == "normal"
            continue
        reduced_poly = polytope_from_ideal(ideal_of(reduced))
        again = decide_normal_bruteforce(reduced_poly)
        assert again.status == original.status
    # the worked example reduces to nothing and is normal
    fig1 = load_ideal("fig1.ideal")
    reduced, _ = reduce_closed_fixpoint(build_from_ideal(fig1))
    assert reduced.num_vertices == 0
    assert decide_normal_bruteforce(polytope_from_ideal(fig1)).status == "normal"
    budget.check()


def test_criterion_8_round_trips():
    budget = Budget(60.0)
    rng = random.Random(8001)
    for _ in range(500):
        ideal = random_minimal_ideal(rng, max_vars=10, max_gens=7)
        h = build_from_ideal(ideal)
        assert ideal_of(h) == ideal
        assert build_from_ideal(ideal_of(h)) == h
        assert incidence_matrix(h) == ideal.exponent_matrix()
    budget.check()


def test_criterion_9_engine_conservative_against_oracle():
    budget = Budget(120.0)
    rng = random.Random(9001)
    checked = 0
    for _ in range(300):
        ideal = random_minimal_ideal(rng, max_vars=9, max_gens=6)
        poly = polytope_from_ideal(ideal)
        report = analyze(ideal)
        truth = decide_normal_bruteforce(poly)
        if report.status == UNKNOWN:
            continue
        checked += 1
        assert report.status == truth.status, print_ideal_for_debug(ideal)
        if report.status != NOT_NORMAL:
            continue
        assert report.verified
        if report.witness is not None:
            assert verify_witness(poly, report.witness).valid
        if report.torsion is not None:
            points = points_for_scope(ideal, report)
            assert verify_torsion_certificate(report.torsion, points)
    assert checked > 250  # the engine should almost always reach a verdict
    budget.check()


def points_for_scope(ideal, report):
    """Vertex set the torsion certificate talks about, by scope."""
    if report.torsion_scope == "original":
        return polytope_from_ideal(ideal).vertices
    h = build_from_ideal(ideal)
    reduced, _ = reduce_closed_fixpoint(h)
    if report.torsion_scope == "reduced":
        return polytope_from_ideal(ideal_of(reduced)).vertices
    assert report.torsion_scope == "minor"
    minor, _ = induced_subhypergraph(report.minor.parent, report.minor.surviving)
    return polytope_from_ideal(ideal_of(minor)).vertices


def print_ideal_for_debug(ideal):
    from idpoly.parsing import print_ideal

    return print_ideal(ideal)


def test_criterion_10_bound_extension_stability():
    budget = Budget(120.0)
    rng = random.Random(10001)
    for _ in range(200):
        ideal = random_minimal_ideal(rng, max_vars=8, max_gens=5)
        poly = polytope_from_ideal(ideal)
        base = decide_normal_bruteforce(poly)
        extended = decide_normal_bruteforce(poly, max_degree=base.bound + 3)
        assert extended.status == base.status
        if base.status == "not_normal":
            assert extended.witness == base.witness
    budget.check()
