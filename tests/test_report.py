"""The report JSON writer against ``json.dumps(payload, indent=2)``."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idpoly.cli import _load_ideal
from idpoly.engine import analyze, oracle_report
from idpoly.hypergraph import build_from_ideal, reduce_closed_fixpoint
from idpoly.model import polytope_from_ideal
from idpoly.oracle import verify_coefficients
from idpoly.parsing import parse_witness_text
from idpoly.report import (
    hypergraph_payload,
    reduction_report_payload,
    report_payload,
    to_json,
    verification_payload,
)
from idpoly.simplex import objective_range

from test_golden_reports import DATA, INPUTS, ORACLE_TRUNCATED, WITNESSES


def _payloads(name: str):
    """The payload of every JSON subcommand on one input."""
    ideal = _load_ideal(DATA / name)
    hypergraph = build_from_ideal(ideal)
    reduced, trace = reduce_closed_fixpoint(hypergraph)
    # as in the oracle goldens, the scan stops at degree 2 where it is slow
    max_degree = 2 if name in ORACLE_TRUNCATED else None
    yield report_payload(analyze(ideal))
    yield report_payload(oracle_report(ideal, max_degree=max_degree))
    yield hypergraph_payload(hypergraph)
    yield reduction_report_payload(trace, reduced)
    polytope = polytope_from_ideal(ideal)
    for witness in WITNESSES:
        denominator, numerators = parse_witness_text((DATA / witness).read_text())
        yield verification_payload(verify_coefficients(polytope, denominator, numerators))


@pytest.mark.parametrize("name", INPUTS)
def test_writer_is_json_dumps_on_every_subcommand_payload(name):
    for payload in _payloads(name):
        assert to_json(payload) == json.dumps(payload, indent=2)


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()
    | st.text()
    | st.text(st.characters(max_codepoint=0x1F))
    | st.text(st.characters(min_codepoint=0x80))
)


def _containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(), children, max_size=4)
    )


@settings(max_examples=500, deadline=None)
@given(payload=st.recursive(_SCALARS, _containers, max_leaves=25))
def test_writer_is_json_dumps_on_nested_payloads(payload):
    assert to_json(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize(
    "payload",
    [Fraction(1, 2), {1: "int key"}, {"set": {1, 2}}, [True, b"bytes"]],
)
def test_writer_rejects_what_the_schema_never_holds(payload):
    with pytest.raises(TypeError):
        to_json(payload)


def _forbid_fraction(monkeypatch) -> None:
    """Replace Fraction by a stub that raises, in every module a witness passes.

    No idpoly module imports fractions any more (test_structure.py checks
    the imports), so the stub stands guard against one that brings the
    name Fraction back.
    """
    from idpoly import certificates, intlinalg, oracle, parsing, report, simplex

    def no_fraction(*args, **kwargs):
        raise AssertionError("a Fraction was made")

    for module in (certificates, intlinalg, oracle, parsing, report, simplex):
        monkeypatch.setattr(module, "Fraction", no_fraction, raising=False)


@pytest.mark.parametrize(
    "name", ["twin_d.ideal", "mix41.ideal", "hex6.ideal", "bowtie.ideal", "k24.ideal"]
)
def test_a_witness_verdict_makes_no_fraction(name, monkeypatch):
    # the odd-cycle witness of twin_d, the torsion witness of mix41's minor
    # hit lifted through the minor and the reduction, and the witnesses of
    # Theorems 4.1 and 4.8 and of k24's torsion are built, lifted, verified
    # and written on integers: analyze and render_json run with Fraction
    # stubbed out and write the golden report
    from idpoly import report

    ideal = _load_ideal(DATA / name)
    _forbid_fraction(monkeypatch)
    result = analyze(ideal)
    rendered = report.render_json(result)
    monkeypatch.undo()
    assert result.verified
    payload = json.loads(rendered)
    del payload["stats"]
    assert json.dumps(payload, indent=2) + "\n" == (DATA / "golden" / f"{name}.json").read_text()


@pytest.mark.parametrize("name", ["rem32.mat", "hex6.ideal", "solv3.ideal", "k24.ideal"])
def test_an_oracle_witness_makes_no_fraction(name, monkeypatch):
    # the oracle's descent bounds its coordinates and solves its witness's
    # coefficients on the integer tableau, and the witness is built, checked
    # and written on integers: `idpoly oracle` runs with Fraction stubbed out
    # and writes the golden report
    from test_golden_reports import GOLDEN_ORACLE, oracle_report_without_stats

    _forbid_fraction(monkeypatch)
    rendered = oracle_report_without_stats(name)
    monkeypatch.undo()
    assert rendered == (GOLDEN_ORACLE / f"{name}.json").read_text()


def test_an_oracle_normal_verdict_makes_no_fraction(monkeypatch):
    # analyze settles this random ideal by the oracle, normal, after the
    # descent's range LPs; with Fraction stubbed out it writes the report
    # it writes without the stub
    from idpoly import oracle, report
    from randutil import random_minimal_ideal

    ideal = random_minimal_ideal(random.Random(5))
    expected = analyze(ideal)
    assert (expected.status, expected.rule) == ("normal", "oracle")
    ranges = []

    def counted(*args):
        ranges.append(args)
        return objective_range(*args)

    _forbid_fraction(monkeypatch)
    monkeypatch.setattr(oracle, "objective_range", counted)
    result = analyze(ideal)
    rendered = report.render_json(result)
    monkeypatch.undo()
    assert ranges
    assert result == expected
    payload, golden = json.loads(rendered), json.loads(report.render_json(expected))
    del payload["stats"], golden["stats"]
    assert payload == golden
