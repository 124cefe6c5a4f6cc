"""The report JSON writer against ``json.dumps(payload, indent=2)``."""

from __future__ import annotations

import json
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

from test_golden_reports import DATA, INPUTS, ORACLE_TRUNCATED

WITNESSES = ("rem32_good.w", "bad.w")


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
        coefficients = parse_witness_text((DATA / witness).read_text())
        yield verification_payload(verify_coefficients(polytope, coefficients))


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
