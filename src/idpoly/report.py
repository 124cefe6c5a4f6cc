"""Rendering analysis results as stable JSON or readable text.

The JSON layout is fixed: nine top-level keys in a fixed order, rationals
as reduced "num/den" strings, and everything timing-dependent isolated
under "stats" so two runs on the same input differ only there.  The text
renderers aim at humans and cite the applied rule by its long name.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .certificates import Witness
from .engine import VerdictReport
from .hypergraph import (
    BudgetExceeded,
    LabeledHypergraph,
    MinorTrace,
    ReductionTrace,
    ideal_of,
    is_balanced,
)
from .intlinalg import TorsionCertificate
from .oracle import VerificationResult
from .parsing import print_ideal


def rational_string(value: Fraction) -> str:
    frac = Fraction(value)
    return f"{frac.numerator}/{frac.denominator}"


def _edge_text(vertices) -> str:
    return "{" + ",".join(str(v) for v in vertices) + "}"


def _join(values, empty: str = "none") -> str:
    return ", ".join(str(v) for v in values) or empty


def witness_payload(witness: Witness | None) -> dict | None:
    if witness is None:
        return None
    return {
        "coefficients": [rational_string(c) for c in witness.coefficients],
        "degree": witness.degree,
        "point": list(witness.point),
    }


def torsion_payload(
    certificate: TorsionCertificate | None, scope: str | None
) -> dict | None:
    if certificate is None:
        return None
    return {"u": list(certificate.u), "m": certificate.m, "scope": scope}


def reduction_payload(reduction: ReductionTrace) -> list:
    return [
        [{"vertex": v, "label": label} for v, label in rnd]
        for rnd in reduction.rounds
    ]


def minor_payload(trace: MinorTrace | None, rule: str | None) -> dict | None:
    if trace is None:
        return None
    return {
        "deleted_edges": [list(e) for e in trace.deleted_edges],
        "surviving_vertices": list(trace.surviving),
        "rule": rule,
    }


def report_payload(report: VerdictReport) -> dict:
    """The nine-key JSON object, in schema order."""
    return {
        "verdict": report.status,
        "rule": report.rule,
        "paper_rule": report.paper_rule,
        "witness": witness_payload(report.witness),
        "torsion_certificate": torsion_payload(report.torsion, report.torsion_scope),
        "reductions": reduction_payload(report.reduction),
        "minor_trace": minor_payload(report.minor, report.minor_rule),
        "verified": report.verified,
        "stats": report.stats,
    }


def render_json(report: VerdictReport) -> str:
    return json.dumps(report_payload(report), indent=2)


def render_text(report: VerdictReport) -> str:
    lines = [f"verdict: {report.status}"]
    if report.rule is not None:
        lines.append(f"rule: {report.rule} ({report.paper_rule})")
    else:
        lines.append("rule: none")
    lines.append(f"verified: {'yes' if report.verified else 'no'}")
    if report.reduction.rounds:
        lines.append("reduction:")
        for i, rnd in enumerate(report.reduction.rounds, start=1):
            moves = ", ".join(f"vertex {v} (label {name})" for v, name in rnd)
            lines.append(f"  round {i}: removed {moves}")
    else:
        lines.append("reduction: none")
    if report.witness is not None:
        w = report.witness
        lines.append("witness:")
        lines.append(f"  degree: {w.degree}")
        lines.append(
            "  coefficients: " + ", ".join(rational_string(c) for c in w.coefficients)
        )
        lines.append("  point: (" + ", ".join(str(x) for x in w.point) + ")")
    if report.torsion is not None:
        lines.append("torsion certificate:")
        lines.append(f"  scope: {report.torsion_scope}")
        lines.append(f"  multiplier: {report.torsion.m}")
        lines.append("  vector: (" + ", ".join(str(x) for x in report.torsion.u) + ")")
    if report.minor is not None:
        lines.append("minor:")
        lines.append(
            "  deleted edges: "
            + "; ".join(_edge_text(e) for e in report.minor.deleted_edges)
        )
        lines.append("  surviving vertices: " + _join(report.minor.surviving))
        lines.append(f"  rule: {report.minor_rule}")
    if report.diagnostics:
        lines.append("diagnostics:")
        for rule, note in report.diagnostics:
            lines.append(f"  {rule}: {note}")
    lines.append(f"elapsed: {report.stats.get('elapsed_ms')} ms")
    return "\n".join(lines) + "\n"


def _balancedness(hypergraph: LabeledHypergraph) -> bool | None:
    try:
        return is_balanced(hypergraph)
    except BudgetExceeded:
        return None


def hypergraph_payload(hypergraph: LabeledHypergraph) -> dict:
    skeleton = hypergraph.one_skeleton()
    return {
        "vertices": hypergraph.num_vertices,
        "edges": [
            {"vertices": list(e.vertices), "labels": list(e.labels)}
            for e in hypergraph.edge_views()
        ],
        "closed_vertices": list(hypergraph.closed_vertices()),
        "open_vertices": list(hypergraph.open_vertices()),
        "separated": hypergraph.is_separated,
        "skeleton": {
            "edges": [list(e) for e in skeleton.edges],
            "connected": skeleton.is_connected,
            "bipartite": skeleton.is_bipartite,
        },
        "balanced": _balancedness(hypergraph),
    }


def hypergraph_text(hypergraph: LabeledHypergraph) -> str:
    views = hypergraph.edge_views()
    skeleton = hypergraph.one_skeleton()
    lines = [f"vertices: {hypergraph.num_vertices}", f"edges: {len(views)}"]
    for edge in views:
        lines.append(f"  {_edge_text(edge.vertices)}: " + ", ".join(edge.labels))
    lines.append("closed vertices: " + _join(hypergraph.closed_vertices()))
    lines.append("open vertices: " + _join(hypergraph.open_vertices()))
    lines.append(f"separated: {'yes' if hypergraph.is_separated else 'no'}")
    lines.append(
        "skeleton edges: "
        + ("; ".join(_edge_text(e) for e in skeleton.edges) or "none")
    )
    lines.append(f"skeleton connected: {'yes' if skeleton.is_connected else 'no'}")
    lines.append(f"skeleton bipartite: {'yes' if skeleton.is_bipartite else 'no'}")
    balanced = _balancedness(hypergraph)
    lines.append(
        "balanced: " + ("unknown" if balanced is None else "yes" if balanced else "no")
    )
    return "\n".join(lines) + "\n"


def reduction_report_payload(
    reduction: ReductionTrace, reduced: LabeledHypergraph
) -> dict:
    decided = reduced.num_vertices <= 1
    payload = {
        "rounds": reduction_payload(reduction),
        "surviving_vertices": list(reduction.surviving),
        "ideal": None,
        "verdict": "normal" if decided else "undecided",
    }
    if reduced.num_vertices > 0:
        ideal = ideal_of(reduced)
        payload["ideal"] = {
            "variables": list(ideal.variables),
            "generators": [
                ideal.monomial_string(i) for i in range(ideal.num_generators)
            ],
        }
    return payload


def reduction_report_text(
    reduction: ReductionTrace, reduced: LabeledHypergraph
) -> str:
    lines = [f"rounds: {len(reduction.rounds)}"]
    for i, rnd in enumerate(reduction.rounds, start=1):
        moves = ", ".join(f"vertex {v} (label {name})" for v, name in rnd)
        lines.append(f"  round {i}: removed {moves}")
    lines.append("surviving vertices: " + _join(reduction.surviving))
    if reduced.num_vertices == 0:
        lines.append("resulting ideal: empty")
    else:
        lines.append("resulting ideal:")
        for raw in print_ideal(ideal_of(reduced)).splitlines():
            lines.append("  " + raw)
    lines.append(f"verdict: {'normal' if reduced.num_vertices <= 1 else 'undecided'}")
    return "\n".join(lines) + "\n"


def verification_payload(result: VerificationResult) -> dict:
    return {
        "valid": result.valid,
        "reason": result.reason,
        "witness": witness_payload(result.witness),
    }


def verification_text(result: VerificationResult) -> str:
    if result.valid:
        return f"valid: witness of degree {result.witness.degree}\n"
    return f"invalid: {result.reason}\n"
