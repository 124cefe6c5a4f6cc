"""Rendering analysis results as stable JSON or readable text.

The JSON layout is fixed: nine top-level keys in a fixed order, rationals
as reduced "num/den" strings, and everything timing-dependent isolated
under "stats" so two runs on the same input differ only there.  Every
JSON report, of every subcommand, is written by ``to_json``.  The text
renderers aim at humans and cite the applied rule by its long name.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from math import gcd

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


def _edge_text(vertices) -> str:
    return "{" + ",".join(str(v) for v in vertices) + "}"


def _join(values, empty: str = "none") -> str:
    return ", ".join(str(v) for v in values) or empty


def _coefficient_strings(witness: Witness) -> list[str]:
    """Each coefficient as a reduced "num/den" string, "0/1" for zero."""
    denominator = witness.denominator
    out = []
    for numerator in witness.numerators:
        common = gcd(numerator, denominator)
        out.append(f"{numerator // common}/{denominator // common}")
    return out


def witness_payload(witness: Witness | None) -> dict | None:
    if witness is None:
        return None
    return {
        "coefficients": _coefficient_strings(witness),
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


def to_json(payload) -> str:
    """``json.dumps(payload, indent=2)``, byte for byte, for the report payloads.

    A payload is built of dicts with str keys, lists, tuples, strs, ints,
    floats, bools and None, exactly those types and no subclasses, and
    any other value raises TypeError.  ``json.dumps`` with an indent runs
    its pure-Python encoder; this writer lays out the same text by one
    recursive join, and escapes strings with the C escaper behind
    ``ensure_ascii``.  Floats are written as ``float.__repr__``, which is
    how ``json.dumps`` writes a finite float.
    """
    return _json_text(payload, "\n")


_INFINITY = float("inf")


def _json_text(value, newline: str) -> str:
    """``value`` as JSON; each line it opens starts with ``newline``'s indent."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        items = []
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring_ascii(key) + ": " + _json_text(item, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is float:
        if value != value:
            return "NaN"
        if value == _INFINITY:
            return "Infinity"
        if value == -_INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def render_json(report: VerdictReport) -> str:
    return to_json(report_payload(report))


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
        lines.append("  coefficients: " + ", ".join(_coefficient_strings(w)))
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


def _skeleton(hypergraph: LabeledHypergraph) -> tuple[list[tuple[int, ...]], bool, bool]:
    """The 1-skeleton's edges, and whether it is connected and bipartite."""
    edges = [e for e in hypergraph.edges if len(e) == 2]
    components = hypergraph.skeleton
    bipartite = all(even is not None for _, even in components)
    return edges, len(components) <= 1, bipartite


def hypergraph_payload(hypergraph: LabeledHypergraph) -> dict:
    skeleton_edges, connected, bipartite = _skeleton(hypergraph)
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
            "edges": [list(e) for e in skeleton_edges],
            "connected": connected,
            "bipartite": bipartite,
        },
        "balanced": _balancedness(hypergraph),
    }


def hypergraph_text(hypergraph: LabeledHypergraph) -> str:
    views = hypergraph.edge_views()
    skeleton_edges, connected, bipartite = _skeleton(hypergraph)
    lines = [f"vertices: {hypergraph.num_vertices}", f"edges: {len(views)}"]
    for edge in views:
        lines.append(f"  {_edge_text(edge.vertices)}: " + ", ".join(edge.labels))
    lines.append("closed vertices: " + _join(hypergraph.closed_vertices()))
    lines.append("open vertices: " + _join(hypergraph.open_vertices()))
    lines.append(f"separated: {'yes' if hypergraph.is_separated else 'no'}")
    lines.append(
        "skeleton edges: "
        + ("; ".join(_edge_text(e) for e in skeleton_edges) or "none")
    )
    lines.append(f"skeleton connected: {'yes' if connected else 'no'}")
    lines.append(f"skeleton bipartite: {'yes' if bipartite else 'no'}")
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
