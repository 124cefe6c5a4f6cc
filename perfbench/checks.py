"""Correctness gate: references and certificate re-checks, outside any timed region.

Witnesses are re-checked here by the benchmark's own arithmetic against the
original polytope, never through the program's verifier.  Torsion
certificates are re-checked by the program's lattice test against the
point set their scope names, as the acceptance suite does.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "reference_small.json"


def population_digest(instances) -> str:
    return hashlib.sha256("".join(i.text for i in instances).encode()).hexdigest()


def load_small_reference(seed: int, instances) -> list[str]:
    """Oracle verdicts on the unreduced polytopes, recorded once per population."""
    entry = json.loads(REFERENCE_FILE.read_text())[str(seed)]
    if entry["digest"] != population_digest(instances):
        raise ValueError(f"population {seed} no longer matches its recorded reference")
    return entry["verdicts"]


def decomposes(vertices, point, degree) -> bool:
    """Whether point is a sum of exactly `degree` vertices, by bounded sum sets."""
    usable = [v for v in vertices if all(a <= b for a, b in zip(v, point))]
    sums = {tuple(0 for _ in point)}
    for _ in range(degree):
        grown = set()
        for base in sums:
            for v in usable:
                s = tuple(x + y for x, y in zip(base, v))
                if all(a <= b for a, b in zip(s, point)):
                    grown.add(s)
        sums = grown
        if not sums:
            return False
    return tuple(point) in sums


def witness_problem(vertices, witness: dict) -> str | None:
    """Check a rendered witness against the original polytope's vertex rows."""
    coefficients = [Fraction(c) for c in witness["coefficients"]]
    degree, point = witness["degree"], tuple(witness["point"])
    if len(coefficients) != len(vertices):
        return "witness has the wrong number of coefficients"
    if any(c < 0 or c >= 1 for c in coefficients):
        return "witness coefficient outside [0, 1)"
    if sum(coefficients) != degree:
        return "witness coefficients do not sum to its degree"
    combined = tuple(
        sum(c * row[j] for c, row in zip(coefficients, vertices))
        for j in range(len(point))
    )
    if combined != point:
        return "witness point is not the combination of its coefficients"
    if decomposes(vertices, point, degree):
        return "witness point is a sum of vertices"
    return None


def torsion_points(mods, instance, payload: dict):
    """Vertex set a torsion certificate speaks about, by its scope."""
    ideal = mods.parsing.parse_ideal_text(instance.text)
    scope = payload["torsion_certificate"]["scope"]
    if scope == "original":
        return mods.model.polytope_from_ideal(ideal).vertices
    hg = mods.hypergraph
    reduced, _ = hg.reduce_closed_fixpoint(hg.build_from_ideal(ideal))
    if scope == "minor":
        surviving = payload["minor_trace"]["surviving_vertices"]
        reduced, _ = hg.induced_subhypergraph(reduced, surviving)
    elif scope != "reduced":
        raise ValueError(f"unknown torsion scope {scope!r}")
    return mods.model.polytope_from_ideal(hg.ideal_of(reduced)).vertices


def certificate_problem(mods, instance, payload: dict) -> str | None:
    """Re-check the evidence of a not_normal report."""
    if not payload["verified"]:
        return "not_normal reported without verification"
    if payload["witness"] is not None:
        return witness_problem(instance.vertices, payload["witness"])
    torsion = payload["torsion_certificate"]
    if torsion is None:
        return "not_normal reported without evidence"
    certificate = mods.intlinalg.TorsionCertificate(
        tuple(torsion["u"]), torsion["m"], ()
    )
    points = torsion_points(mods, instance, payload)
    if not mods.intlinalg.verify_torsion_certificate(certificate, points):
        return "torsion certificate failed its re-check"
    return None


def _adjacency(edges) -> dict:
    adjacent = defaultdict(set)
    for a, b in edges:
        adjacent[a].add(b)
        adjacent[b].add(a)
    return adjacent


def chordless_odd_cycles(edges) -> list[frozenset]:
    """Vertex sets of the induced odd cycles of a simple graph."""
    adjacent = _adjacency(edges)
    order = {v: k for k, v in enumerate(sorted(adjacent))}
    found: set[frozenset] = set()

    def extend(path):
        start, last = path[0], path[-1]
        for w in adjacent[last]:
            if order[w] <= order[start] or w in path:
                continue
            if any(w in adjacent[v] for v in path[1:-1]):
                continue  # a chord
            if start in adjacent[w]:
                if len(path) % 2 == 0:  # closing gives len(path) + 1 vertices
                    found.add(frozenset(path + [w]))
                continue
            extend(path + [w])

    for s in adjacent:
        for v in adjacent[s]:
            if order[v] > order[s]:
                extend([s, v])
    return sorted(found, key=sorted)


def odd_cycle_condition(edges) -> bool:
    """Ohsugi–Hibi (1998): the edge polytope is normal iff every two
    vertex-disjoint induced odd cycles are joined by an edge.

    Applied to the whole graph, so two odd cycles in different components
    violate it; checked against the oracle on small graphs by record.py.
    """
    adjacent = _adjacency(edges)
    for one, two in itertools.combinations(chordless_odd_cycles(edges), 2):
        if one & two:
            continue
        if not any(adjacent[u] & two for u in one):
            return False
    return True
