"""Reference hypergraph construction and closed-vertex reduction, for tests only.

These are the set-based forms of idpoly.hypergraph.build_from_ideal and
reduce_closed_fixpoint: one scan of the generators per variable, every
hypergraph built through the validating ``LabeledHypergraph(...)``, and a
reduction whose rounds intersect frozenset images with the survivors.
The differential tests hold the one-pass build and the mask reduction to
them.
"""

from __future__ import annotations

from idpoly.hypergraph import LabeledHypergraph
from idpoly.model import SquarefreeIdeal


def build_from_ideal(ideal: SquarefreeIdeal) -> LabeledHypergraph:
    """Hypergraph on generator indices; a variable maps to the generators it divides."""
    labels = tuple(
        (
            name,
            frozenset(j + 1 for j, gen in enumerate(ideal.generators) if name in gen),
        )
        for name in ideal.variables
    )
    return LabeledHypergraph(len(ideal.generators), labels)


def reduce_closed_fixpoint(
    hypergraph: LabeledHypergraph,
) -> tuple[LabeledHypergraph, tuple[tuple[tuple[int, str], ...], ...], tuple[int, ...]]:
    """The reduced hypergraph, the rounds of (vertex, first label), and the survivors."""
    survivors = set(hypergraph.vertices)
    rounds = []
    while True:
        current: dict[int, str] = {}
        for name, img in hypergraph.labels:
            contracted = img & survivors
            if len(contracted) == 1:
                (v,) = contracted
                current.setdefault(v, name)
        if not current:
            break
        rounds.append(tuple((v, current[v]) for v in sorted(current)))
        survivors -= current.keys()
    keep = tuple(sorted(survivors))
    renumber = {old: new for new, old in enumerate(keep, start=1)}
    labels = []
    for name, img in hypergraph.labels:
        contracted = frozenset(renumber[v] for v in img if v in renumber)
        if contracted:
            labels.append((name, contracted))
    return LabeledHypergraph(len(keep), tuple(labels)), tuple(rounds), keep
