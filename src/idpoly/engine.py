"""The decision pipeline: reduction, structural rules, minors, brute force.

Rules run in a fixed priority order (exact rules first, sufficient-only
rules next, brute force last) and the first conclusive one names the
verdict; everything that ran is kept as diagnostics.  ``STRUCTURAL_RULES``
and ``MINOR_RULES`` are the one list of which rules run, and in what
order; ``EngineConfig`` sets only the minor budget, the oracle and its
degree cap, the relaxed connector search and verification.  Each rule is
a function in ``certificates`` that answers with a ``RuleOutcome``; one
dispatcher, ``_detect``, only picks that function, and runs it on the
reduced hypergraph and on each minor alike.  Every candidate verdict, a
minor hit included, goes through one settle site, ``_settle``, which
lifts its evidence and re-verifies it against the original polytope
before it is reported, so a bug in a structural detector can cost
completeness but never soundness.  When nothing conclusive fits within
budget the answer is unknown, never a guess.

The minor walk screens each minor on the bitmasks the walk already keeps:
each guarded detector behind a necessary condition on the edge masks
(``_may_fire``), and torsion on the minor's closed-vertex core, once per
distinct core.  A minor is built as a hypergraph only when a detector
runs on it, and its deletion path is walked back from the walk's
per-state deleted edges only when a detector fires on it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Collection, Iterable, Iterator, NamedTuple

from .certificates import (
    NORMAL,
    NOT_NORMAL,
    Witness,
    balanced_uniform_rule,
    bicolor_obstruction,
    decide_connected_odd,
    exceptional_pair_rule,
    lift_witness,
    torsion_obstruction,
)
from .hypergraph import (
    LabeledHypergraph,
    MinorTrace,
    NotSeparatedError,
    ReductionTrace,
    build_from_ideal,
    closed_core,
    enumerate_minors,
    incidence_matrix,
    reduce_closed_fixpoint,
    skeleton_components,
)
from .intlinalg import TorsionCertificate, torsion_check, verify_torsion_certificate
from .model import SquarefreeIdeal, ZeroOnePolytope, polytope_from_ideal
from .oracle import INCONCLUSIVE, decide_normal_bruteforce, verify_witness

UNKNOWN = "unknown"

RULE_EMPTY = "empty-after-reduction"
RULE_SINGLE = "single-vertex"
RULE_CONNECTED_ODD = "thm-4.1"
RULE_BALANCED = "prop-3.5"
RULE_TORSION = "rem-3.2"
RULE_BICOLOR = "thm-4.5"
RULE_PAIR = "thm-4.8"
RULE_MINOR = "thm-3.8"
RULE_ORACLE = "oracle"

# the rules that run on the reduced hypergraph, in priority order
STRUCTURAL_RULES = (
    RULE_CONNECTED_ODD,
    RULE_BALANCED,
    RULE_TORSION,
    RULE_BICOLOR,
    RULE_PAIR,
)
# the rules that can fire on a minor, in the order they run on each one
MINOR_RULES = (RULE_CONNECTED_ODD, RULE_TORSION, RULE_BICOLOR, RULE_PAIR)

CITATIONS = {
    RULE_EMPTY: "Proposition 3.3: closed-vertex reduction empties the hypergraph",
    RULE_SINGLE: "Proposition 3.3: closed-vertex reduction leaves one vertex",
    RULE_BALANCED: "Proposition 3.5: balanced with uniform generator degree",
    RULE_TORSION: "Remark 3.2: torsion in the vertex lattice quotient",
    RULE_BICOLOR: "Theorem 4.5: 2-solvable coloring with an unbalanced simple edge",
    RULE_PAIR: "Theorem 4.8: exceptional pair of odd cycles",
    RULE_MINOR: "Theorem 3.8: non-normal minor",
    RULE_ORACLE: "Proposition 3.1: exhaustive decomposition check",
}


def citation_for(rule: str, status: str) -> str:
    if rule == RULE_CONNECTED_ODD:
        if status == NOT_NORMAL:
            return "Theorem 4.1: even vertex count, no even-dimensional edge"
        return "Theorem 4.1: odd vertex count or even-dimensional edge"
    return CITATIONS[rule]


# analyze runs the oracle only on a reduced instance within these caps,
# since past them its scan cannot finish in reasonable time
ORACLE_MAX_VERTICES = 8
ORACLE_MAX_DIM = 12


@dataclass(frozen=True)
class EngineConfig:
    """How hard the pipeline may try, not which rules run.

    ``STRUCTURAL_RULES`` and ``MINOR_RULES`` choose the rules and their
    order.  ``minor_budget`` caps the minors examined, and 0 skips the
    minor walk; ``use_oracle`` and ``oracle_max_degree`` gate and cap the
    exact oracle; ``relaxed_connection`` widens Theorem 4.8's connector
    search; ``verify`` re-checks evidence against the original polytope.
    """

    use_oracle: bool = True
    minor_budget: int = 5000
    oracle_max_degree: int | None = None
    relaxed_connection: bool = False
    verify: bool = True

    def __post_init__(self) -> None:
        if self.minor_budget < 0:
            raise ValueError("minor_budget cannot be negative")
        if self.oracle_max_degree is not None and self.oracle_max_degree < 0:
            raise ValueError("oracle_max_degree cannot be negative")


@dataclass(frozen=True)
class VerdictReport:
    """Everything a reader needs to re-check the verdict independently."""

    status: str
    rule: str | None
    paper_rule: str | None
    witness: Witness | None
    torsion: TorsionCertificate | None
    torsion_scope: str | None
    reduction: ReductionTrace
    minor: MinorTrace | None
    minor_rule: str | None
    verified: bool
    diagnostics: tuple[tuple[str, str], ...]
    stats: dict = field(compare=False)


def _may_fire(state: int, edges: Collection[int], rule: str) -> bool:
    """A necessary condition for a witness detector to fire on a minor.

    It reads only the minor's vertex set and its distinct edges as masks,
    as ``Minor`` carries them, so a minor that fails it is never built.
    Each condition is proved from what its detector checks, not measured:

    - Theorem 4.1 fires only with an even vertex count and no edge of odd
      size (even dimension);
    - Theorem 4.5 needs a connected 1-skeleton, so at least s - 1
      2-vertex edges on s vertices, and no 1-vertex edge: such an edge
      has red/blue imbalance 1, so the imbalance gcd is 1 and no prime
      makes the minor 2-solvable;
    - Theorem 4.8 needs two distinct simple edges with at least 3
      vertices.  Each candidate cycle is an even skeleton path closed by
      such an edge, which meets the cycle in the path's 2 ends, and a
      pair is skipped when either closing edge meets the other cycle, so
      the two closing edges differ and each meets the union U of the two
      cycles' vertex sets in exactly 2 vertices.  A pair is accepted only
      when every edge meets U evenly.  Then no 2-vertex edge has exactly
      one end in U, so U is a union of 1-skeleton components.  Each
      cycle's path lies in one component, and that component lies in U,
      so U is that component or the union of the two.  The minor
      therefore needs such a U, either one skeleton component of at
      least 6 vertices or two components of at least 3 each, that every
      edge meets evenly and that two of its fat simple edges meet in
      exactly 2 vertices.

    Torsion (Remark 3.2) has no condition here: ``_minor_candidates``
    screens it on the minor's closed-vertex core.
    """
    s = state.bit_count()
    if rule == RULE_CONNECTED_ODD:
        return s % 2 == 0 and all(edge.bit_count() % 2 == 0 for edge in edges)
    if rule == RULE_BICOLOR:
        pairs = 0
        for edge in edges:
            size = edge.bit_count()
            if size == 1:
                return False
            pairs += size == 2
        return pairs >= s - 1
    if rule == RULE_PAIR:
        fat = [edge for edge in edges if edge.bit_count() >= 3]
        if len(fat) < 2:
            return False
        simple = [g for g in fat if not any(f != g and f & g == f for f in edges)]
        if len(simple) < 2:
            return False
        big = [c for c, _ in skeleton_components(state, edges) if c.bit_count() >= 3]
        unions = [c for c in big if c.bit_count() >= 6]
        unions += [c | d for c, d in combinations(big, 2)]
        return any(
            all((edge & u).bit_count() % 2 == 0 for edge in edges)
            and sum((g & u).bit_count() == 2 for g in simple) >= 2
            for u in unions
        )
    return True


def _core_has_torsion(core: int, edges: Collection[int]) -> bool:
    """Whether the homogenized incidence matrix of a closed-vertex core has torsion."""
    columns = sorted({edge & core for edge in edges} - {0})
    points = []
    while core:
        bit = core & -core
        points.append([1 if edge & bit else 0 for edge in columns])
        core ^= bit
    return torsion_check(points) is not None


class _Candidate(NamedTuple):
    """A verdict one rule proposes; it stands once ``_settle`` re-checks it.

    A witness is on the hypergraph the rule ran on: the minor when
    ``minor`` is set, else the reduced hypergraph.  ``lattice`` holds the
    points a torsion certificate is re-checked against.
    """

    rule: str | None
    status: str = NOT_NORMAL
    witness: Witness | None = None
    torsion: TorsionCertificate | None = None
    lattice: tuple[tuple[int, ...], ...] | None = None
    minor: MinorTrace | None = None
    minor_rule: str | None = None


def _detect(
    rule: str, hypergraph: LabeledHypergraph, cfg: EngineConfig
) -> tuple[str, _Candidate | None]:
    """Run one structural rule: its diagnostic, and its verdict if conclusive.

    Each rule is called through its module-level name, so a wrapper put on
    that name (as the benchmark's tracer does) sees the call.
    """
    if rule == RULE_CONNECTED_ODD:
        outcome = decide_connected_odd(hypergraph)
    elif rule == RULE_BALANCED:
        outcome = balanced_uniform_rule(hypergraph)
    elif rule == RULE_TORSION:
        outcome = torsion_obstruction(hypergraph)
    elif rule == RULE_BICOLOR:
        outcome = bicolor_obstruction(hypergraph)
    elif rule == RULE_PAIR:
        outcome = exceptional_pair_rule(hypergraph, relaxed=cfg.relaxed_connection)
    else:
        raise ValueError(f"unknown rule {rule!r}")
    diagnostic = f"{outcome.status}: {outcome.reason}"
    if not outcome.is_conclusive:
        return diagnostic, None
    return diagnostic, _Candidate(
        rule, outcome.status, outcome.witness, outcome.torsion, outcome.lattice
    )


def _settle(
    candidates: Iterable[_Candidate],
    ideal: SquarefreeIdeal,
    reduction: ReductionTrace,
    verify: bool,
    diagnostics: list[tuple[str, str]],
    stats: dict,
    started: float,
) -> VerdictReport:
    """Report the first candidate that survives re-verification, else unknown.

    This is the one place that lifts and re-checks evidence, whichever
    rule found it.  A witness is lifted through its minor, if any, and
    through the reduction when that removed vertices (otherwise it is
    checked exactly as found); when ``verify`` is on it is then checked
    against the original polytope, built on first use.  A torsion
    certificate is re-checked against its lattice.  A candidate that fails
    is demoted with a diagnostic and the next one is drawn, so a later
    rule, or a later minor, runs only when every earlier candidate fell.
    """
    original: ZeroOnePolytope | None = None
    for candidate in candidates:
        minor = candidate.minor
        if candidate.witness is not None:
            witness = candidate.witness
            if minor is not None:
                witness = lift_witness(minor, witness)
            if reduction.removed:
                witness = lift_witness(reduction, witness)
            if verify:
                if original is None:
                    original = polytope_from_ideal(ideal)
                check = verify_witness(original, witness)
                if not check.valid:
                    diagnostics.append(
                        (candidate.rule, f"demoted: witness failed verification: {check.reason}")
                        if minor is None
                        else (
                            candidate.minor_rule,
                            f"lifted witness from minor {minor.surviving} failed "
                            f"verification: {check.reason}",
                        )
                    )
                    continue
            settled = candidate._replace(witness=witness)
            break
        if (
            verify
            and candidate.torsion is not None
            and not verify_torsion_certificate(candidate.torsion, candidate.lattice)
        ):
            diagnostics.append(
                (candidate.rule, "demoted: certificate failed re-check")
                if minor is None
                else (RULE_TORSION, f"torsion certificate failed on minor {minor.surviving}")
            )
            continue
        settled = candidate
        break
    else:
        settled = _Candidate(None, UNKNOWN)
    stats["elapsed_ms"] = round((time.perf_counter() - started) * 1000, 3)
    stats["diagnostics"] = list(diagnostics)
    rule, status, minor = settled.rule, settled.status, settled.minor
    scope = None
    if settled.torsion is not None:
        scope = "minor" if minor else "reduced" if reduction.removed else "original"
    return VerdictReport(
        status,
        rule,
        None if rule is None else citation_for(rule, status),
        settled.witness,
        settled.torsion,
        scope,
        reduction,
        minor,
        settled.minor_rule,
        status == NORMAL or (status == NOT_NORMAL and verify),
        tuple(diagnostics),
        stats,
    )


def _oracle_candidates(
    polytope: ZeroOnePolytope,
    max_degree: int | None,
    diagnostics: list[tuple[str, str]],
    stats: dict,
) -> Iterator[_Candidate]:
    """The exact oracle's verdict on the polytope as given, unless truncated."""
    verdict = decide_normal_bruteforce(polytope, max_degree=max_degree)
    stats["oracle_degrees"] = list(verdict.degrees_checked)
    stats["oracle_points"] = verdict.points_examined
    stats["bound"] = verdict.bound
    if verdict.status == INCONCLUSIVE:
        diagnostics.append(
            (RULE_ORACLE, f"inconclusive: scan truncated at degree {verdict.max_degree}")
        )
    else:
        yield _Candidate(RULE_ORACLE, verdict.status, verdict.witness)


def _minor_candidates(
    hypergraph: LabeledHypergraph,
    cfg: EngineConfig,
    diagnostics: list[tuple[str, str]],
    stats: dict,
) -> Iterator[_Candidate]:
    """Not-normal verdicts of the minor detectors, minor by minor (Theorem 3.8).

    Minors come in canonical order, and on each one the rules of
    ``MINOR_RULES`` run in that order.  Each is screened on the
    walk's masks first: a guarded detector runs only where ``_may_fire``
    holds, and the torsion rule only where the minor's closed-vertex core
    (``closed_core``) has torsion.  Stripping a closed vertex splits a
    unit column off the incidence matrix, so the core has the minor's
    torsion, and minors that share a core share one screen.  A minor that
    passes a screen is built once, and the detector runs on it as on the
    reduced hypergraph, so its certificate is the one the full minor
    gives.  Nothing is checked here: every hit goes to ``_settle`` like a
    top-level candidate, and the walk resumes only if it was demoted.
    ``stats`` counts the minors examined, the minors built and the
    torsion screens run.
    """
    has_torsion: dict[int, bool] = {}  # closed-vertex core -> screen result
    examined = built = screens = 0
    for record in enumerate_minors(hypergraph, budget=cfg.minor_budget):
        examined += 1
        s = record.num_vertices
        if s == 0:
            continue
        edges = record.edges
        minor = None
        for rule in MINOR_RULES:
            if rule == RULE_TORSION:
                core = closed_core(record.state, edges)
                if not core:
                    continue
                torsion = has_torsion.get(core)
                if torsion is None:
                    screens += 1
                    torsion = has_torsion[core] = _core_has_torsion(core, edges)
                if not torsion:
                    continue
            elif not _may_fire(record.state, edges, rule):
                continue
            if minor is None:
                built += 1
                minor = record.hypergraph
            _, found = _detect(rule, minor, cfg)
            if found is not None and found.status == NOT_NORMAL:
                stats.update(
                    minors_examined=examined, minors_built=built, torsion_screens=screens
                )
                yield found._replace(rule=RULE_MINOR, minor=record.trace, minor_rule=rule)
    stats.update(minors_examined=examined, minors_built=built, torsion_screens=screens)
    diagnostics.append((RULE_MINOR, f"no minor hit within budget ({examined} examined)"))


def _candidates(
    reduced: LabeledHypergraph,
    cfg: EngineConfig,
    diagnostics: list[tuple[str, str]],
    stats: dict,
) -> Iterator[_Candidate]:
    """Candidate verdicts on the reduced instance, drawn lazily in priority order.

    The structural rules all run before their first candidate is drawn;
    the minor walk runs only when none of those stood, and the oracle
    only when no minor hit stood either.
    """
    structural: list[_Candidate] = []
    for rule in STRUCTURAL_RULES:
        diagnostic, found = _detect(rule, reduced, cfg)
        diagnostics.append((rule, diagnostic))
        if found is not None:
            structural.append(found)
    yield from structural

    if cfg.minor_budget > 0:
        yield from _minor_candidates(reduced, cfg, diagnostics, stats)

    if not cfg.use_oracle:
        return
    points = incidence_matrix(reduced)
    if len(points) <= ORACLE_MAX_VERTICES and len(points[0]) <= ORACLE_MAX_DIM:
        yield from _oracle_candidates(
            ZeroOnePolytope(points), cfg.oracle_max_degree, diagnostics, stats
        )
    else:
        diagnostics.append(
            (
                RULE_ORACLE,
                f"skipped: instance size ({len(points)} vertices, "
                f"dimension {len(points[0])}) exceeds the oracle caps",
            )
        )


def analyze(
    ideal: SquarefreeIdeal, config: EngineConfig | None = None
) -> VerdictReport:
    """Decide normality of the ideal's polytope with a replayable report.

    Pipeline: closed-vertex reduction, then the structural rules in
    priority order (all of them run; the first conclusive one is
    reported), then negative detectors over minors, then the exact oracle
    when the reduced instance fits its size caps.  Every candidate, minor
    hits included, goes through ``_settle``: witnesses found on reduced or
    minor hypergraphs are lifted back and verified against the original
    polytope, and one that fails falls through to the next candidate.
    """
    cfg = config or EngineConfig()
    started = time.perf_counter()
    hypergraph = build_from_ideal(ideal)
    violation = hypergraph.separation_violation()
    if violation is not None:
        raise NotSeparatedError(violation)
    reduced, reduction = reduce_closed_fixpoint(hypergraph)
    diagnostics: list[tuple[str, str]] = []
    stats: dict = {"reduction_rounds": len(reduction.rounds)}
    if reduced.num_vertices <= 1:
        rule = RULE_EMPTY if reduced.num_vertices == 0 else RULE_SINGLE
        candidates: Iterable[_Candidate] = (_Candidate(rule, NORMAL),)
    else:
        candidates = _candidates(reduced, cfg, diagnostics, stats)
    return _settle(candidates, ideal, reduction, cfg.verify, diagnostics, stats, started)


def oracle_report(
    ideal: SquarefreeIdeal, *, max_degree: int | None = None, verify: bool = True
) -> VerdictReport:
    """The exact oracle alone on the ideal's polytope: no reduction, no rules.

    The scan runs on the polytope as given, with no size caps, and its
    verdict is settled like a candidate of ``analyze``: a witness that
    fails re-verification is demoted, and the verdict is then unknown.
    """
    started = time.perf_counter()
    hypergraph = build_from_ideal(ideal)
    polytope = polytope_from_ideal(ideal)
    diagnostics: list[tuple[str, str]] = []
    stats: dict = {}
    return _settle(
        _oracle_candidates(polytope, max_degree, diagnostics, stats),
        ideal,
        ReductionTrace(hypergraph, (), tuple(hypergraph.vertices)),
        verify,
        diagnostics,
        stats,
        started,
    )
