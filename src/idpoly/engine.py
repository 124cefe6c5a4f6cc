"""The decision pipeline: reduction, structural rules, minors, brute force.

Rules run in a fixed priority order (structural rules first, minor
detectors next, brute force last) and the first conclusive one names the
verdict; everything that ran is kept as diagnostics.  Each structural
rule is one ``Rule`` record: its id, how it runs, the paper statement
each of its verdicts cites, and the guard that screens it on a minor.
``STRUCTURAL_RULES`` is the one list of these records, in priority order,
and ``MINOR_RULES`` is derived from it: the rules with a guard, in the
same order.  ``EngineConfig`` sets only the minor budget, the oracle and
its degree cap, the relaxed connector search and verification.  Each
rule answers through a function in ``certificates`` with a
``RuleOutcome``; one dispatcher, ``_detect``, runs a record on the
reduced hypergraph and on each minor alike.  Every candidate verdict, a
minor hit included, goes through one settle site, ``_settle``, which
lifts its witness and re-verifies it against the original polytope
before it is reported, so a bug in a structural detector can cost
completeness but never soundness.  A torsion verdict carries a witness
derived from its certificate, so it is re-checked the same way.  When
nothing conclusive fits within budget the answer is unknown, never a
guess.

The minor walk carries each minor's closed-vertex core, and skips a
minor whose core is empty, where no rule can fire.  It screens every
other minor on the bitmasks the walk already keeps, through each rule's
guard: for Theorems 4.1 and 4.5 the rule's own condition, which the
detector decides through too; for torsion the core, screened once per
distinct core; for Theorem 4.8 a necessary condition.  The guards share
one 1-skeleton per minor.  A minor is built as a hypergraph only when a
detector runs on it, which is for a hit or a Theorem 4.8 guard pass, and
its deletion path is walked back from the walk's per-state deleted edges
only when a detector fires on it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Collection, Iterable, Iterator, NamedTuple

from .certificates import (
    NORMAL,
    NOT_NORMAL,
    RuleOutcome,
    Witness,
    balanced_uniform_rule,
    bicolor_evidence,
    bicolor_obstruction,
    connected_odd_fires,
    decide_connected_odd,
    exceptional_pair_rule,
    fat_simple_edges,
    lift_witness,
    odd_cycle_rule,
    torsion_obstruction,
)
from .hypergraph import (
    LabeledHypergraph,
    Minor,
    MinorTrace,
    ReductionTrace,
    build_from_ideal,
    enumerate_minors,
    incidence_matrix,
    reduce_closed_fixpoint,
)
from .intlinalg import TorsionCertificate, torsion_check
from .model import SquarefreeIdeal, ZeroOnePolytope, polytope_from_ideal
from .oracle import INCONCLUSIVE, decide_normal_bruteforce, verify_witness

UNKNOWN = "unknown"

RULE_EMPTY = "empty-after-reduction"
RULE_SINGLE = "single-vertex"
RULE_MINOR = "thm-3.8"
RULE_ORACLE = "oracle"

# citations of the verdicts no structural rule gives; each ``Rule`` carries its own
CITATIONS = {
    RULE_EMPTY: "Proposition 3.3: closed-vertex reduction empties the hypergraph",
    RULE_SINGLE: "Proposition 3.3: closed-vertex reduction leaves one vertex",
    RULE_MINOR: "Theorem 3.8: non-normal minor",
    RULE_ORACLE: "Proposition 3.1: exhaustive decomposition check",
}


def citation_for(rule: str, status: str) -> str:
    """The paper statement a report cites for ``status`` given by ``rule``."""
    for record in STRUCTURAL_RULES:
        if record.id == rule:
            return record.cite[status]
    return CITATIONS[rule]


# analyze runs the oracle only on a reduced instance within these caps,
# since past them its scan cannot finish in reasonable time
ORACLE_MAX_VERTICES = 8
ORACLE_MAX_DIM = 12


@dataclass(frozen=True)
class EngineConfig:
    """How hard the pipeline may try, not which rules run.

    The records of ``STRUCTURAL_RULES`` choose the rules and their order,
    and ``MINOR_RULES`` follows from them.  ``minor_budget`` caps the
    minors examined, and 0 skips the minor walk; ``use_oracle`` and
    ``oracle_max_degree`` gate and cap the exact oracle;
    ``relaxed_connection`` widens Theorem 4.8's connector search, the one
    field a rule reads; ``verify`` re-checks evidence against the original
    polytope.
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


@dataclass(frozen=True, eq=False)
class Rule:
    """One structural rule: everything the engine knows of it.

    ``run`` answers on a hypergraph with a ``RuleOutcome``.  It calls its
    ``certificates`` function through this module's name for it, looked up
    at call time, so a wrapper put on that name (as the benchmark's tracer
    does) sees the call; a record never holds the function itself.
    ``cite`` maps each verdict the rule can give to the paper statement
    reports name.  ``guard(minor, screens)`` screens the rule on a
    ``Minor`` of the walk, read from its masks: its vertex set, its
    distinct edges, its carried closed-vertex core and its skeleton
    components, which the guards share.  A minor that fails every guard
    is never built; ``screens`` is a memo the minor walk keeps for one
    walk.  A rule without a guard does not run on minors.

    The guards of Theorems 4.1 and 4.5 and of Remark 3.2 are exact: each
    holds iff its detector fires on the built minor.  Theorem 4.8's is a
    necessary condition.  Each is proved from what its detector checks,
    not measured.  None holds on a minor whose core is empty, so the walk
    skips those.  Theorems 4.1 and 4.5 fire only on one skeleton
    component, so on a nonempty vertex set, and only with no 1-vertex
    edge, so with no closed vertex: their core is the whole vertex set.
    Torsion needs a nonempty core.  Theorem 4.8's union U of two odd
    cycles is met evenly by every edge, so no edge meets it in one
    vertex: U has no closed vertex, lies in the core, and has at least 6
    vertices.
    """

    id: str
    run: Callable[[LabeledHypergraph, EngineConfig], RuleOutcome]
    cite: dict[str, str]
    guard: Callable[[Minor, dict[int, bool]], bool] | None = None


def _connected_odd_guard(minor: Minor, screens: dict[int, bool]) -> bool:
    """Theorem 4.1 fires on the minor: ``connected_odd_fires`` on its masks.

    Its edges must all have even size, so no edge has 1 vertex and the
    core is the whole vertex set; other minors are rejected before their
    skeleton is found.
    """
    return minor.core == minor.state and connected_odd_fires(
        minor.state, minor.edges, minor.components
    )


def _core_has_torsion(core: int, edges: Collection[int]) -> bool:
    """Whether the homogenized incidence matrix of a closed-vertex core has torsion."""
    columns = sorted({edge & core for edge in edges} - {0})
    points = []
    while core:
        bit = core & -core
        points.append([1 if edge & bit else 0 for edge in columns])
        core ^= bit
    return torsion_check(points) is not None


def _torsion_guard(minor: Minor, screens: dict[int, bool]) -> bool:
    """Remark 3.2 fires exactly when the minor's closed-vertex core has torsion.

    Stripping a closed vertex splits a unit column off the incidence
    matrix, so the core (``closed_core``, carried by the walk) has the
    minor's torsion, and an empty core has none.  ``screens`` maps each
    core screened in this walk to its result, so minors that share a core
    share one screen.
    """
    core = minor.core
    if not core:
        return False
    torsion = screens.get(core)
    if torsion is None:
        torsion = screens[core] = _core_has_torsion(core, minor.edges)
    return torsion


def _bicolor_guard(minor: Minor, screens: dict[int, bool]) -> bool:
    """Theorem 4.5 fires on the minor: ``bicolor_evidence`` on its masks.

    A 1-vertex edge has red/blue imbalance 1, so the imbalance gcd is 1:
    the core must be the whole vertex set, and other minors are rejected
    before their skeleton is found.
    """
    return (
        minor.core == minor.state
        and bicolor_evidence(minor.state, minor.edges, minor.components) is not None
    )


def _pair_guard(minor: Minor, screens: dict[int, bool]) -> bool:
    """Theorem 4.8 needs two distinct simple edges with at least 3 vertices.

    Each candidate cycle is an even skeleton path closed by such an edge,
    which meets the cycle in the path's 2 ends, and a pair is skipped when
    either closing edge meets the other cycle, so the two closing edges
    differ and each meets the union U of the two cycles' vertex sets in
    exactly 2 vertices.  A pair is accepted only when every edge meets U
    evenly.  Then no edge meets U in one vertex, so U has no closed vertex
    and lies in the core, which needs at least |U| >= 6 vertices.  No
    2-vertex edge has exactly one end in U, so U is a union of 1-skeleton
    components.  Each cycle's path lies in one component, and that
    component lies in U, so U is that component or the union of the two.
    The minor therefore needs such a U, either one skeleton component of
    at least 6 vertices or two components of at least 3 each, that every
    edge meets evenly and that two of its fat simple edges meet in
    exactly 2 vertices.
    """
    if minor.core.bit_count() < 6:
        return False
    edges = minor.edges
    simple = fat_simple_edges(edges)
    if len(simple) < 2:
        return False
    big = [c for c, _ in minor.components if c.bit_count() >= 3]
    unions = [c for c in big if c.bit_count() >= 6]
    unions += [c | d for c, d in combinations(big, 2)]
    return any(
        all((edge & u).bit_count() % 2 == 0 for edge in edges)
        and sum((g & u).bit_count() == 2 for g in simple) >= 2
        for u in unions
    )


# the rules that run on the reduced hypergraph, in priority order
STRUCTURAL_RULES = (
    Rule(
        "thm-4.1",
        lambda h, cfg: decide_connected_odd(h),
        {
            NOT_NORMAL: "Theorem 4.1: even vertex count, no even-dimensional edge",
            NORMAL: "Theorem 4.1: odd vertex count or even-dimensional edge",
        },
        _connected_odd_guard,
    ),
    Rule(
        "prop-3.5",
        lambda h, cfg: balanced_uniform_rule(h),
        {NORMAL: "Proposition 3.5: balanced with uniform generator degree"},
    ),
    Rule(
        "rem-3.2",
        lambda h, cfg: torsion_obstruction(h),
        {NOT_NORMAL: "Remark 3.2: torsion in the vertex lattice quotient"},
        _torsion_guard,
    ),
    Rule(
        "thm-4.5",
        lambda h, cfg: bicolor_obstruction(h),
        {NOT_NORMAL: "Theorem 4.5: 2-solvable coloring with an unbalanced simple edge"},
        _bicolor_guard,
    ),
    Rule(
        "thm-4.8",
        lambda h, cfg: exceptional_pair_rule(h, relaxed=cfg.relaxed_connection),
        {NOT_NORMAL: "Theorem 4.8: exceptional pair of odd cycles"},
        _pair_guard,
    ),
    Rule(
        "odd-cycle",
        lambda h, cfg: odd_cycle_rule(h),
        {
            NORMAL: "Ohsugi-Hibi 1998, Simis-Vasconcelos-Villarreal 1998: odd cycle condition",
            NOT_NORMAL: "Ohsugi-Hibi 1998, Simis-Vasconcelos-Villarreal 1998: "
            "two disjoint unjoined odd cycles",
        },
    ),
)
# the rules that can fire on a minor, in the order they run on each one
MINOR_RULES = tuple(rule for rule in STRUCTURAL_RULES if rule.guard)


class _Candidate(NamedTuple):
    """A verdict one rule proposes; it stands once ``_settle`` re-checks it.

    A witness is on the hypergraph the rule ran on: the minor when
    ``minor`` is set, else the reduced hypergraph.  A torsion certificate
    is carried beside its derived witness for the report only.
    """

    rule: str | None
    status: str = NOT_NORMAL
    witness: Witness | None = None
    torsion: TorsionCertificate | None = None
    minor: MinorTrace | None = None
    minor_rule: str | None = None


def _detect(
    rule: Rule, hypergraph: LabeledHypergraph, cfg: EngineConfig
) -> tuple[str, _Candidate | None]:
    """Run one structural rule: its diagnostic, and its verdict if conclusive."""
    outcome = rule.run(hypergraph, cfg)
    diagnostic = f"{outcome.status}: {outcome.reason}"
    if not outcome.is_conclusive:
        return diagnostic, None
    return diagnostic, _Candidate(rule.id, outcome.status, outcome.witness, outcome.torsion)


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
    rule found it, and every not_normal candidate has a witness: a torsion
    candidate's is derived from its certificate.  A witness is lifted
    through its minor, if any, and through the reduction when that removed
    vertices (otherwise it is checked exactly as found); when ``verify`` is
    on it is then checked against the original polytope, built on first
    use.  A candidate that fails is demoted with a diagnostic and the next
    one is drawn, so a later rule, or a later minor, runs only when every
    earlier candidate fell.  A torsion verdict reports its certificate and
    not the witness.
    """
    original: ZeroOnePolytope | None = None
    for candidate in candidates:
        witness, minor = candidate.witness, candidate.minor
        if witness is not None:
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
        settled = candidate._replace(witness=None if candidate.torsion else witness)
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

    Minors come in canonical order.  One with an empty closed-vertex core
    is skipped, since no guard holds on it (see ``Rule``); on every other
    one the rules of ``MINOR_RULES`` run in that order, each only where
    its guard holds on the walk's masks.  The guards share one memo for
    the walk, which the torsion guard fills with one screen per distinct
    core.  A minor that passes a guard is built once, and the detector
    runs on it as on the reduced hypergraph, so its certificate is the one
    the full minor gives.  Nothing is checked here: every hit goes to
    ``_settle`` like a top-level candidate, and the walk resumes only if
    it was demoted.  ``stats`` counts the minors examined, the minors
    screened (those with a nonempty core), the minors built and the
    torsion screens run.
    """
    screens: dict[int, bool] = {}  # closed-vertex core -> has torsion
    examined = screened = built = 0

    def count() -> None:
        stats.update(
            minors_examined=examined,
            minors_screened=screened,
            minors_built=built,
            torsion_screens=len(screens),
        )

    for record in enumerate_minors(hypergraph, budget=cfg.minor_budget):
        examined += 1
        if not record.core:
            continue
        screened += 1
        minor = None
        for rule in MINOR_RULES:
            if not rule.guard(record, screens):
                continue
            if minor is None:
                built += 1
                minor = record.hypergraph
            _, found = _detect(rule, minor, cfg)
            if found is not None and found.status == NOT_NORMAL:
                count()
                yield found._replace(rule=RULE_MINOR, minor=record.trace, minor_rule=rule.id)
    count()
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
        diagnostics.append((rule.id, diagnostic))
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
    when the reduced instance fits its size caps.  The last structural
    rule, ``odd-cycle``, applies only when every generator of the reduced
    ideal has degree 2, and then decides both ways: the edge ideal's graph
    is normal iff every two vertex-disjoint chordless odd cycles are
    joined by an edge (Ohsugi-Hibi 1998, Simis-Vasconcelos-Villarreal
    1998).  Two that are not, C1 and C2, give a witness: 1/2 on the
    |C1| + |C2| cycle edges, at degree (|C1| + |C2|)/2, whose point, the
    indicator of C1 u C2, no sum of that many edges reaches, since two
    odd cycles have no perfect matching.  So such a graph skips the minors
    and the oracle unless the search runs out of its
    ``certificates.ODD_CYCLE_BUDGET`` nodes.  Its normal verdict, like
    every normal verdict, carries no certificate.  Every candidate, minor
    hits included, goes through ``_settle``: witnesses found on reduced or
    minor hypergraphs are lifted back and verified against the original
    polytope, and one that fails falls through to the next candidate.
    """
    cfg = config or EngineConfig()
    started = time.perf_counter()
    # the hypergraph of an ideal is separated (see build_from_ideal)
    reduced, reduction = reduce_closed_fixpoint(build_from_ideal(ideal))
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
