"""The decision pipeline: reduction, structural rules, minors, brute force.

Rules run in a fixed priority order (exact rules first, sufficient-only
rules next, brute force last) and the first conclusive one names the
verdict; everything that ran is kept as diagnostics.  Every negative
verdict is re-verified against the original polytope before being
reported, so a bug in a structural detector can cost completeness but
never soundness.  When nothing conclusive fits within budget the answer
is unknown, never a guess.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .certificates import (
    NORMAL,
    NOT_NORMAL,
    RuleOutcome,
    Witness,
    balanced_uniform_rule,
    bicolor_obstruction,
    decide_connected_odd,
    exceptional_witness,
    find_exceptional_pair,
    lift_witness,
)
from .hypergraph import (
    LabeledHypergraph,
    MinorTrace,
    NotSeparatedError,
    ReductionTrace,
    build_from_ideal,
    enumerate_minors,
    ideal_of,
    incidence_matrix,
    reduce_closed_fixpoint,
)
from .intlinalg import TorsionCertificate, torsion_check, verify_torsion_certificate
from .model import SquarefreeIdeal, ZeroOnePolytope, polytope_from_ideal
from .oracle import decide_normal_bruteforce, verify_witness

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

STRUCTURAL_RULES = (
    RULE_CONNECTED_ODD,
    RULE_BALANCED,
    RULE_TORSION,
    RULE_BICOLOR,
    RULE_PAIR,
)

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


@dataclass(frozen=True)
class EngineConfig:
    """Which rules run, and how hard they are allowed to try.

    minor_rules selects the detectors replayed on each minor; it is
    independent of the top-level enable flags so minors stay useful when
    a top-level rule is switched off.  The oracle size caps keep the
    brute force from being launched on instances it cannot finish.
    """

    use_connected_odd: bool = True
    use_balanced_uniform: bool = True
    use_torsion: bool = True
    use_bicolor: bool = True
    use_exceptional_pair: bool = True
    use_minors: bool = True
    use_oracle: bool = True
    minor_budget: int = 5000
    minor_rules: frozenset[str] = frozenset(
        (RULE_CONNECTED_ODD, RULE_TORSION, RULE_BICOLOR, RULE_PAIR)
    )
    oracle_max_vertices: int = 8
    oracle_max_dim: int = 12
    oracle_max_degree: int | None = None
    relaxed_connection: bool = False
    verify: bool = True
    cycle_budget: int = 10**6
    pair_budget: int = 200_000

    def __post_init__(self) -> None:
        for name in ("minor_budget", "cycle_budget", "pair_budget"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")
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


@dataclass(frozen=True)
class MinorHit:
    """A negative detector firing on a minor, with the lifted evidence."""

    trace: MinorTrace
    rule: str
    witness: Witness | None
    torsion: TorsionCertificate | None


def _may_fire(minor: LabeledHypergraph, rule: str) -> bool:
    """A necessary condition for a witness detector to fire on a minor.

    Each reads ``minor.labels``, whose nonempty images are the edges, and
    none builds the 1-skeleton:

    - Theorem 4.1 fires only with an even vertex count and no edge of odd
      size (even dimension);
    - Theorem 4.5 needs a connected 1-skeleton, so at least s - 1 distinct
      2-vertex edges on s vertices;
    - Theorem 4.8 needs a simple edge with at least 3 vertices, and the
      cheap "some edge has 3 or more vertices" is tested first.
    """
    s = minor.num_vertices
    if rule == RULE_CONNECTED_ODD:
        return s % 2 == 0 and all(len(img) % 2 == 0 for _, img in minor.labels)
    if rule == RULE_BICOLOR:
        return len({img for _, img in minor.labels if len(img) == 2}) >= s - 1
    if rule == RULE_PAIR:
        return any(len(img) >= 3 for _, img in minor.labels) and any(
            len(edge.vertices) >= 3 for edge in minor.simple_edges()
        )
    return True


def _detect_on_minor(
    minor: LabeledHypergraph, rule: str, config: EngineConfig
) -> Witness | None:
    """Run one witness-producing detector; only not-normal outcomes count.

    The detector runs only where ``_may_fire`` holds, so a minor it could
    not fire on costs no 1-skeleton, simple-edge scan or cycle search.
    """
    if not _may_fire(minor, rule):
        return None
    if rule == RULE_CONNECTED_ODD:
        outcome = decide_connected_odd(minor)
        if outcome.status == NOT_NORMAL:
            return outcome.witness
    elif rule == RULE_BICOLOR:
        found = bicolor_obstruction(minor)
        if found is not None:
            return found[1]
    elif rule == RULE_PAIR:
        pair = find_exceptional_pair(
            minor, relaxed=config.relaxed_connection, budget=config.pair_budget
        )
        if pair is not None:
            return exceptional_witness(minor, pair)
    return None


def _search_minors(
    hypergraph: LabeledHypergraph, config: EngineConfig
) -> tuple[MinorHit | None, int, tuple[tuple[str, str], ...]]:
    """Scan minors in canonical order for any enabled negative detector.

    Witness hits are lifted to the searched hypergraph and, when
    verification is on, checked against its polytope before being
    accepted; torsion hits are checked against the minor's own lattice.
    A minor's points are the rows of its label-expanded incidence matrix,
    which is the exponent matrix of its ideal: a minor of a separated
    hypergraph is separated, so that ideal is always a valid one.
    """
    rules = [r for r in (RULE_CONNECTED_ODD, RULE_TORSION, RULE_BICOLOR, RULE_PAIR)
             if r in config.minor_rules]
    notes: list[tuple[str, str]] = []
    examined = 0
    host_polytope: ZeroOnePolytope | None = None
    for minor, trace in enumerate_minors(hypergraph, budget=config.minor_budget):
        examined += 1
        if minor.num_vertices == 0:
            continue
        for rule in rules:
            if rule == RULE_TORSION:
                minor_points = incidence_matrix(minor, expand_labels=True)
                certificate = torsion_check(minor_points)
                if certificate is None:
                    continue
                if config.verify and not verify_torsion_certificate(
                    certificate, minor_points
                ):
                    notes.append(
                        (rule, f"torsion certificate failed on minor {trace.surviving}")
                    )
                    continue
                return MinorHit(trace, rule, None, certificate), examined, tuple(notes)
            witness = _detect_on_minor(minor, rule, config)
            if witness is None:
                continue
            lifted = lift_witness(trace, witness)
            if config.verify:
                if host_polytope is None:
                    host_polytope = polytope_from_ideal(ideal_of(hypergraph))
                check = verify_witness(host_polytope, lifted)
                if not check.valid:
                    notes.append(
                        (
                            rule,
                            f"lifted witness from minor {trace.surviving} failed "
                            f"verification: {check.reason}",
                        )
                    )
                    continue
            return MinorHit(trace, rule, lifted, None), examined, tuple(notes)
    return None, examined, tuple(notes)


def analyze(
    ideal: SquarefreeIdeal, config: EngineConfig | None = None
) -> VerdictReport:
    """Decide normality of the ideal's polytope with a replayable report.

    Pipeline: closed-vertex reduction, then the structural rules in
    priority order (all of them run; the first conclusive one is
    reported), then negative detectors over minors, then the exact oracle
    when the reduced instance fits its size caps.  Witnesses found on
    reduced or minor hypergraphs are lifted back and verified against the
    original polytope.
    """
    cfg = config or EngineConfig()
    started = time.perf_counter()
    hypergraph = build_from_ideal(ideal)
    violation = hypergraph.separation_violation()
    if violation is not None:
        raise NotSeparatedError(violation)
    original = polytope_from_ideal(ideal)
    reduced, reduction = reduce_closed_fixpoint(hypergraph)

    diagnostics: list[tuple[str, str]] = []
    stats: dict = {}

    def finish(
        status: str,
        rule: str | None,
        *,
        witness: Witness | None = None,
        torsion: TorsionCertificate | None = None,
        torsion_scope: str | None = None,
        minor: MinorTrace | None = None,
        minor_rule: str | None = None,
        verified: bool = False,
    ) -> VerdictReport:
        stats["elapsed_ms"] = round((time.perf_counter() - started) * 1000, 3)
        stats["diagnostics"] = list(diagnostics)
        paper = citation_for(rule, status) if rule is not None else None
        return VerdictReport(
            status,
            rule,
            paper,
            witness,
            torsion,
            torsion_scope,
            reduction,
            minor,
            minor_rule,
            verified,
            tuple(diagnostics),
            stats,
        )

    stats["reduction_rounds"] = len(reduction.rounds)
    if reduced.num_vertices == 0:
        return finish(NORMAL, RULE_EMPTY, verified=True)
    if reduced.num_vertices == 1:
        return finish(NORMAL, RULE_SINGLE, verified=True)

    reduced_polytope = polytope_from_ideal(ideal_of(reduced))
    torsion_scope = "reduced" if reduction.removed else "original"

    # structural rules; everything runs, candidates queue up in priority order
    candidates: list[tuple[str, RuleOutcome | TorsionCertificate]] = []
    if cfg.use_connected_odd:
        outcome = decide_connected_odd(reduced)
        diagnostics.append((RULE_CONNECTED_ODD, f"{outcome.status}: {outcome.reason}"))
        if outcome.is_conclusive:
            candidates.append((RULE_CONNECTED_ODD, outcome))
    if cfg.use_balanced_uniform:
        outcome = balanced_uniform_rule(reduced, budget=cfg.cycle_budget)
        diagnostics.append((RULE_BALANCED, f"{outcome.status}: {outcome.reason}"))
        if outcome.is_conclusive:
            candidates.append((RULE_BALANCED, outcome))
    if cfg.use_torsion:
        certificate = torsion_check(reduced_polytope.vertices)
        if certificate is None:
            diagnostics.append((RULE_TORSION, "inapplicable: lattice quotient torsion-free"))
        else:
            diagnostics.append(
                (RULE_TORSION, f"not_normal: invariant factor {certificate.m}")
            )
            candidates.append((RULE_TORSION, certificate))
    if cfg.use_bicolor:
        found = bicolor_obstruction(reduced)
        if found is None:
            diagnostics.append((RULE_BICOLOR, "inapplicable: no unbalanced simple edge"))
        else:
            coloring, witness = found
            edge, r, b = coloring.designated
            diagnostics.append(
                (
                    RULE_BICOLOR,
                    f"not_normal: p={coloring.prime}, simple edge {edge} "
                    f"has {r} red / {b} blue",
                )
            )
            candidates.append(
                (RULE_BICOLOR, RuleOutcome(NOT_NORMAL, "unbalanced simple edge", witness))
            )
    if cfg.use_exceptional_pair:
        pair = find_exceptional_pair(
            reduced, relaxed=cfg.relaxed_connection, budget=cfg.pair_budget
        )
        if pair is None:
            diagnostics.append((RULE_PAIR, "inapplicable: no exceptional pair found"))
        else:
            diagnostics.append(
                (
                    RULE_PAIR,
                    f"not_normal: cycles {pair.cycle_one.vertices} and "
                    f"{pair.cycle_two.vertices}",
                )
            )
            candidates.append(
                (
                    RULE_PAIR,
                    RuleOutcome(NOT_NORMAL, "exceptional pair", exceptional_witness(reduced, pair)),
                )
            )

    for rule, payload in candidates:
        if isinstance(payload, TorsionCertificate):
            if cfg.verify:
                if not verify_torsion_certificate(payload, reduced_polytope.vertices):
                    diagnostics.append((rule, "demoted: certificate failed re-check"))
                    continue
                verified = True
            else:
                verified = False
            return finish(
                NOT_NORMAL,
                RULE_TORSION,
                torsion=payload,
                torsion_scope=torsion_scope,
                verified=verified,
            )
        if payload.status == NORMAL:
            return finish(NORMAL, rule, verified=True)
        lifted = lift_witness(reduction, payload.witness)
        if cfg.verify:
            check = verify_witness(original, lifted)
            if not check.valid:
                diagnostics.append((rule, f"demoted: witness failed verification: {check.reason}"))
                continue
            verified = True
        else:
            verified = False
        return finish(NOT_NORMAL, rule, witness=lifted, verified=verified)

    if cfg.use_minors and cfg.minor_rules and cfg.minor_budget > 0:
        hit, examined, notes = _search_minors(reduced, cfg)
        stats["minors_examined"] = examined
        diagnostics.extend(notes)
        if hit is not None:
            if hit.torsion is not None:
                return finish(
                    NOT_NORMAL,
                    RULE_MINOR,
                    torsion=hit.torsion,
                    torsion_scope="minor",
                    minor=hit.trace,
                    minor_rule=hit.rule,
                    verified=cfg.verify,
                )
            lifted = lift_witness(reduction, hit.witness)
            if cfg.verify:
                check = verify_witness(original, lifted)
                if not check.valid:
                    diagnostics.append(
                        (RULE_MINOR, f"demoted: lifted witness failed verification: {check.reason}")
                    )
                    lifted = None
            if lifted is not None:
                return finish(
                    NOT_NORMAL,
                    RULE_MINOR,
                    witness=lifted,
                    minor=hit.trace,
                    minor_rule=hit.rule,
                    verified=cfg.verify,
                )
        else:
            diagnostics.append((RULE_MINOR, f"no minor hit within budget ({examined} examined)"))

    if cfg.use_oracle:
        if (
            reduced_polytope.num_vertices <= cfg.oracle_max_vertices
            and reduced_polytope.ambient_dim <= cfg.oracle_max_dim
        ):
            verdict = decide_normal_bruteforce(
                reduced_polytope, max_degree=cfg.oracle_max_degree
            )
            stats["oracle_degrees"] = list(verdict.degrees_checked)
            stats["oracle_points"] = verdict.points_examined
            if verdict.status == NORMAL:
                return finish(NORMAL, RULE_ORACLE, verified=True)
            if verdict.status == NOT_NORMAL:
                lifted = lift_witness(reduction, verdict.witness)
                if cfg.verify:
                    check = verify_witness(original, lifted)
                    if not check.valid:
                        diagnostics.append(
                            (RULE_ORACLE, f"demoted: witness failed verification: {check.reason}")
                        )
                        return finish(UNKNOWN, None)
                    verified = True
                else:
                    verified = False
                return finish(NOT_NORMAL, RULE_ORACLE, witness=lifted, verified=verified)
            diagnostics.append(
                (RULE_ORACLE, f"inconclusive: scan truncated at degree {verdict.max_degree}")
            )
        else:
            diagnostics.append(
                (
                    RULE_ORACLE,
                    f"skipped: instance size ({reduced_polytope.num_vertices} vertices, "
                    f"dimension {reduced_polytope.ambient_dim}) exceeds the oracle caps",
                )
            )

    return finish(UNKNOWN, None)
