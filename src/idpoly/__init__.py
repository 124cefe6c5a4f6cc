"""Exact normality decisions for 0-1 polytopes of squarefree monomial ideals.

The package decides whether the polytope spanned by the exponent vectors of
a squarefree monomial ideal is normal (equivalently, whether its Ehrhart
ring equals its polytopal ring).  Structural rules on the labeled hypergraph
of the ideal handle most instances with short certificates; an exact
brute-force oracle settles the rest and independently verifies every
negative witness.
"""

from __future__ import annotations

from .model import (
    DroppedGeneratorWarning,
    InputError,
    SquarefreeIdeal,
    ZeroOnePolytope,
    minimalize_generators,
    polytope_from_ideal,
)
from .hypergraph import (
    BudgetExceeded,
    LabeledHypergraph,
    NotSeparatedError,
    ReductionTrace,
    build_from_ideal,
    ideal_of,
    reduce_closed_fixpoint,
)
from .oracle import OracleVerdict, decide_normal_bruteforce, verify_witness
from .certificates import Witness
from .engine import EngineConfig, VerdictReport, analyze, oracle_report

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "DroppedGeneratorWarning",
    "EngineConfig",
    "InputError",
    "LabeledHypergraph",
    "NotSeparatedError",
    "OracleVerdict",
    "ReductionTrace",
    "SquarefreeIdeal",
    "VerdictReport",
    "Witness",
    "ZeroOnePolytope",
    "analyze",
    "build_from_ideal",
    "decide_normal_bruteforce",
    "ideal_of",
    "minimalize_generators",
    "oracle_report",
    "polytope_from_ideal",
    "reduce_closed_fixpoint",
    "verify_witness",
]
