"""Reference ideal-file parser, character by character, for tests only.

This is the straightforward form of idpoly.parsing.parse_ideal_text: it
tracks the column of every name as it scans, minimalizes generators by
frozenset comparison, and builds the ideal through the validating public
``SquarefreeIdeal(...)``, so its antichain check runs on every parse.  The
differential tests hold the one-pass parser to it, message by message and
warning by warning.
"""

from __future__ import annotations

import re
import warnings
from typing import Iterable, Sequence

from idpoly.model import DroppedGeneratorWarning, InputError, SquarefreeIdeal

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_VARS_PREFIX = "vars:"


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0]


def _declared_names(rest: str, offset: int, line_no: int) -> list[str]:
    """Read the names on a ``vars:`` line; commas and spaces both separate."""
    names: list[str] = []
    for match in re.finditer(r"[^,\s]+", rest):
        name = match.group()
        col = offset + match.start() + 1
        if not _IDENT.match(name):
            raise InputError(
                f"line {line_no}, column {col}: bad variable name {name!r}"
            )
        if name in names:
            raise InputError(
                f"line {line_no}, column {col}: variable {name!r} declared twice"
            )
        names.append(name)
    if not names:
        raise InputError(f"line {line_no}: vars: line declares no variables")
    return names


def _parse_monomial(chunk: str, chunk_col: int, line_no: int) -> frozenset[str]:
    """Parse ``a*b*c`` into its variable set.

    chunk_col is the 1-based column of chunk[0] in the original line.
    """
    seen: list[str] = []
    start = 0
    for i in range(len(chunk) + 1):
        if i < len(chunk) and chunk[i] != "*":
            continue
        piece = chunk[start:i]
        lead = len(piece) - len(piece.lstrip())
        name = piece.strip()
        col = chunk_col + start + lead
        if not name:
            raise InputError(f"line {line_no}, column {col}: empty factor in monomial")
        if not _IDENT.match(name):
            raise InputError(
                f"line {line_no}, column {col}: expected a variable name, got {name!r}"
            )
        if name in seen:
            raise InputError(
                f"line {line_no}, column {col}: repeated variable {name!r} in monomial"
            )
        seen.append(name)
        start = i + 1
    return frozenset(seen)


def minimalize_generators(
    variables: Sequence[str], generators: Iterable[Iterable[str]]
) -> SquarefreeIdeal:
    """Drop dominated generators with a warning; reject exact duplicates."""
    supports = [frozenset(g) for g in generators]
    if not supports:
        raise InputError("an ideal needs at least one generator")
    seen: dict[frozenset[str], int] = {}
    for idx, sup in enumerate(supports, start=1):
        if sup in seen:
            raise InputError(f"generators {seen[sup]} and {idx} are identical")
        seen[sup] = idx
    keep: list[frozenset[str]] = []
    dropped: list[int] = []
    for idx, sup in enumerate(supports):
        if any(other < sup for other in supports if other != sup):
            dropped.append(idx + 1)
        else:
            keep.append(sup)
    if dropped:
        warnings.warn(
            f"dropped dominated generator(s) {dropped} during minimalization",
            DroppedGeneratorWarning,
            stacklevel=2,
        )
    return SquarefreeIdeal(tuple(variables), tuple(keep))


def parse_ideal_text(text: str) -> SquarefreeIdeal:
    """Parse an ideal file; the grammar is idpoly.parsing.parse_ideal_text's."""
    declared: list[str] | None = None
    generators: list[frozenset[str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        stripped = line.lstrip()
        if declared is None and not generators and stripped.startswith(_VARS_PREFIX):
            offset = len(line) - len(stripped) + len(_VARS_PREFIX)
            declared = _declared_names(line[offset:], offset, line_no)
            continue
        start = 0
        for i in range(len(line) + 1):
            if i < len(line) and line[i] != ",":
                continue
            piece = line[start:i]
            if piece.strip():
                lead = len(piece) - len(piece.lstrip())
                generators.append(
                    _parse_monomial(piece.strip(), start + lead + 1, line_no)
                )
            start = i + 1
    if not generators:
        raise InputError("no generators found: the ideal is empty")
    used: set[str] = set().union(*generators)
    names = list(declared or [])
    names.extend(sorted(used - set(names)))
    return minimalize_generators(tuple(names), generators)
