"""Reading and writing the text formats used by the command line tools.

Three small formats live here: ideal files (a generator list with an
optional alphabet declaration), matrix files (one 0-1 vertex per row),
and witness files (one rational coefficient per line).  Parsers report
line and column on failure so a typo in a long file stays findable.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .model import (
    InputError,
    SquarefreeIdeal,
    ZeroOnePolytope,
    minimalize_generators,
)

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_VARS_PREFIX = "vars:"


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0]


def _declared_names(line: str, line_no: int) -> list[str]:
    """Read the names on a ``vars:`` line; commas and spaces both separate."""
    offset = len(line) - len(line.lstrip()) + len(_VARS_PREFIX)
    names = []
    for match in re.finditer(r"[^,\s]+", line[offset:]):
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


def _scan_generators(line: str, line_no: int) -> list[frozenset[str]]:
    """The generators of a line, read in one pass of ``str.split``.

    The line is split on commas and each generator on ``*``; a blank
    piece between commas is skipped.  A generator passes when its names
    are distinct identifiers.  The first name that fails raises, and only
    then is its column worked out.
    """
    generators = []
    start = 0
    for piece in line.split(","):
        chunk = piece.strip()
        if chunk:
            names: list[str] = []
            factors = chunk.split("*")
            for factor in factors:
                name = factor.strip()
                if not _IDENT.match(name) or name in names:
                    # every factor before this one gave a name
                    col = start + len(piece) - len(piece.lstrip()) + 1
                    col += sum(len(f) + 1 for f in factors[: len(names)])
                    col += len(factor) - len(factor.lstrip())
                    raise _bad_factor(line_no, col, name)
                names.append(name)
            generators.append(frozenset(names))
        start += len(piece) + 1
    return generators


def _bad_factor(line_no: int, col: int, name: str) -> InputError:
    """The error for a factor that failed in ``_scan_generators``.

    The column is that of the name's first character; an empty factor
    points at the ``*`` after it, or just past the generator when it
    comes last.  A valid identifier can only have failed as a repeat.
    """
    if not name:
        problem = "empty factor in monomial"
    elif not _IDENT.match(name):
        problem = f"expected a variable name, got {name!r}"
    else:
        problem = f"repeated variable {name!r} in monomial"
    return InputError(f"line {line_no}, column {col}: {problem}")


def parse_ideal_text(text: str) -> SquarefreeIdeal:
    """Parse an ideal file.

    Grammar: an optional first line ``vars: <name>...`` fixes the leading
    variables and their order; every other line holds one or more
    generators separated by commas; a generator is variable names joined
    by ``*``; ``#`` starts a comment.  Variables that appear in a
    generator without being declared are appended after the declared ones
    in lexicographic order.  Dominated generators are dropped with a
    warning, duplicated generators are an error.  A repeated variable
    would make a monomial non-squarefree and is an error too, not
    silently collapsed.

    Each line is read in one pass of ``str.split`` by ``_scan_generators``,
    which raises the error of its first bad name, with line and column.
    """
    declared: list[str] | None = None
    generators: list[frozenset[str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if (
            declared is None
            and not generators
            and line.lstrip().startswith(_VARS_PREFIX)
        ):
            declared = _declared_names(line, line_no)
            continue
        generators.extend(_scan_generators(line, line_no))
    if not generators:
        raise InputError("no generators found: the ideal is empty")
    names = declared or []
    names.extend(sorted(set().union(*generators).difference(names)))
    return minimalize_generators(tuple(names), generators)


def print_ideal(ideal: SquarefreeIdeal) -> str:
    """Render an ideal in the file format; parsing the result round-trips."""
    lines = ["vars: " + " ".join(ideal.variables)]
    lines.extend(ideal.monomial_string(i) for i in range(ideal.num_generators))
    return "\n".join(lines) + "\n"


def parse_matrix_text(text: str) -> ZeroOnePolytope:
    """Parse a matrix file: header ``s n`` then s rows of n entries in {0,1}.

    Row entries may be separated by spaces or written as one digit string;
    both "1 0 1" and "101" denote the same vertex.
    """
    entries: list[tuple[int, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if line:
            entries.append((line_no, line))
    if not entries:
        raise InputError("empty matrix file")
    head_no, head = entries[0]
    tokens = head.split()
    if len(tokens) != 2 or not all(t.isascii() and t.isdigit() for t in tokens):
        raise InputError(
            f"line {head_no}: expected header '<vertices> <dimension>', got {head!r}"
        )
    try:
        count, dim = int(tokens[0]), int(tokens[1])
    except ValueError:  # past the interpreter's limit on digits per int
        raise InputError(f"line {head_no}: header count too long") from None
    if count < 1 or dim < 1:
        raise InputError(f"line {head_no}: header counts must be positive")
    if len(entries) - 1 != count:
        raise InputError(
            f"expected {count} vertex rows after the header, found {len(entries) - 1}"
        )
    rows: list[tuple[int, ...]] = []
    first_at: dict[tuple[int, ...], int] = {}
    for idx, (line_no, line) in enumerate(entries[1:], start=1):
        digits = "".join(line.split())
        if len(digits) != dim or any(ch not in "01" for ch in digits):
            raise InputError(
                f"line {line_no}: expected {dim} entries of 0 or 1, got {line!r}"
            )
        row = tuple(int(ch) for ch in digits)
        if row in first_at:
            raise InputError(
                f"line {line_no}: duplicate vertex, rows {first_at[row]} and {idx}"
                " are identical"
            )
        first_at[row] = idx
        rows.append(row)
    return ZeroOnePolytope(tuple(rows))


def parse_witness_text(text: str) -> tuple[Fraction, ...]:
    """Parse a witness file: one rational per line, aligned with generators.

    A rational is written in ASCII without digit separators or an
    exponent: ``Fraction`` alone would also take ``1_0``, non-ASCII digits
    such as ``١/٢``, and ``1e999999999``, whose power of ten it would
    build in full.
    """
    values: list[Fraction] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if len(line.split()) != 1:
            raise InputError(
                f"line {line_no}: expected one rational per line, got {raw.strip()!r}"
            )
        try:
            if not line.isascii() or "_" in line or "e" in line.lower():
                raise ValueError(line)
            values.append(Fraction(line))
        except (ValueError, ZeroDivisionError):
            raise InputError(f"line {line_no}: cannot parse rational {line!r}") from None
    if not values:
        raise InputError("witness file has no coefficients")
    return tuple(values)
