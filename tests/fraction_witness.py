"""Reference witness checks by Fraction sums, and Witness from and to Fractions, for tests only.

witness_error, check_coefficients and label_powers are the textbook forms
of the checks in idpoly.certificates.Witness, idpoly.oracle.verify_coefficients
and the label powers lift_witness recomputes: every sum is a sum of
Fraction values, with no common denominator.  They import nothing from
idpoly, so the differential tests compare the integer checks against an
independent implementation, clause by clause and message by message.

idpoly holds a witness on integers only, numerators over one denominator,
and its one constructor takes them so.  witness builds one from rational
coefficients, and coefficients reads them back as Fractions, so the tests
can state a witness as the paper does, as rationals in [0, 1).  over_lcm
puts rationals in the (denominator, numerators) form that
verify_coefficients takes, and parse_witness_text is the witness-file
parser as it read on Fractions, the reference for the integer parser.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence


def over_lcm(values) -> tuple[int, tuple[int, ...]]:
    """Values Fraction takes, as numerators over the lcm of their reduced denominators."""
    fractions = [Fraction(v) for v in values]
    denominator = lcm(*(f.denominator for f in fractions))
    return denominator, tuple(f.numerator * (denominator // f.denominator) for f in fractions)


def parse_witness_text(text: str) -> tuple[int, tuple[int, ...]]:
    """idpoly.parsing.parse_witness_text by its old path: a guard, Fraction, then over_lcm.

    The guard narrows what Fraction takes to ASCII with no digit separator
    and no exponent.  Errors are idpoly's InputError, with its messages.
    """
    from idpoly.model import InputError

    values: list[Fraction] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
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
    return over_lcm(values)


def witness(coefficients, degree, point):
    """The idpoly Witness of rational coefficients, from any values Fraction takes.

    The coefficients go over the lcm of their reduced denominators, the
    canonical denominator.  A point entry that is not an integer raises
    ValueError first, with witness_error's message, as lift_witness
    raises it; every other check is the constructor's own.
    """
    from idpoly.certificates import Witness

    denominator, numerators = over_lcm(coefficients)
    entries = [Fraction(x) for x in point]
    for value in entries:
        if value.denominator != 1:
            raise ValueError(f"point entry {value} is not an integer")
    return Witness(denominator, numerators, int(degree), [int(x) for x in entries])


def coefficients(w) -> tuple[Fraction, ...]:
    """A Witness's coefficients, numerators over its denominator, as Fractions."""
    return tuple(Fraction(n, w.denominator) for n in w.numerators)


def witness_error(coefficients, degree, point) -> str | None:
    """The message witness(coefficients, degree, point) raises, or None."""
    coeffs = [Fraction(c) for c in coefficients]
    degree = int(degree)
    values = [Fraction(entry) for entry in point]
    for value in values:
        if value.denominator != 1:
            return f"point entry {value} is not an integer"
    if not coeffs:
        return "witness needs at least one coefficient"
    for c in coeffs:
        if c < 0 or c >= 1:
            return f"coefficient {c} out of range [0, 1)"
    if sum(coeffs, Fraction(0)) != degree:
        return "coefficients do not sum to the degree"
    if any(value < 0 for value in values):
        return "point must be nonnegative"
    return None


def check_coefficients(
    vertices: Sequence[Sequence[int]], coefficients
) -> tuple[str | None, int | None, tuple[int, ...] | None]:
    """The first four clauses of verify_coefficients: (reason, degree, point).

    The reason is None when the count, range, sum and point clauses all
    pass; degree and point are then the coefficients' sum and combination.
    """
    coeffs = [Fraction(c) for c in coefficients]
    if len(coeffs) != len(vertices):
        return (
            f"coefficient count mismatch: got {len(coeffs)}, "
            f"polytope has {len(vertices)} vertices",
            None,
            None,
        )
    for c in coeffs:
        if c < 0 or c >= 1:
            return f"coefficient {c} out of range [0, 1)", None, None
    total = sum(coeffs, Fraction(0))
    if total.denominator != 1:
        return f"coefficient sum {total} is not an integer", None, None
    powers = [
        sum((c * vertex[j] for c, vertex in zip(coeffs, vertices)), Fraction(0))
        for j in range(len(vertices[0]))
    ]
    if any(p.denominator != 1 for p in powers):
        return "point not integral", None, None
    return None, int(total), tuple(int(p) for p in powers)


def label_powers(
    labels: Sequence[tuple[str, Sequence[int]]], coefficients
) -> tuple[Fraction, ...]:
    """Each label's power: the sum of the coefficients of its vertices (1-based)."""
    return tuple(
        sum((Fraction(coefficients[v - 1]) for v in image), Fraction(0))
        for _, image in labels
    )
