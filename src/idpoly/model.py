"""Squarefree monomial ideals and their 0-1 vertex polytopes.

A squarefree monomial is represented by its support, a frozenset of
variable names.  An ideal is an ordered variable alphabet plus an ordered
antichain of generator supports; the corresponding polytope has one 0-1
vertex per generator, the exponent vector over the declared variable order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .intlinalg import row_relations


class InputError(ValueError):
    """User supplied data that cannot form a valid ideal or polytope."""


class DroppedGeneratorWarning(UserWarning):
    """A dominated generator was removed while minimalizing an ideal."""


def _check_variable_names(variables: Sequence[str]) -> None:
    seen: set[str] = set()
    for name in variables:
        if not name or not isinstance(name, str):
            raise InputError(f"invalid variable name {name!r}")
        if name in seen:
            raise InputError(f"duplicate variable name {name!r}")
        seen.add(name)


def _check_alphabet(
    variables: tuple[str, ...], generators: tuple[frozenset[str], ...]
) -> None:
    """Every check of an ideal but minimality, in the order they report."""
    _check_variable_names(variables)
    if not generators:
        raise InputError("an ideal needs at least one generator")
    alphabet = set(variables)
    for idx, gen in enumerate(generators, start=1):
        if not gen:
            raise InputError(f"generator {idx} is the unit monomial")
        stray = gen - alphabet
        if stray:
            raise InputError(
                f"generator {idx} uses undeclared variable {min(stray)!r}"
            )


@dataclass(frozen=True)
class SquarefreeIdeal:
    """An ordered alphabet and an ordered antichain of generator supports.

    The generators must already be minimal (no support contained in
    another); use minimalize_generators to repair raw input.  Variables
    that divide no generator are legal and kept, so round trips through
    other representations preserve the declared alphabet.
    """

    variables: tuple[str, ...]
    generators: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(
            self, "generators", tuple(frozenset(g) for g in self.generators)
        )
        _check_alphabet(self.variables, self.generators)
        for i, gi in enumerate(self.generators):
            for j, gj in enumerate(self.generators):
                if i != j and gi <= gj:
                    if gi == gj and i > j:
                        continue  # report each duplicate pair once
                    kind = "duplicates" if gi == gj else "divides"
                    raise InputError(
                        f"not minimal: generator {i + 1} {kind} generator {j + 1}"
                    )

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    def exponent_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Every generator's exponent row, in generator order."""
        column = {name: j for j, name in enumerate(self.variables)}
        zero = [0] * len(self.variables)
        rows = []
        for gen in self.generators:
            row = zero.copy()
            for name in gen:
                row[column[name]] = 1
            rows.append(tuple(row))
        return tuple(rows)

    def monomial_string(self, index: int) -> str:
        gen = self.generators[index]
        return "*".join(v for v in self.variables if v in gen)


def minimalize_generators(
    variables: Sequence[str], generators: Iterable[Iterable[str]]
) -> SquarefreeIdeal:
    """Build an ideal from raw generators, dropping dominated ones.

    A generator strictly containing another is redundant and removed with a
    DroppedGeneratorWarning.  Exact duplicates are rejected instead, since
    silently merging them would hide a likely input mistake.  Surviving
    generators keep their first-occurrence order.

    Supports are compared as variable bitmasks, one bit per distinct name
    (a name outside the alphabet gets a bit above every alphabet bit, and
    the ideal's checks then reject it), so equal masks are equal supports
    and ``low & high == low`` is containment.  Only a support with fewer
    variables can be strictly contained in another, so each support is
    compared only with those; generators of one degree, as in an edge
    ideal, need no comparison.  The survivors form an antichain by
    construction, so the ideal is built without checking that again;
    every other check of an ideal runs on them.
    """
    variables = tuple(variables)
    ideal = _minimal_ideal(variables, generators, stacklevel=3)
    _check_alphabet(variables, ideal.generators)
    return ideal


def _minimal_ideal(
    variables: tuple[str, ...], generators: Iterable[Iterable[str]], stacklevel: int
) -> SquarefreeIdeal:
    """minimalize_generators without the checks of the alphabet.

    The parser calls it directly: its output already passes them (its
    names are distinct identifiers, there is a generator, none is the
    unit monomial and each uses only declared names).  ``stacklevel`` is
    the DroppedGeneratorWarning's, counted from here.
    """
    supports = [frozenset(g) for g in generators]
    if not supports:
        raise InputError("an ideal needs at least one generator")
    # a name that is not a str, perhaps not even hashable, gets no bit
    # here; the ideal's checks reject it after the generators' errors
    bit = {name: 1 << i for i, name in enumerate(variables) if isinstance(name, str)}
    masks: list[int] = []
    first: dict[int, int] = {}
    for idx, sup in enumerate(supports, start=1):
        try:
            mask = sum(map(bit.__getitem__, sup))
        except KeyError:
            for name in sup.difference(bit):
                bit[name] = 1 << (len(variables) + len(bit))
            mask = sum(map(bit.__getitem__, sup))
        if mask in first:
            raise InputError(f"generators {first[mask]} and {idx} are identical")
        first[mask] = idx
        masks.append(mask)
    # each support size -> the masks of every support with fewer variables
    by_size: dict[int, list[int]] = {}
    for mask in masks:
        by_size.setdefault(mask.bit_count(), []).append(mask)
    fewer: dict[int, list[int]] = {}
    smaller: list[int] = []
    for size in sorted(by_size):
        fewer[size] = smaller
        smaller = smaller + by_size[size]
    keep: list[frozenset[str]] = []
    dropped: list[int] = []
    for idx, (sup, mask) in enumerate(zip(supports, masks), start=1):
        if any(low & mask == low for low in fewer[mask.bit_count()]):
            dropped.append(idx)
        else:
            keep.append(sup)
    if dropped:
        warnings.warn(
            f"dropped dominated generator(s) {dropped} during minimalization",
            DroppedGeneratorWarning,
            stacklevel=stacklevel,
        )
    ideal = object.__new__(SquarefreeIdeal)
    object.__setattr__(ideal, "variables", variables)
    object.__setattr__(ideal, "generators", tuple(keep))
    return ideal


class CoordinateRelation(NamedTuple):
    """denominator · x_j = constant · degree + Σ c · x_i over (i, c) in terms.

    It holds at every point x of every dilation degree·P.  Each i in terms
    is a pivot coordinate before j, and denominator > 0.
    """

    denominator: int
    constant: int
    terms: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ZeroOnePolytope:
    """Convex hull of distinct 0-1 vectors, stored by its vertex list.

    For 0-1 points the hull contains no lattice points besides the
    vertices themselves, so the vertex list determines everything the
    normality criterion needs.
    """

    vertices: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "vertices", tuple(tuple(v) for v in self.vertices)
        )
        if not self.vertices:
            raise InputError("a polytope needs at least one vertex")
        n = len(self.vertices[0])
        seen: set[tuple[int, ...]] = set()
        for idx, vertex in enumerate(self.vertices, start=1):
            if len(vertex) != n:
                raise InputError(f"vertex {idx} has mismatched dimension")
            if any(x not in (0, 1) for x in vertex):
                raise InputError(f"vertex {idx} has a coordinate outside 0/1")
            if vertex in seen:
                raise InputError(f"vertex {idx} duplicates an earlier vertex")
            seen.add(vertex)

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @cached_property
    def membership_rows(self) -> tuple[tuple[int, ...], ...]:
        """The all-ones row, then one row per coordinate, over the vertices.

        Vertex multipliers x ≥ 0 with rows · x = (degree, *point) put the
        point in degree·P.
        """
        return ((1,) * len(self.vertices), *zip(*self.vertices))

    @cached_property
    def coordinate_relations(self) -> tuple[CoordinateRelation | None, ...]:
        """None at each pivot coordinate, else how the coordinate follows.

        Coordinate j is a pivot when its membership row is independent of
        the all-ones row and the coordinate rows before it.  Otherwise its
        row is a rational combination of the all-ones row and the pivot
        rows before it, and every point of degree·P, a combination of
        vertices with weights summing to degree, satisfies the same
        relation.  One integer elimination over the membership rows
        gives every relation.
        """
        return tuple(
            None
            if relation is None
            else CoordinateRelation(
                relation[0],
                relation[1][0],
                tuple((i - 1, c) for i, c in enumerate(relation[1]) if i and c),
            )
            for relation in row_relations(self.membership_rows)[1:]
        )

    @cached_property
    def affine_dimension(self) -> int:
        """The dimension of the affine hull: the number of pivot coordinates."""
        return sum(relation is None for relation in self.coordinate_relations)


def polytope_from_ideal(ideal: SquarefreeIdeal) -> ZeroOnePolytope:
    """Vertex i is the exponent vector of generator i, in variable order.

    An ideal's exponent rows are 0-1 rows of one length, and distinct,
    since its generators are an antichain, so the polytope is built
    without repeating ZeroOnePolytope's checks of them.
    """
    polytope = object.__new__(ZeroOnePolytope)
    object.__setattr__(polytope, "vertices", ideal.exponent_matrix())
    return polytope
