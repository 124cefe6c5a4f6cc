from __future__ import annotations

import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idpoly.model import (
    DroppedGeneratorWarning,
    InputError,
    SquarefreeIdeal,
    ZeroOnePolytope,
    generator_degrees,
    minimalize_generators,
    polytope_from_ideal,
)

from randutil import random_minimal_ideal


def test_basic_ideal():
    ideal = SquarefreeIdeal(("u", "v", "w"), ({"u", "v"}, {"u", "w"}, {"v", "w"}))
    assert ideal.num_variables == 3
    assert ideal.num_generators == 3
    assert ideal.exponent_row(0) == (1, 1, 0)
    assert ideal.exponent_matrix() == ((1, 1, 0), (1, 0, 1), (0, 1, 1))
    assert ideal.monomial_string(2) == "v*w"
    assert generator_degrees(ideal) == (2, 2, 2)
    assert len(set(generator_degrees(ideal))) == 1


def test_unused_variable_is_kept():
    ideal = SquarefreeIdeal(("a", "b", "z"), ({"a"}, {"b"}))
    assert ideal.exponent_matrix() == ((1, 0, 0), (0, 1, 0))


def test_empty_generator_list_rejected():
    with pytest.raises(InputError, match="at least one generator"):
        SquarefreeIdeal(("x",), ())


def test_unit_monomial_rejected():
    with pytest.raises(InputError, match="generator 2 is the unit monomial"):
        SquarefreeIdeal(("x",), ({"x"}, frozenset()))


def test_undeclared_variable_rejected():
    with pytest.raises(InputError, match="undeclared variable 'q'"):
        SquarefreeIdeal(("x", "y"), ({"x", "q"},))


def test_non_minimal_rejected():
    with pytest.raises(InputError, match="generator 1 divides generator 2"):
        SquarefreeIdeal(("x", "y"), ({"x"}, {"x", "y"}))
    with pytest.raises(InputError, match="duplicates"):
        SquarefreeIdeal(("x", "y"), ({"x", "y"}, {"y", "x"}))


def test_bad_variable_names():
    with pytest.raises(InputError, match="invalid variable name"):
        SquarefreeIdeal(("",), ({"x"},))
    with pytest.raises(InputError, match="duplicate variable name"):
        SquarefreeIdeal(("x", "x"), ({"x"},))


def test_minimalize_drops_dominated_with_warning():
    with pytest.warns(DroppedGeneratorWarning):
        ideal = minimalize_generators(("a", "b", "c"), [{"a"}, {"a", "b"}, {"b", "c"}])
    assert ideal.generators == (frozenset({"a"}), frozenset({"b", "c"}))


def test_minimalize_rejects_duplicates():
    with pytest.raises(InputError, match="generators 1 and 3 are identical"):
        minimalize_generators(("a", "b"), [{"a", "b"}, {"a"}, {"a", "b"}])


def test_minimalize_keeps_antichain_untouched():
    gens = [{"a", "b"}, {"b", "c"}]
    ideal = minimalize_generators(("a", "b", "c"), gens)
    assert ideal.generators == (frozenset({"a", "b"}), frozenset({"b", "c"}))


def test_polytope_rejects_bad_vertices():
    with pytest.raises(InputError, match="needs at least one vertex"):
        ZeroOnePolytope(())
    with pytest.raises(InputError, match="mismatched dimension"):
        ZeroOnePolytope(((1, 0), (1, 0, 1)))
    with pytest.raises(InputError, match="outside 0/1"):
        ZeroOnePolytope(((0, 2),))
    with pytest.raises(InputError, match="vertex 2 duplicates"):
        ZeroOnePolytope(((1, 0), (1, 0)))


def test_polytope_from_ideal_matches_exponents():
    ideal = SquarefreeIdeal(("u", "v", "w"), ({"u", "v"}, {"v", "w"}))
    poly = polytope_from_ideal(ideal)
    assert poly.vertices == ideal.exponent_matrix()
    assert poly.ambient_dim == 3
    assert poly.num_vertices == 2


@pytest.mark.parametrize(
    "name,expected",
    [
        ("fig1.ideal", 3),
        ("tri.ideal", 2),
        ("fourcyc.ideal", 2),
        ("k24.ideal", 5),
        ("hex6.ideal", 5),
        ("sixtri.ideal", 5),
        ("solv3.ideal", 5),
        ("bowtie.ideal", 6),
        ("ih1.ideal", 11),
        ("ih2.ideal", 10),
        ("veiled.ideal", 14),
        ("veiled_minor10.ideal", 8),
        ("twin_d.ideal", 7),
    ],
)
def test_affine_dimensions_frozen(load_ideal, name, expected):
    poly = polytope_from_ideal(load_ideal(name))
    assert poly.affine_dimension == expected


def test_affine_dimension_single_point():
    assert ZeroOnePolytope(((1, 0, 1),)).affine_dimension == 0


@settings(max_examples=80, deadline=None)
@given(
    raw=st.lists(
        st.sets(st.sampled_from("abcde"), min_size=1, max_size=4),
        min_size=1,
        max_size=6,
        unique_by=frozenset,
    )
)
def test_minimalize_always_yields_antichain(raw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DroppedGeneratorWarning)
        ideal = minimalize_generators(tuple("abcde"), raw)
    kept = ideal.generators
    # pairwise incomparable, and every kept support came from the input
    for i, gi in enumerate(kept):
        assert gi in set(map(frozenset, raw))
        for j, gj in enumerate(kept):
            if i != j:
                assert not gi <= gj
    # everything dropped is dominated by something kept
    for sup in map(frozenset, raw):
        assert any(g <= sup for g in kept)


def test_random_ideals_are_valid():
    rng = random.Random(1234)
    for _ in range(100):
        ideal = random_minimal_ideal(rng)
        # construction re-runs the antichain check; also verify exponents
        matrix = ideal.exponent_matrix()
        assert all(len(row) == ideal.num_variables for row in matrix)
        for i, gen in enumerate(ideal.generators):
            assert sum(matrix[i]) == len(gen)
        assert polytope_from_ideal(ideal).num_vertices == ideal.num_generators
