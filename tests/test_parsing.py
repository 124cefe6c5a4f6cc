from __future__ import annotations

import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idpoly.model import (
    DroppedGeneratorWarning,
    InputError,
    SquarefreeIdeal,
    minimalize_generators,
)
from idpoly.parsing import (
    parse_ideal_text,
    parse_matrix_text,
    parse_witness_text,
    print_ideal,
)

import reference_parsing
from randutil import random_minimal_ideal


def test_basic_ideal_with_vars_line():
    ideal = parse_ideal_text("vars: u v w\nu*v, u*w, v*w\n")
    assert ideal.variables == ("u", "v", "w")
    assert ideal.generators == (
        frozenset({"u", "v"}),
        frozenset({"u", "w"}),
        frozenset({"v", "w"}),
    )


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\nvars: a b  # trailing comment\n\na*b # gen\n"
    ideal = parse_ideal_text(text)
    assert ideal.variables == ("a", "b")
    assert ideal.generators == (frozenset({"a", "b"}),)


def test_vars_line_must_come_first():
    # after a generator line, a vars: line is just a (bad) monomial
    with pytest.raises(InputError, match="bad variable name|expected a variable"):
        parse_ideal_text("a\nvars: a b\nb\n")


def test_undeclared_variables_append_lexicographically():
    ideal = parse_ideal_text("vars: z\nz*m, z*k\n")
    assert ideal.variables == ("z", "k", "m")


def test_no_vars_line_collects_all_lexicographically():
    ideal = parse_ideal_text("x1*x10\nx2\n")
    # string order, not numeric: x1 < x10 < x2
    assert ideal.variables == ("x1", "x10", "x2")


def test_fourteen_variable_instance_without_vars_line():
    text = "\n".join(
        [
            "x1*x2",
            "x1*x3",
            "x2*x3*x4",
            "x4*x5",
            "x5*x6*x14",
            "x6*x7",
            "x7*x8*x14",
            "x8*x9",
            "x9*x10*x14",
            "x10*x11",
            "x11*x12",
            "x12*x13",
        ]
    )
    ideal = parse_ideal_text(text)
    assert set(ideal.variables) == {f"x{i}" for i in range(1, 15)}
    assert ideal.num_generators == 12
    # lexicographic collection is deterministic
    assert ideal.variables == tuple(sorted(ideal.variables))


def test_multiline_generators_and_commas():
    a = parse_ideal_text("vars: a b c\na*b, b*c\n")
    b = parse_ideal_text("vars: a b c\na*b\nb*c\n")
    assert a == b


def test_parse_errors_carry_position():
    with pytest.raises(InputError, match="line 1, column 9: bad variable name '1q'"):
        parse_ideal_text("vars: a 1q\na\n")
    with pytest.raises(InputError, match="line 1, column 9: variable 'a' declared twice"):
        parse_ideal_text("vars: a a\na\n")
    with pytest.raises(InputError, match="vars: line declares no variables"):
        parse_ideal_text("vars:\na\n")
    with pytest.raises(InputError, match="line 1, column 3: empty factor"):
        parse_ideal_text("x**y\n")
    with pytest.raises(InputError, match="line 1, column 3: repeated variable 'x'"):
        parse_ideal_text("x*x*y\n")
    with pytest.raises(InputError, match="expected a variable name, got '3z'"):
        parse_ideal_text("a*3z\n")
    with pytest.raises(InputError, match="no generators found"):
        parse_ideal_text("# nothing here\n")


def test_dominated_generator_repaired_with_warning():
    with pytest.warns(DroppedGeneratorWarning):
        ideal = parse_ideal_text("vars: a b c\na*b, a, b*c\n")
    assert ideal.generators == (frozenset({"a"}), frozenset({"b", "c"}))


def test_duplicate_generator_rejected():
    with pytest.raises(InputError, match="generators 1 and 2 are identical"):
        parse_ideal_text("vars: a b\na*b, b*a\n")


def test_print_ideal_round_trip():
    ideal = parse_ideal_text("vars: u v w\nu*v, u*w, v*w\n")
    text = print_ideal(ideal)
    assert text == "vars: u v w\nu*v\nu*w\nv*w\n"
    assert parse_ideal_text(text) == ideal


_IDENT_START = "abcxyzABCXYZ_"


@st.composite
def ideals(draw):
    """Minimal ideals over 1 to 8 variable names in the file format's identifier syntax."""
    names = draw(
        st.lists(
            st.builds(
                str.__add__,
                st.sampled_from(_IDENT_START),
                st.text(_IDENT_START + "0123456789", max_size=4),
            ),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    supports = draw(
        st.lists(
            st.frozensets(st.sampled_from(names), min_size=1),
            min_size=1,
            max_size=7,
            unique=True,
        )
    )
    minimal = [g for g in supports if not any(f < g for f in supports)]
    return SquarefreeIdeal(tuple(names), tuple(minimal))


def _seeded_examples(test):
    # the 40 ideals of the earlier seeded loop stay as explicit cases
    rng = random.Random(515)
    for _ in range(40):
        test = example(ideal=random_minimal_ideal(rng))(test)
    return test


@settings(max_examples=100, deadline=None)
@given(ideal=ideals())
@_seeded_examples
def test_print_ideal_round_trip_random(ideal):
    assert parse_ideal_text(print_ideal(ideal)) == ideal


_INPUT_ALPHABET = "01 23456789\t\n#,*:/.-+_eEvarsxyz\u00b2\u0661"


@settings(max_examples=300, deadline=None)
@given(text=st.text(max_size=40) | st.text(_INPUT_ALPHABET, max_size=40))
@example(text="1" * 5000 + " 1\n1\n")
@example(text="1e999999999999\n")
@example(text="vars: a\na*b, b, a*b\n")
def test_parsers_raise_only_input_error(text):
    # arbitrary text is either parsed or rejected with an InputError,
    # never a crash or a runaway computation
    for parse in (parse_ideal_text, parse_matrix_text, parse_witness_text):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DroppedGeneratorWarning)
            try:
                parse(text)
            except InputError:
                pass


def _outcome(build):
    """What ``build()`` returns or its InputError message, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = build()
        except InputError as exc:
            result = f"InputError: {exc}"
    return result, [(w.category, str(w.message)) for w in caught]


# names the grammar takes, and strings it rejects in a name's place
_GOOD_NAMES = ("a", "b", "c", "x1", "x10", "_z")
_BAD_NAMES = ("", "1q", "a-b", "\u00e9", "a b", "vars:", "x.1")
_PAD = st.sampled_from(("", "", "", " ", "  ", "\t", "\u00a0"))
_NAME = st.sampled_from(_GOOD_NAMES) | st.sampled_from(_BAD_NAMES)
_COMMENT = st.sampled_from(("", "", "", " # note", "#", "# a*b, c"))


@st.composite
def _monomials(draw):
    names = draw(st.lists(st.sampled_from(_GOOD_NAMES), min_size=1, max_size=3, unique=True))
    if not draw(st.integers(0, 5)):
        # a bad name, an empty factor or a repeated variable somewhere
        names.insert(draw(st.integers(0, len(names))), draw(_NAME))
    return "*".join(draw(_PAD) + name + draw(_PAD) for name in names)


@st.composite
def _generator_lines(draw):
    pieces = draw(st.lists(_monomials() | _monomials() | _PAD, min_size=1, max_size=4))
    return draw(_PAD) + ",".join(pieces) + draw(_COMMENT)


@st.composite
def _vars_lines(draw):
    names = draw(st.lists(st.sampled_from(_GOOD_NAMES), max_size=5, unique=True))
    if not draw(st.integers(0, 3)):
        # a bad or repeated name somewhere
        names.insert(draw(st.integers(0, len(names))), draw(_NAME.filter(bool)))
    separators = draw(
        st.lists(
            st.sampled_from((" ", ",", ", ", " ,", "\t")),
            min_size=len(names),
            max_size=len(names),
        )
    )
    body = "".join(sep + name for sep, name in zip(separators, names))
    return draw(_PAD) + "vars:" + body + draw(_PAD) + draw(_COMMENT)


@st.composite
def ideal_texts(draw):
    """Ideal files, valid and mutated.

    A vars: line (sometimes, and sometimes a second one later) and lines
    of generators, with bad names, empty factors, repeated variables,
    duplicate and dominated generators, stray commas, comments and blank
    lines; then, sometimes, one character inserted or deleted anywhere.
    """
    lines = draw(
        st.lists(_generator_lines() | _generator_lines() | _COMMENT, min_size=1, max_size=6)
    )
    if draw(st.booleans()):
        lines.insert(0, draw(_vars_lines()))
    if draw(st.integers(0, 9)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(_vars_lines()))
    text = "\n".join(lines) + draw(st.sampled_from(("", "\n", "\r\n")))
    edit = draw(st.integers(0, 5))
    if edit and text:
        at = draw(st.integers(0, len(text) - 1))
        if edit == 1:
            text = text[:at] + text[at + 1 :]
        elif edit == 2:
            text = text[:at] + draw(st.sampled_from("*,#: \n\tab1")) + text[at:]
    return text


@settings(max_examples=500, deadline=None)
@given(text=ideal_texts())
@example(text="vars: a b c\na*b, a, b*c\n")
@example(text="a*b, , b*c\n\nc * a, a*b*c # all three\n")
@example(text="a*b\n  vars: a b\n")
@example(text="a*  ,b\n")
@example(text="vars: a, b ,, a\n")
@example(text="x*y*x\n")
def test_one_pass_parser_matches_the_reference(text):
    expected = _outcome(lambda: reference_parsing.parse_ideal_text(text))
    assert _outcome(lambda: parse_ideal_text(text)) == expected


@pytest.mark.parametrize(
    "variables, generators",
    [
        (("a", "b"), [{"a"}, {"a", "c"}]),
        (("a", "b"), [{"a", "c"}, {"b", "d"}]),
        (("a", "a"), [{"a"}]),
        (("a", ""), [{"a"}]),
        (("a", ["b"]), [{"a"}, {"a", "c"}]),
        (("a", 1), [{"a"}, {1}, {"a"}]),
        (("a", "b"), [set(), {"a"}, {"b"}]),
        (("a", "b"), [{"a"}, {"b"}, {"a"}]),
        (("a", "b", "c"), [{"a", "b"}, {"c"}, {"b"}, {"a", "b", "c"}]),
        (("a",), []),
    ],
)
def test_minimalize_generators_matches_the_reference(variables, generators):
    expected = _outcome(lambda: reference_parsing.minimalize_generators(variables, generators))
    assert _outcome(lambda: minimalize_generators(variables, generators)) == expected


def test_matrix_spaced_and_contiguous_rows():
    spaced = parse_matrix_text("2 3\n1 0 1\n0 1 1\n")
    packed = parse_matrix_text("2 3\n101\n011\n")
    assert spaced == packed
    assert spaced.vertices == ((1, 0, 1), (0, 1, 1))


def test_matrix_comments_and_blanks():
    text = "# header next\n2 2\n\n10  # first\n01\n"
    poly = parse_matrix_text(text)
    assert poly.vertices == ((1, 0), (0, 1))


def test_matrix_header_errors():
    with pytest.raises(InputError, match="expected header '<vertices> <dimension>'"):
        parse_matrix_text("x 2\n")
    with pytest.raises(InputError, match="line 1: expected header '<vertices> <dimension>'"):
        parse_matrix_text("\u00b2 3\n101\n011\n")
    with pytest.raises(InputError, match="line 1: header count too long"):
        parse_matrix_text("1" * 5000 + " 1\n1\n")
    with pytest.raises(InputError, match="header counts must be positive"):
        parse_matrix_text("0 2\n")
    with pytest.raises(InputError, match="expected 2 vertex rows after the header, found 1"):
        parse_matrix_text("2 2\n10\n")
    with pytest.raises(InputError, match="line 2: expected 1 entries of 0 or 1, got '2'"):
        parse_matrix_text("1 1\n2\n")
    with pytest.raises(InputError, match="duplicate vertex, rows 1 and 2"):
        parse_matrix_text("2 2\n10\n10\n")


def test_witness_files():
    assert parse_witness_text("1/2\n1/2\n0\n") == (
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(0),
    )
    assert parse_witness_text("# note\n2/3\n") == (Fraction(2, 3),)
    with pytest.raises(InputError, match="line 2: cannot parse rational 'bad'"):
        parse_witness_text("1/2\nbad\n")
    with pytest.raises(InputError, match="line 1: cannot parse rational '1/0'"):
        parse_witness_text("1/0\n")
    with pytest.raises(InputError, match="expected one rational per line, got '1 2'"):
        parse_witness_text("1 2\n")
    with pytest.raises(InputError, match="witness file has no coefficients"):
        parse_witness_text("# empty\n")


@pytest.mark.parametrize("text", ["١/٢", "1_0", "１/2"])
def test_witness_rationals_are_ascii(text):
    with pytest.raises(InputError, match=f"line 1: cannot parse rational {text!r}"):
        parse_witness_text(text + "\n")


def test_witness_ascii_forms_still_parse():
    assert parse_witness_text("-1/2\n+3\n0.25\n") == (
        Fraction(-1, 2),
        Fraction(3),
        Fraction(1, 4),
    )


@pytest.mark.parametrize("text", ["5e-1", "1E999999999999"])
def test_witness_rationals_have_no_exponent(text):
    with pytest.raises(InputError, match=f"line 1: cannot parse rational {text!r}"):
        parse_witness_text(text + "\n")
