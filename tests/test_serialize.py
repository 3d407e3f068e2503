"""JSON conventions: rational strings, matrix arrays, canonical dumps, and
the strict flag parsers."""

import json
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracelattice.a3_factory import ConicPoint, scan_family
from tracelattice.cyclotomic_ideals import cyc_field
from tracelattice.errors import TooLarge
from tracelattice.exact_linalg import Matrix
from tracelattice.quadratic_a2 import normal_a2
from tracelattice.serialize import (
    dumps_canonical,
    hnf_json,
    lattice_json,
    matrix_json,
    member_json,
    parse_generator,
    parse_gram,
    parse_rational,
    point_json,
    rational_str,
)

rationals = st.fractions(
    min_value=F(-(10**6)), max_value=F(10**6), max_denominator=10**4
)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_rational_str_forms():
    assert rational_str(F(1, 2)) == "1/2"
    assert rational_str(F(3)) == "3"
    assert rational_str(F(-5, 7)) == "-5/7"
    assert rational_str(0) == "0"
    assert rational_str(F(4, 2)) == "2"


@given(rationals)
def test_rational_round_trip(x):
    assert parse_rational(rational_str(x)) == x


def test_matrix_json_row_major():
    m = Matrix([[F(1, 2), 3], [-1, F(0)]])
    assert matrix_json(m) == [["1/2", "3"], ["-1", "0"]]


def test_point_json():
    assert point_json(ConicPoint(F(5, 2), F(-3, 2))) == {"x": "5/2", "y": "-3/2"}


def test_lattice_json_type_field_optional():
    L = normal_a2()
    doc = lattice_json(L)
    assert doc["type"] == "A2"
    assert doc["ambient"] == {"kind": "quad", "d": 3, "sign": -1}
    assert doc["gram"] == [["2", "-1"], ["-1", "2"]]
    bare = lattice_json(L.__class__(L.ambient, L.basis))
    assert "type" not in bare


def test_hnf_json_matches_canonical_key():
    L = normal_a2()
    doc = hnf_json(L)
    assert doc["scale"] == 2
    assert doc["rows"] == [[1, 1], [0, 2]]


def test_member_json_fields_and_slope_inf():
    scan = scan_family(F(1), 3)
    docs = [member_json(m) for m in scan.members]
    assert {"ambient", "basis", "gram", "hnf", "lambda", "point", "slope", "type"} == set(
        docs[0]
    )
    slopes = [d["slope"] for d in docs]
    assert "inf" in slopes
    finite = [s for s in slopes if s != "inf"]
    assert all(parse_rational(s) is not None for s in finite)


def test_dumps_canonical_is_sorted_and_compact():
    payload = dumps_canonical({"b": 1, "a": [2, 3]})
    assert payload == '{"a":[2,3],"b":1}\n'
    assert dumps_canonical({"a": [2, 3], "b": 1}) == payload


def test_numbers_past_the_digit_limit_are_too_large():
    # every writer of a number raises TooLarge, never the ValueError of
    # int-to-str: an int in the document, a rational, and matrix entries
    # over denominator 1 and over a larger one
    big = 10**4300
    assert len(rational_str(big - 1)) == 4300
    for write, value in (
        (dumps_canonical, {"disc": big}),
        (rational_str, F(1, big)),
        (matrix_json, Matrix([[big]])),
        (matrix_json, Matrix([[big, F(1, 2)]])),
    ):
        with pytest.raises(TooLarge, match="more than 4300 digits"):
            write(value)


# ---------------------------------------------------------------------------
# parse_rational
# ---------------------------------------------------------------------------

def test_parse_rational_accepts_flag_forms():
    assert parse_rational("3") == 3
    assert parse_rational("-4/5") == F(-4, 5)
    assert parse_rational("+7/2") == F(7, 2)


@pytest.mark.parametrize(
    "text,pos",
    [("q", 0), ("", 0), (" 1", 0), ("1.5", 1), ("1/2/3", 3), ("3x", 1), ("1/-2", 1)],
)
def test_parse_rational_position_accurate_errors(text, pos):
    with pytest.raises(ValueError, match=f"position {pos}"):
        parse_rational(text)


def test_parse_rational_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("2/0")


# ---------------------------------------------------------------------------
# parse_gram
# ---------------------------------------------------------------------------

def test_parse_gram_int_and_string_entries():
    m = parse_gram('[[2,1],[1,2]]')
    assert m.data == ((F(2), F(1)), (F(1), F(2)))
    m = parse_gram('[["1/2","0"],["0","1/2"]]')
    assert m.data == ((F(1, 2), F(0)), (F(0), F(1, 2)))


@pytest.mark.parametrize(
    "text,needle",
    [
        ("nonsense", "invalid gram"),
        ("[[2,1],[1]]", "row 1"),
        ("[]", "non-empty"),
        ("[[2.5]]", "entry (0,0)"),
        ("[[true]]", "entry (0,0)"),
        ('[["1/x"]]', "entry (0,0)"),
        ('{"a":1}', "array of rows"),
    ],
)
def test_parse_gram_rejections(text, needle):
    with pytest.raises(ValueError, match=None) as err:
        parse_gram(text)
    assert needle in str(err.value)


# ---------------------------------------------------------------------------
# generator expressions
# ---------------------------------------------------------------------------

def test_generator_atoms_and_sums():
    k = cyc_field(5)
    assert parse_generator(k, "1") == k.one()
    assert parse_generator(k, "z") == k.zeta()
    one, z = k.one(), k.zeta()
    assert parse_generator(k, "1-z") == tuple(a - b for a, b in zip(one, z))
    assert parse_generator(k, "-z") == tuple(-c for c in z)
    assert parse_generator(k, "2*z") == k.mul_coords(
        (F(2), F(0), F(0), F(0)), z
    )


def test_generator_powers_both_spellings():
    k = cyc_field(7)
    z = k.zeta()
    z2 = k.mul_coords(z, z)
    assert parse_generator(k, "z^2") == z2
    assert parse_generator(k, "z**2") == z2
    assert parse_generator(k, "z^0") == k.one()


def test_generator_negative_power_is_field_inverse():
    k = cyc_field(5)
    one_minus_z = tuple(a - b for a, b in zip(k.one(), k.zeta()))
    assert parse_generator(k, "(1-z)^-1") == k.inv_coords(one_minus_z)
    assert parse_generator(k, "(1-z)^-2") == k.pow_coords(one_minus_z, -2)
    assert parse_generator(k, "1/(1-z)") == k.inv_coords(one_minus_z)


def test_generator_parenthesized_arithmetic():
    k = cyc_field(5)
    lhs = parse_generator(k, "(1+z)*(1-z)")
    rhs = parse_generator(k, "1-z^2")
    assert lhs == rhs


@pytest.mark.parametrize(
    "text",
    ["q", "1+", "(1-z", "z^", "z^x", "1//z", "1/0", "0^-1", "z)"],
)
def test_generator_rejections(text):
    k = cyc_field(5)
    with pytest.raises(ValueError, match="position"):
        parse_generator(k, text)


def test_generator_error_names_position():
    k = cyc_field(5)
    with pytest.raises(ValueError, match="position 2"):
        parse_generator(k, "1+q")


def test_dumps_are_valid_json():
    scan = scan_family(F(1), 2)
    for m in scan.members:
        doc = member_json(m)
        assert json.loads(dumps_canonical(doc)) == doc


# ---------------------------------------------------------------------------
# arrays, one element at a time
# ---------------------------------------------------------------------------

json_docs = st.recursive(
    st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def whole_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


@given(st.lists(json_docs, max_size=6))
def test_arrays_are_the_bytes_of_the_whole_encoding(items):
    payload = dumps_canonical(items)
    assert payload == whole_dumps(items)
    assert dumps_canonical(iter(items)) == payload
    assert dumps_canonical(x for x in items) == payload


def test_arrays_keep_non_ascii_escaped():
    items = ["é", {"ζ": "漢字", "a": ["\U0001f600"]}, -7]
    assert dumps_canonical(iter(items)) == whole_dumps(items)
    assert "\\u00e9" in dumps_canonical(items)


def test_an_empty_iterator_is_an_empty_array():
    assert dumps_canonical(iter([])) == "[]\n"
    assert dumps_canonical(map(str, [])) == "[]\n"
    assert dumps_canonical([]) == "[]\n"


@given(json_docs.filter(lambda doc: not isinstance(doc, list)))
def test_strings_numbers_and_dicts_are_encoded_whole(doc):
    # a str is one JSON string, never an array of its characters
    assert dumps_canonical(doc) == whole_dumps(doc)


def test_a_number_past_the_digit_limit_in_an_element_is_too_large():
    items = [{"a": 1}, {"disc": 10**4300}]
    for doc in (items, iter(items)):
        with pytest.raises(TooLarge, match="more than 4300 digits"):
            dumps_canonical(doc)


def test_a_sweep_is_written_in_a_small_multiple_of_its_length():
    # the member documents are built as they are encoded: the peak is the
    # encoded elements and their join, where json.dumps of the list of
    # documents peaks near 19 times the payload.  The members' HNF keys are
    # taken first: they are kept on the lattices, not by the output stage.
    members = scan_family(F(1), 16).members
    for m in members:
        hnf_json(m.lattice)
    tracemalloc.start()
    try:
        payload = dumps_canonical(map(member_json, members))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(members) == 222 and len(payload) > 80_000
    assert peak < 3 * len(payload)
