"""Fuzzing of the two text parsers: on any text drawn from the grammar's
alphabet and a set of hostile tokens, ``parse_form`` and
``parse_ideal_text`` return or raise ``ParseError``, never another
exception."""

from hypothesis import given, settings
from hypothesis import strategies as st

from hsfinite import BinaryForm, GradedIdeal, ParseError, parse_form, parse_ideal_text

ALPHABET = tuple("0123456789xy^*+-/ \t")
HOSTILE = ("x^1001", "y^99999", "1/0", "0/0", "²", "٣", "truncate", "truncate:",
           "truncate: 0", "#", "\n", "\r\n", "x^", "^", "**", "--", "+",
           "9" * 5000, "x^" + "1" * 5000, "1/" + "0" * 40)

texts = st.lists(st.one_of(st.sampled_from(ALPHABET), st.sampled_from(HOSTILE)),
                 max_size=40).map("".join)
FUZZ = settings(max_examples=500, deadline=None, derandomize=True)


@FUZZ
@given(texts)
def test_parse_form_returns_or_raises_parse_error(text):
    try:
        form = parse_form(text)
    except ParseError:
        return
    assert isinstance(form, BinaryForm)


@FUZZ
@given(st.lists(texts, max_size=6).map("\n".join))
def test_parse_ideal_text_returns_or_raises_parse_error(text):
    try:
        ideal = parse_ideal_text(text)
    except ParseError:
        return
    assert isinstance(ideal, GradedIdeal)
