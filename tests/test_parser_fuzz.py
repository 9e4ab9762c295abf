"""Fuzzing of the two text parsers: on any text drawn from the grammar's
alphabet and a set of hostile tokens, ``parse_form`` and
``parse_ideal_text`` return or raise ``ParseError``, never another
exception.  The ideal parser reads integer lists, and the forms it builds
on demand are those ``parse_form`` reads from its lines."""

from fractions import Fraction

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


def _polynomial(degree, terms):
    """The text of the terms sign num/den*x^i*y^(degree - i), one for each
    (sign, num, den, i) in ``terms``."""
    return "".join("%s%d/%d*x^%d*y^%d" % ((" %s " % sign) if k else sign.strip("+"),
                                          num, den, i, degree - i)
                   for k, (sign, num, den, i) in enumerate(terms))


# homogeneous text with fractional and cancelling coefficients, which the
# alphabet alone seldom spells
polynomials = st.integers(0, 4).flatmap(lambda degree: st.lists(
    st.tuples(st.sampled_from("+-"), st.integers(0, 12), st.integers(1, 6),
              st.integers(0, degree)),
    min_size=1, max_size=5).map(lambda terms: _polynomial(degree, terms)))


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


@FUZZ
@given(st.lists(st.one_of(texts, polynomials, polynomials), min_size=1, max_size=5)
       .map("\n".join))
def test_ideal_generators_are_the_forms_of_its_lines(text):
    try:
        ideal = parse_ideal_text(text)
    except ParseError:
        return
    lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    expected = [parse_form(line) for line in lines
                if line and not line.lower().startswith("truncate")]
    assert list(ideal.generators) == expected
    assert all(type(c) is Fraction for g in ideal.generators for c in g.coeffs)
