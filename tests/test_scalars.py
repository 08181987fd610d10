import csv
import io
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mdtds import SignedLetter, WordSyntaxError
from mdtds.scalars import (csv_text, format_scalar, int_text, parse_int,
                           parse_rational, parse_scalar)

from conftest import words_strategy

# CPython refuses int <-> decimal text past 4,300 digits by default
BIG = 10 ** 5000


class TestIntText:
    @pytest.mark.parametrize("n, text", [
        (BIG, "1" + "0" * 5000),
        (BIG + 1, "1" + "0" * 4999 + "1"),  # the low half needs its zeros
        (-(BIG * 7 + 12345), "-7" + "0" * 4995 + "12345"),
        (10 ** 12000 - 1, "9" * 12000),
    ], ids=["power", "low-zeros", "negative", "nines"])
    def test_past_the_limit(self, n, text):
        assert int_text(n) == text
        assert parse_int(text) == n
        assert parse_int("+" + text.lstrip("-")) == abs(n)

    @given(st.integers(-10 ** 50, 10 ** 50))
    def test_matches_str_below_the_limit(self, n):
        assert int_text(n) == str(n)
        assert parse_int(str(n)) == n

    @pytest.mark.parametrize("text", ["", "12x", "1" * 5000 + "x", "--1",
                                      "1 " + "1" * 5000],
                             ids=["empty", "letter", "long-letter", "signs", "space"])
    def test_bad_text_is_refused(self, text):
        with pytest.raises(ValueError):
            parse_int(text)


class TestRationalText:
    @given(st.fractions())
    def test_format_matches_str_below_the_limit(self, value):
        assert format_scalar(value) == str(value)
        assert parse_scalar(format_scalar(value)) == value

    @pytest.mark.parametrize("value", [F(BIG + 1), F(-(BIG + 1), 3),
                                       F(7, BIG + 3), F(3 ** 9000 + 1, 2 ** 20000)],
                             ids=["integer", "negative", "denominator", "both"])
    def test_round_trip_past_the_limit(self, value):
        text = format_scalar(value)
        assert text.lstrip("-").split("/")[0] == int_text(abs(value.numerator))
        assert parse_scalar(text) == value
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["1" * 5000 + "/0", "1" * 5000 + "/x",
                                      "1" * 5000 + ".5/3", "abc"],
                             ids=["zero", "letter", "decimal", "word"])
    def test_bad_text_is_a_syntax_error(self, text):
        with pytest.raises(WordSyntaxError):
            parse_rational(text)


# the kinds of field the package's tables hold: word and letter text, ints,
# rational and float text (the float specials too), and the empty field
_FIELDS = st.one_of(
    words_strategy(3, 6).map(str),
    st.integers(0, 5).map(lambda i: str(SignedLetter.from_index(i))),
    st.integers(-10 ** 30, 10 ** 30),
    st.fractions().map(format_scalar),
    st.floats().map(format_scalar),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), -0.0]).map(format_scalar),
    st.just(""),
)


class TestCsvText:
    # every table has two or four columns; csv.writer would quote the
    # empty field of a one-column row
    @given(st.lists(st.lists(_FIELDS, min_size=2, max_size=4), max_size=6))
    def test_matches_the_csv_module(self, rows):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        assert csv_text(rows) == buf.getvalue()
