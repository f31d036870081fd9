from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from frsurf.rationals import format_rational, is_standard, parse_rational, std_replace


def test_is_standard_examples():
    assert is_standard(F(1, 2))
    assert is_standard(F(5, 6))
    assert not is_standard(F(3, 5))
    assert is_standard(F(0))
    assert is_standard(F(1))


def test_is_standard_rejects_out_of_range():
    with pytest.raises(ValueError):
        is_standard(F(3, 2))
    with pytest.raises(ValueError):
        is_standard(F(-1, 2))


@given(num=st.integers(0, 60), den=st.integers(1, 60))
def test_is_standard_iff_reduced_shape(num, den):
    if num > den:
        return
    c = F(num, den)
    expected = c == 1 or c.numerator == c.denominator - 1
    assert is_standard(c) == expected


def test_std_replace_examples():
    assert std_replace(5, 6) == F(4, 5)
    assert std_replace(3, 6) == F(2, 5)
    assert std_replace(6, 6) == 1
    assert std_replace(2, 4) == F(1, 3)


def test_std_replace_rejects_bad_input():
    with pytest.raises(ValueError):
        std_replace(1, 1)
    with pytest.raises(ValueError):
        std_replace(0, 6)
    with pytest.raises(ValueError):
        std_replace(7, 6)


def test_monotonicity_sweep():
    # (j-1)/j < p/q implies (j-1)/j <= (p-1)/(q-1), swept exhaustively
    for j in range(1, 51):
        bound = F(j - 1, j)
        for q in range(2, 51):
            for p in range(0, q + 1):
                if bound < F(p, q):
                    assert bound <= F(max(p - 1, 0), q - 1) or p == 0


def test_replacement_dominates_standard_floor():
    # std_replace(num, den) >= num/den whenever a standard bound sits below
    for den in range(2, 30):
        for num in range(1, den + 1):
            c = F(num, den)
            js = [j for j in range(1, 40) if F(j - 1, j) < c]
            if js:
                j = max(js)
                assert F(j - 1, j) <= std_replace(num, den)


def test_parse_and_format_round_trip():
    assert parse_rational("1/2") == F(1, 2)
    assert parse_rational("3") == 3
    assert parse_rational("-1/2") == F(-1, 2)
    assert format_rational(F(1, 2)) == "1/2"
    assert format_rational(F(4, 2)) == "2"
    for bad in ("0.5", "1/0", "a/b", "1 / 2", ""):
        with pytest.raises(ValueError):
            parse_rational(bad)
