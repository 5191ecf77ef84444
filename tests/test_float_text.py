"""``harness.float_text`` writes float columns of a trace or report file as
``f"{v:.17g}"`` writes each value, and None as an empty field, formatting
each distinct bit pattern once."""

import math

import numpy as np

from ccdlab import harness
from ccdlab.harness import float_text

SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]


def _bits(values):
    return np.array(values, dtype=float).view(np.uint64).tolist()


def test_float_text_matches_the_per_value_format():
    rng = np.random.default_rng(0)
    values = rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(float).tolist()
    values += SPECIALS
    assert float_text(values) == [[f"{v:.17g}" for v in values]]
    specials = np.array(SPECIALS)
    assert float_text(specials, specials[::-1]) == [
        [f"{v:.17g}" for v in specials], [f"{v:.17g}" for v in specials[::-1]]]


def test_none_is_an_empty_field():
    assert float_text([None, 1.5, None, math.nan, -0.0], [2.0, None, 0.0, 1.5, None]) == [
        ["", "1.5", "", "nan", "-0"], ["2", "", "0", "1.5", ""]]
    assert float_text([None, None]) == [["", ""]]
    assert float_text([]) == [[]]


def test_each_distinct_bit_pattern_is_formatted_once(monkeypatch):
    calls = []

    def counting(value, spec):
        calls.append(value)
        return format(value, spec)

    monkeypatch.setattr(harness, "format", counting, raising=False)
    values = [0.5, -0.0, 0.5, 0.0, -0.0, 0.5, math.nan, math.nan, -math.nan, None, 0.5]
    other = [None, 0.5, 2.0, -0.0, 2.0, 0.0, 0.5, 0.5, 0.5, 0.5, 0.5]
    assert float_text(values, other) == [
        ["" if v is None else f"{v:.17g}" for v in column] for column in (values, other)]
    # None is NaN's bits; 0.0 and -0.0 are two patterns, and so are NaN and -NaN
    assert sorted(_bits(calls)) == sorted(set(_bits(values + other)))
    assert len(calls) == 6


class _Unsearchable(np.ndarray):
    def __contains__(self, value):
        raise AssertionError("a float array column was searched for None")


def test_array_columns_are_not_searched_for_none():
    # report columns are float arrays: they hold no None, and an ``in`` test
    # would compare every element
    values = [0.5, -0.0, math.nan, 1e300, 0.5]
    column = np.array(values).view(_Unsearchable)
    assert float_text(column, values) == [[f"{v:.17g}" for v in values]] * 2
