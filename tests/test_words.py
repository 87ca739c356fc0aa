"""The one validator and the one graded enumerator of words of nonnegative
integers, against copies of the enumerators that graded_words replaced."""

import math

import pytest

from emzv.coeffring import shipped_table
from emzv.decomp import decompose, diffeq_expand, indices_upto, parse_index
from emzv.eisalg import EPoly
from emzv.errors import ParseError
from emzv.ncalg import compositions_of, extract_gamma
from emzv.words import graded_words, make_word

# ---------------------------------------------------------------------------
# The enumerators graded_words replaced, kept here as the reference


def reference_even_words(length, total):
    if length == 0:
        if total == 0:
            yield ()
        return
    for first in range(0, total + 1, 2):
        for rest in reference_even_words(length - 1, total - first):
            yield (first,) + rest


def reference_indices_exact(length, weight):
    out = [()]
    for _ in range(length):
        out = [idx + (k,) for idx in out for k in range(weight - sum(idx) + 1)]
    return [idx for idx in out if sum(idx) == weight]


def reference_indices_upto(max_len, max_wt):
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [idx + (k,) for idx in frontier for k in range(max_wt - sum(idx) + 1)]
        out.extend(frontier)
    return out


def reference_compositions_of(d):
    if d == 0:
        return [()]
    out = []

    def rec(remaining, acc):
        if remaining == 0:
            out.append(acc)
            return
        for part in range(1, remaining + 1):
            rec(remaining - part, acc + (part - 1,))

    rec(d, ())
    return out


def test_graded_words_match_the_enumerators_they_replace():
    words = 0
    for length in range(6):
        for total in range(-1, 13):
            assert graded_words(length, total, step=2) == list(
                reference_even_words(length, total)
            ), (length, total)
            got = graded_words(length, total)
            assert got == reference_indices_exact(length, total), (length, total)
            assert got == sorted(got) and len(set(got)) == len(got)
            words += len(got)
    # stars and bars: C(t + l - 1, l - 1) words of length l >= 1 and sum t
    assert words == 1 + sum(math.comb(12 + length, length) for length in range(1, 6))
    for max_len in range(6):
        for max_wt in range(13):
            got = indices_upto(max_len, max_wt)
            assert len(set(got)) == len(got)
            assert set(got) == set(reference_indices_upto(max_len, max_wt))
    for d in range(13):
        got = compositions_of(d)
        assert len(set(got)) == len(got) == 2 ** max(d - 1, 0)
        assert set(got) == set(reference_compositions_of(d))


def test_make_word_is_the_one_validator():
    assert make_word([2, True, "3"]) == (2, 1, 3)
    assert make_word(()) == ()
    table = shipped_table()
    # every entry point that reads a word refuses a negative letter
    for call in (
        lambda: make_word((1, -2)),
        lambda: decompose((0, -1), table),
        lambda: diffeq_expand((-1, 0)),
        lambda: extract_gamma((2, -1), table),
        lambda: EPoly.word((2, -2)),
        lambda: EPoly.zero().prepend(-2),
    ):
        with pytest.raises(ValueError, match="letters must be nonnegative"):
            call()
    with pytest.raises(ParseError, match="bad index '1,-2'"):
        parse_index("1,-2")
