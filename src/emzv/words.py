"""Words of nonnegative integers: the one validator, the graded
enumerator, and the word combinatorics shared by the shuffle algebras.

Indices, e-words and the compositions of the constant-term extraction are
all such words, graded by their length and their letter sum.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def make_word(letters: Iterable[int]) -> tuple[int, ...]:
    """The letters as a tuple of ints; a negative one raises ValueError."""
    w = tuple(int(k) for k in letters)
    if any(k < 0 for k in w):
        raise ValueError(f"letters must be nonnegative: {w}")
    return w


def graded_words(length: int, total: int, step: int = 1) -> list[tuple[int, ...]]:
    """All words of the length whose letters are nonnegative multiples of
    step and sum to total, in lexicographic order."""
    if length == 0:
        return [()] if total == 0 else []
    return [
        (first,) + rest
        for first in range(0, total + 1, step)
        for rest in graded_words(length - 1, total - first, step)
    ]


def shuffle_multiset(u: Sequence, v: Sequence) -> dict[tuple, int]:
    """All shuffles of u and v with multiplicities.

    Returns a map word-tuple -> multiplicity; the sum of multiplicities is
    binom(|u|+|v|, |u|).
    """
    out: dict[tuple, int] = {}

    def rec(i: int, j: int, prefix: tuple) -> None:
        if i == len(u) and j == len(v):
            out[prefix] = out.get(prefix, 0) + 1
            return
        if i < len(u):
            rec(i + 1, j, prefix + (u[i],))
        if j < len(v):
            rec(i, j + 1, prefix + (v[j],))

    rec(0, 0, ())
    return out


def deconcatenations(w: Sequence) -> list[tuple[tuple, tuple]]:
    """All splits w = u . v including the trivial ones."""
    t = tuple(w)
    return [(t[:i], t[i:]) for i in range(len(t) + 1)]
