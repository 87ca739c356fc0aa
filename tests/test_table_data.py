"""Independent validation of the shipped reduction table.

The generation script already enforces duality, both product expansions and
the depth-one insertion relations; these tests check identities that were
never imposed during generation, so they probe the data rather than the
generator.
"""

from fractions import Fraction

import pytest

from emzv.coeffring import (
    CoeffElem,
    admissible_words,
    coeff_mul,
    reduce_even_zeta,
    shipped_table,
)
from emzv.ncalg import bin_shuffle, shuffle_regularize

F = Fraction


@pytest.fixture(scope="module")
def table():
    return shipped_table()


def zeta(table, s):
    """zeta(s) in the table: the value of the depth-one word A B^(s-1)."""
    return table.convergent_words["A" + "B" * (s - 1)]


def word_to_comp(w):
    comp = []
    for ch in w:
        if ch == "A":
            comp.append(1)
        else:
            comp[-1] += 1
    return tuple(comp)


def test_sum_formula(table):
    # For each weight, the values of all admissible words of a fixed depth
    # add up to the single zeta value of that weight.
    for weight in range(2, table.max_weight + 1):
        by_depth: dict[int, CoeffElem] = {}
        for w in admissible_words(weight):
            d = len(word_to_comp(w))
            by_depth[d] = by_depth.get(d, CoeffElem.zero()) + table.convergent_words[w]
        for depth, total in by_depth.items():
            assert total == zeta(table, weight), (weight, depth)


def test_shuffle_character_on_admissible_products(table):
    # Shuffling two admissible words only produces admissible words, and the
    # table must respect the product; generation used split-weight pairs of
    # *reduced* values, so same-word squares at the cap exercise new cases.
    cases = [("AB", "ABB"), ("ABB", "ABB"), ("AABB", "ABB"), ("ABBBB", "ABB")]
    for u, v in cases:
        lhs = coeff_mul(table.convergent_words[u], table.convergent_words[v], table)
        rhs = CoeffElem.zero()
        for w, mult in bin_shuffle(u, v).items():
            rhs = rhs + table.convergent_words[w].scale(mult)
        assert lhs == rhs, (u, v)


def test_depth_one_values_match_single_zeta(table):
    # even zeta(s) is its Bernoulli value; odd zeta(s) is the generator z<s>
    for s in range(2, table.max_weight + 1):
        want = reduce_even_zeta(s) if s % 2 == 0 else CoeffElem.symbol(f"z{s}")
        assert zeta(table, s) == want, s


def test_regularization_of_reversed_depth_one(table):
    # reg(B^{s-1} A) = -s' * zeta-type values follow from the peel; check the
    # character property reg(u)reg(v) = reg(u sh v) on divergent pairs that
    # the table never stores directly.
    for u, v in [("BA", "AB"), ("BBA", "AB"), ("BA", "BA")]:
        lhs = coeff_mul(shuffle_regularize(u, table), shuffle_regularize(v, table), table)
        rhs = CoeffElem.zero()
        for w, mult in bin_shuffle(u, v).items():
            rhs = rhs + shuffle_regularize(w, table).scale(mult)
        assert lhs == rhs, (u, v)
