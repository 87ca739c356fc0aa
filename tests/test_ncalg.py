from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emzv.coeffring import CoeffElem, shipped_table
from emzv.errors import (
    DegreeMismatch,
    ExtractionInconsistent,
    PreconditionViolated,
    TableOverflow,
)
from emzv.ncalg import (
    NCSeries,
    ad_pow,
    build_Ainf,
    build_phi,
    build_ytilde,
    canonical_ainf,
    compositions_of,
    extract_gamma,
    index_monomial,
    is_grouplike,
    nc_bracket,
    nc_exp,
    nc_inv,
    nc_mul,
    pure_word,
    shuffle_regularize,
)

F = Fraction


def nc(maxdeg, **words):
    return NCSeries(
        maxdeg, {w if w != "e" else "": CoeffElem.from_rational(q) for w, q in words.items()}
    )


@pytest.fixture(scope="module")
def table():
    return shipped_table()


def test_nc_mul_examples():
    a = NCSeries.letter("a", 3)
    b = NCSeries.letter("b", 3)
    assert nc_mul(a, b) == nc(3, ab=1)
    one = NCSeries.one(2)
    assert nc_mul(one + NCSeries.letter("a", 2), one - NCSeries.letter("a", 2)) == nc(
        2, e=1, aa=-1
    )
    assert nc_bracket(a, b) == nc(3, ab=1, ba=-1)
    with pytest.raises(DegreeMismatch):
        nc_mul(NCSeries.one(2), NCSeries.one(3))


def test_exp_inv_examples():
    assert nc_exp(NCSeries.zero(4)) == NCSeries.one(4)
    assert nc_inv(NCSeries.one(4)) == NCSeries.one(4)
    a = NCSeries.letter("a", 2)
    assert nc_exp(a) == nc(2, e=1, a=1, aa=F(1, 2))
    with pytest.raises(PreconditionViolated):
        nc_exp(NCSeries.one(3))
    with pytest.raises(PreconditionViolated):
        nc_inv(NCSeries.letter("a", 3))


@settings(max_examples=25, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(["a", "b", "ab", "ba", "bb"]),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        max_size=3,
    )
)
def test_exp_inv_are_inverses(d):
    x = NCSeries(5, {w: CoeffElem.from_rational(q) for w, q in d.items()})
    one = NCSeries.one(5)
    assert nc_mul(nc_exp(x), nc_exp(-x)) == one
    assert nc_mul(nc_inv(one + x), one + x) == one


def test_ad_pow_examples():
    assert ad_pow(0) == nc(1, b=1)
    assert ad_pow(1) == nc(2, ab=1, ba=-1)
    assert ad_pow(2) == nc(3, aab=1, aba=-2, baa=1)


def test_ad_pow_is_lie_dynkin():
    # Right-nested bracketing fixes Lie elements of degree n up to the factor n.
    for k in range(6):
        elem = ad_pow(k)

        def right_bracket(word):
            out = {word[-1]: F(1)}
            for ch in reversed(word[:-1]):
                nxt = {}
                for w, q in out.items():
                    for ww, qq in ((ch + w, q), (w + ch, -q)):
                        s = nxt.get(ww, F(0)) + qq
                        if s:
                            nxt[ww] = s
                        else:
                            nxt.pop(ww, None)
                out = nxt
            return out

        acc: dict[str, F] = {}
        for w, c in elem.items():
            for ww, q in right_bracket(w).items():
                s = acc.get(ww, F(0)) + c.rational_part() * q
                if s:
                    acc[ww] = s
                else:
                    acc.pop(ww, None)
        want = {w: c.rational_part() * (k + 1) for w, c in elem.items()}
        assert acc == want


def test_ytilde_low_degrees():
    y = build_ytilde(3)
    assert y.component(1) == nc(3, b=-1).component(1)
    assert y.component(2) == nc(3, ab=F(1, 2), ba=F(-1, 2)).component(2)
    assert y.component(3) == nc(
        3, aab=F(-1, 12), aba=F(1, 6), baa=F(-1, 12)
    ).component(3)


def test_shuffle_regularize_values(table):
    assert shuffle_regularize("A", table).is_zero()
    assert shuffle_regularize("B", table).is_zero()
    assert shuffle_regularize("AB", table) == CoeffElem.pi_pow(2, F(-1, 24))
    # Leading-B peel: B sh AB = BAB + 2 ABB, so reg(BAB) = -2 zeta(3).
    assert shuffle_regularize("BAB", table) == CoeffElem.symbol("z3", -2)
    # Pure powers of one letter regularize to zero without table lookups.
    assert shuffle_regularize("AAAA", table).is_zero()
    assert shuffle_regularize("BBBBB", table).is_zero()
    with pytest.raises(TableOverflow):
        shuffle_regularize("A" + "B" * 10, table)


def test_reg_is_shuffle_character(table):
    # reg(u) reg(v) = sum of reg over the shuffle of u and v.
    from emzv.ncalg import bin_shuffle

    cases = [("AB", "BA"), ("A", "ABB"), ("BA", "BA"), ("B", "AABB")]
    for u, v in cases:
        lhs = table.mul(shuffle_regularize(u, table), shuffle_regularize(v, table))
        rhs = CoeffElem.zero()
        for w, mult in bin_shuffle(u, v).items():
            rhs = rhs + shuffle_regularize(w, table).scale(mult)
        assert lhs == rhs, (u, v)


def test_phi_low_degree(table):
    D = 4
    a = NCSeries.letter("a", D, table)
    b = NCSeries.letter("b", D, table)
    t = -nc_bracket(a, b)
    y = build_ytilde(D, table)
    phi = build_phi(y, t, D, table)
    assert phi.constant_term() == CoeffElem.one()
    # Lowest term: -zeta(2) [ytilde, t] = pi^2/24 [ytilde, t], degree 3 part
    want = nc_bracket(y, t).scale(CoeffElem.pi_pow(2, F(1, 24))).component(3)
    assert phi.component(3) == want
    assert is_grouplike(phi)
    # Both arguments zero: the unit series.
    z = NCSeries.zero(D, table)
    assert build_phi(z, z, D, table) == NCSeries.one(D, table)


def test_phi_letter_coefficients(table):
    # Evaluated on bare letters the lowest coefficients are -zeta(2) on the
    # straight word and +zeta(2) on the transposed one.
    a = NCSeries.letter("a", 2, table)
    b = NCSeries.letter("b", 2, table)
    phi = build_phi(a, b, 2, table)
    minus_zeta2 = CoeffElem.pi_pow(2, F(1, 24))
    assert phi.coefficient("ab") == minus_zeta2
    assert phi.coefficient("ba") == -minus_zeta2


def test_ainf_low_terms(table):
    ainf = build_Ainf(4, table)
    assert ainf.constant_term() == CoeffElem.one()
    assert ainf.coefficient("b") == CoeffElem.pi_pow(1, -1)
    assert ainf.coefficient("a").is_zero()
    # Homogeneity: the coefficient weight equals the number of b letters.
    for w, c in ainf.items():
        nb = w.count("b")
        assert c.weights(table.symbols) <= {nb}, (w, str(c))


def test_gamma_length_one(table):
    from emzv.coeffring import bernoulli

    ainf = canonical_ainf(table, 7)
    import math

    for k in range(0, 7):
        got = extract_gamma((k,), ainf)
        if k % 2:
            want = CoeffElem.zero()
        else:
            want = CoeffElem.pi_pow(1, bernoulli(k) / math.factorial(k))
        assert got == want, k


def test_gamma_anchors(table):
    ainf = canonical_ainf(table, 5)
    assert extract_gamma((), ainf) == CoeffElem.one()
    assert extract_gamma((1, 1), ainf) == CoeffElem.zero()
    assert extract_gamma((2, 0, 0), ainf) == CoeffElem.pi_pow(3, F(1, 72))
    assert extract_gamma((0, 1, 0, 0), ainf) == CoeffElem.symbol("z3", -3).mul_pi(1)


def test_gamma_length_two_closed_form(table):
    import math
    from emzv.coeffring import bernoulli

    ainf = canonical_ainf(table, 8)
    for k1 in range(0, 7):
        for k2 in range(0, 7 - k1):
            got = extract_gamma((k1, k2), ainf)
            if (k1, k2) == (1, 1):
                want = CoeffElem.zero()
            else:
                q = (
                    F((-1) ** k2)
                    * bernoulli(k1)
                    * bernoulli(k2)
                    / (2 * math.factorial(k1) * math.factorial(k2))
                )
                want = CoeffElem.pi_pow(2, q)
                if q == 0:
                    want = CoeffElem.zero()
            assert got == want, (k1, k2)


def test_extraction_residual_detected():
    bad = NCSeries(2, {"aa": CoeffElem.one()})
    with pytest.raises(ExtractionInconsistent):
        extract_gamma((1,), bad)


def test_triangular_solve_recovers_random_combinations():
    # Build random combinations of the index monomials and check exact
    # recovery of every coefficient (the spec for the back-substitution).
    import random

    from emzv.ncalg import index_monomial, triangular_index_solve

    rng = random.Random(404)
    for degree in (1, 2, 3, 4, 5, 6):
        comps = compositions_of(degree)
        for _ in range(6):
            want = {
                j: F(rng.randint(-9, 9), rng.randint(1, 4)) for j in comps
            }
            component: dict[str, CoeffElem] = {}
            for j, q in want.items():
                if not q:
                    continue
                for w, qq in index_monomial(j).items():
                    c = component.get(w, CoeffElem.zero()) + CoeffElem.from_rational(
                        q * qq
                    )
                    if c.is_zero():
                        component.pop(w, None)
                    else:
                        component[w] = c
            solved = triangular_index_solve(component, degree)
            for j, q in want.items():
                got = solved.get(j)
                got_q = got.rational_part() if got is not None else F(0)
                assert got_q == q, (degree, j)


def test_compositions_and_pure_words():
    assert compositions_of(0) == [()]
    assert set(compositions_of(3)) == {(2,), (0, 1), (1, 0), (0, 0, 0)}
    assert pure_word((0, 1, 0, 0)) == "bbabb"
    assert index_monomial((0, 1, 0, 0)) == {"bbabb": F(1), "bbbab": F(-1)}


def test_required_table_weight():
    from emzv.ncalg import required_table_weight

    assert required_table_weight((4, 4)) == 9
    assert required_table_weight((3, 4)) == 8
    assert required_table_weight((8,)) == 8
    assert required_table_weight(()) == -1
