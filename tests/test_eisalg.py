import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emzv.coeffring import CoeffElem, MzvMonomial, canonical_slices, coeff_mul, shipped_table
from emzv.eisalg import (
    EPoly,
    _iei_cache,
    deconcat,
    eisenstein_qexp,
    epoly_mul,
    epoly_to_qexp,
    iei_qexp,
    shuffle_words,
)
from emzv.qseries import QTSeries, qt_ddT, qt_mul
from emzv.words import shuffle_multiset

F = Fraction


def qt(order, **terms):
    coeffs = {}
    for key, val in terms.items():
        m, j = key[1:].split("_")
        coeffs[(int(m), int(j))] = CoeffElem.from_rational(val)
    return QTSeries(order, coeffs)


def test_eisenstein_examples():
    e4 = eisenstein_qexp(4, 4)
    assert e4 == qt(4, c0_0=F(1, 240), c1_0=1, c2_0=9, c3_0=28)
    assert eisenstein_qexp(0, 5) == qt(5, c0_0=-1)
    assert eisenstein_qexp(3, 5).is_zero()
    e2 = eisenstein_qexp(2, 4)
    assert e2 == qt(4, c0_0=F(-1, 24), c1_0=1, c2_0=3, c3_0=4)


def test_iei_base_cases():
    assert iei_qexp((), 5) == qt(5, c0_0=1)
    assert iei_qexp((0,), 5) == qt(5, c0_1=1)  # the letter 0 integrates to T
    assert iei_qexp((4,), 3) == qt(3, c0_1=F(-1, 240), c1_0=-1, c2_0=F(-9, 2))
    assert iei_qexp((3,), 6).is_zero()
    assert iei_qexp((0, 3, 2), 6).is_zero()


def test_iei_differential_recursion():
    # d/dT iei(k, w) = -E_k * iei(w), exactly at each order
    for word in [(0,), (4,), (0, 4), (2, 2), (4, 0, 2)]:
        lhs = qt_ddT(iei_qexp(word, 12))
        rhs = qt_mul(-eisenstein_qexp(word[0], 12), iei_qexp(word[1:], 12))
        assert lhs == rhs


def test_shuffle_examples():
    assert shuffle_words((0,), (4,)) == EPoly.word((0, 4)) + EPoly.word((4, 0))
    assert shuffle_words((), (2,)) == EPoly.word((2,))
    assert shuffle_words((0,), (0,)) == EPoly.word((0, 0), 2)


def test_epoly_mul_examples():
    pihat = CoeffElem.pi_pow(1)
    lhs = epoly_mul(EPoly.word((0,), pihat), EPoly.word((4,)))
    assert lhs == EPoly.word((0, 4), pihat) + EPoly.word((4, 0), pihat)

    x = EPoly.word((2, 4), F(7, 3))
    assert epoly_mul(EPoly.constant(1), x) == x

    got = epoly_mul(EPoly.word((2,)) - EPoly.word((4,)), EPoly.word((2,)))
    want = (
        EPoly.word((2, 2), 2) - EPoly.word((4, 2)) - EPoly.word((2, 4))
    )
    assert got == want


def test_epoly_to_qexp_examples():
    assert epoly_to_qexp(EPoly.word((0,)), 6) == iei_qexp((0,), 6)
    both = EPoly.word((0, 4)) + EPoly.word((4, 0))
    assert epoly_to_qexp(both, 8) == qt_mul(iei_qexp((0,), 8), iei_qexp((4,), 8))
    assert epoly_to_qexp(EPoly.constant(5), 6) == qt(6, c0_0=5)


EVEN_LETTERS = [0, 2, 4, 6, 8]


def _words(max_len):
    out = [()]
    for n in range(1, max_len + 1):
        out.extend(itertools.product(EVEN_LETTERS, repeat=n))
    return out


def test_shuffle_homomorphism_suite():
    # iei(u) * iei(v) = iei(shuffle(u, v)) for letter sums <= 8, lengths <= 4
    order = 14
    words = [w for w in _words(2) if sum(w) <= 8]
    for u, v in itertools.product(words, repeat=2):
        if len(u) + len(v) > 4 or sum(u) + sum(v) > 8:
            continue
        lhs = qt_mul(iei_qexp(u, order), iei_qexp(v, order))
        rhs = epoly_to_qexp(shuffle_words(u, v), order)
        assert lhs == rhs, (u, v)


def test_odd_letters_dropped_at_boundary():
    p = EPoly({(3,): CoeffElem.one(), (2,): CoeffElem.one()})
    assert p.words() == [(2,)]
    assert shuffle_words((1,), (2,)).is_zero()


def test_deconcat_examples():
    d = deconcat(EPoly.word((2,)))
    assert d == {
        ((), (2,)): CoeffElem.one(),
        ((2,), ()): CoeffElem.one(),
    }
    d = deconcat(EPoly.word((0, 4)))
    assert d == {
        ((), (0, 4)): CoeffElem.one(),
        ((0,), (4,)): CoeffElem.one(),
        ((0, 4), ()): CoeffElem.one(),
    }
    assert deconcat(EPoly.constant(1)) == {((), ()): CoeffElem.one()}


def test_deconcat_coassociative():
    # (delta x id) delta = (id x delta) delta on words up to length 4
    for w in [(0,), (2, 4), (0, 0, 4), (2, 0, 4, 6)]:
        d1 = {}
        for (u, v), c in deconcat(EPoly.word(w)).items():
            for (a, b), c2 in deconcat(EPoly.word(u, c)).items():
                key = (a, b, v)
                d1[key] = d1.get(key, CoeffElem.zero()) + c2
        d2 = {}
        for (u, v), c in deconcat(EPoly.word(w)).items():
            for (a, b), c2 in deconcat(EPoly.word(v, c)).items():
                key = (u, a, b)
                d2[key] = d2.get(key, CoeffElem.zero()) + c2
        assert d1 == d2


@settings(max_examples=40, deadline=None)
@given(
    u=st.lists(st.sampled_from(EVEN_LETTERS), max_size=3).map(tuple),
    v=st.lists(st.sampled_from(EVEN_LETTERS), max_size=3).map(tuple),
)
def test_shuffle_commutes(u, v):
    assert shuffle_words(u, v) == shuffle_words(v, u)


@settings(max_examples=60, deadline=None)
@given(
    u=st.lists(st.integers(0, 5), max_size=3).map(tuple),
    v=st.lists(st.integers(0, 5), max_size=3).map(tuple),
)
def test_shuffle_slices_match_the_coefficient_construction(u, v):
    # the integer multiplicities become slices directly; the key rule's
    # constructor, fed CoeffElem multiplicities, gives the same value,
    # including the empty word and the drop of words with an odd letter
    got = shuffle_words(u, v)
    mults = shuffle_multiset(u, v)
    want = EPoly({w: CoeffElem.from_rational(m) for w, m in mults.items()})
    assert got == want and got.coeffs == want.coeffs
    assert canonical_slices(got.slices()) == canonical_slices(want.slices())
    assert got.is_zero() == any(k % 2 for k in u + v)


_coeffs = st.builds(
    lambda terms: sum((CoeffElem.pi_pow(k, q) for k, q in terms), CoeffElem.zero()),
    st.lists(st.tuples(st.integers(0, 3), st.fractions(max_denominator=6)), max_size=3),
)
_epolys = st.dictionaries(
    st.lists(st.sampled_from([0, 2, 3, 4]), max_size=3).map(tuple), _coeffs, max_size=5
).map(EPoly)


def _validated(keys, coefficient):
    return EPoly({w: coefficient(w) for w in keys})


@settings(max_examples=100, deadline=None)
@given(_epolys, _epolys, st.fractions(max_denominator=5), _coeffs)
def test_epoly_arithmetic_matches_validating_constructor(x, y, q, c):
    words = set(x.coeffs) | set(y.coeffs)
    assert x + y == _validated(words, lambda w: x.coefficient(w) + y.coefficient(w))
    assert x - y == _validated(words, lambda w: x.coefficient(w) - y.coefficient(w))
    assert -x == _validated(x.coeffs, lambda w: -x.coefficient(w))
    assert x.scale(q) == _validated(x.coeffs, lambda w: x.coefficient(w).scale(q))
    assert x.scale(c) == _validated(
        x.coeffs, lambda w: coeff_mul(x.coefficient(w), c, None)
    )
    assert x.scale(0).is_zero() and x.scale(CoeffElem.zero()).is_zero()
    # a rational CoeffElem scales as its Fraction, with or without a table
    r = CoeffElem.from_rational(q)
    assert x.scale(r) == x.scale(r, shipped_table()) == x.scale(q)
    assert x.scale(F(0)) == x.scale(CoeffElem.zero(), shipped_table()) == EPoly.zero()
    # words with an odd letter are dropped, and their coefficient is zero
    assert EPoly({(2, 3): CoeffElem.one()}).is_zero()
    for w in ((3,), (2, 3), (0, 4, 3)):
        assert x.coefficient(w) == (x - y).coefficient(w) == CoeffElem.zero()
    for z in (x + y, -x, x.scale(q), x.scale(c)):
        assert all(k % 2 == 0 for w in z.coeffs for k in w)
        assert all(not v.is_zero() for v in z.coeffs.values())


def reference_epoly_to_qexp(x, order):
    """The per-term realization that the linear-combination kernel replaced."""
    acc = QTSeries.zero(order)
    for w, c in x.items():
        acc = acc + iei_qexp(w, order).scale(c)
    return acc


_MIXED_MONOMIALS = (
    MzvMonomial(0, ()),
    MzvMonomial(1, ()),
    MzvMonomial(2, ()),
    MzvMonomial(0, ("z3",)),
    MzvMonomial(1, ("z3",)),
    MzvMonomial(0, ("z3", "z5")),
)
_mixed_coeffs = st.dictionaries(
    st.sampled_from(_MIXED_MONOMIALS),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    min_size=1,
    max_size=3,
).map(CoeffElem)


@settings(max_examples=80, deadline=None)
@given(
    terms=st.dictionaries(
        st.lists(st.sampled_from([0, 2, 3, 4, 6]), max_size=3).map(tuple),
        _mixed_coeffs,
        max_size=5,
    ),
    cancel=st.one_of(st.none(), _mixed_coeffs),
    order=st.integers(1, 12),
)
def test_epoly_to_qexp_matches_per_term_reference(terms, cancel, order):
    if cancel is not None:
        # iei(e4) + 1/240 iei(e0) has no q^0 T term: that coefficient cancels
        terms[(4,)] = cancel
        terms[(0,)] = cancel.scale(F(1, 240))
    x = EPoly(terms)
    got = epoly_to_qexp(x, order)
    assert got == reference_epoly_to_qexp(x, order)
    assert got.order == order
    assert all(m < order and not c.is_zero() for (m, _), c in got.coeffs.items())


def test_epoly_to_qexp_drops_cancelled_coefficients():
    c = CoeffElem({MzvMonomial(1, ("z3",)): F(2, 3), MzvMonomial(0, ()): 5})
    x = EPoly.word((4,), c) + EPoly.word((0,), c.scale(F(1, 240)))
    for order in (1, 2, 6):
        got = epoly_to_qexp(x, order)
        assert got == reference_epoly_to_qexp(x, order)
        assert (0, 1) not in got.coeffs
    assert epoly_to_qexp(x, 1).is_zero()


def test_epoly_to_qexp_builds_no_coefficient(monkeypatch):
    # the polynomial's slices are the combination's scalars as they are: no
    # container's coefficients are built, cold integrals or warm
    from emzv import coeffring, eisalg, ncalg, qseries
    from emzv.decomp import decompose

    calls = []
    real = coeffring.build_slices
    for module in (coeffring, eisalg, ncalg, qseries):
        monkeypatch.setattr(module, "build_slices", lambda s: calls.append(1) or real(s))
    table = shipped_table()
    polys = [shuffle_words(u, v) for u in ((0,), (2, 4)) for v in ((4,), (0, 6))]
    polys += [decompose(idx, table).epoly for idx in ((0, 1, 0, 0), (2, 0, 1), (3, 0))]
    calls.clear()
    for x in polys:
        for order in (3, 9):
            _iei_cache.clear()
            cold = epoly_to_qexp(x, order)
            assert epoly_to_qexp(x, order) == cold
    assert calls == []
    for x in polys:  # the per-term reference, which reads items(), builds them
        assert epoly_to_qexp(x, 9) == reference_epoly_to_qexp(x, 9)
    assert calls


def _reference_antider(f):
    """The per-term back-substitution that the integer one in qseries replaced."""
    acc = {}
    by_m = {}
    for (m, j), c in f.coeffs.items():
        by_m.setdefault(m, {})[j] = c
    for m, prof in by_m.items():
        if m == 0:
            for j, c in prof.items():
                acc[(0, j + 1)] = c.scale(F(1, j + 1))
            continue
        p_next = CoeffElem.zero()
        for j in range(max(prof), -1, -1):
            p_j = (prof.get(j, CoeffElem.zero()) - p_next.scale(j + 1)).scale(F(1, m))
            if not p_j.is_zero():
                acc[(m, j)] = p_j
            p_next = p_j
    return QTSeries(f.order, acc)


def test_iei_matches_uncached_recursion():
    # every even word with letters <= 8 and length <= 3, at order 12, against
    # the recursion on plain series that the sliced cache replaced
    order = 12
    ref = {(): QTSeries.constant(1, order)}
    for n in range(1, 4):
        for w in itertools.product((0, 2, 4, 6, 8), repeat=n):
            e = eisenstein_qexp(w[0], order)
            ref[w] = _reference_antider(qt_mul(-e, ref[w[1:]]))
    for w, want in ref.items():
        got = iei_qexp(w, order)
        assert got == want, w
        assert canonical_slices(_iei_cache[(w, order)].slices()) == canonical_slices(want.slices())
    assert len(ref) == 156


def test_prepend_and_without_constant_match_the_validating_constructor():
    x = EPoly(
        {
            (): CoeffElem.one(),
            (2,): CoeffElem.symbol("z3"),
            (4, 0): CoeffElem.from_rational(F(-1, 3)),
        }
    )
    for letter in (0, 2, 6):
        assert x.prepend(letter) == EPoly({(letter,) + w: c for w, c in x.items()})
    assert x.prepend(3) == EPoly.zero() == x.prepend(5)
    for letter in (-1, -2):
        with pytest.raises(ValueError):
            x.prepend(letter)
    assert x.without_constant() == EPoly({w: c for w, c in x.items() if w})
    assert x.without_constant().constant_term().is_zero()
    assert EPoly.constant(2).without_constant() == EPoly.zero()
