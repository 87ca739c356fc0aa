from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emzv.coeffring import (
    CoeffElem,
    MzvMonomial,
    coeff_mul,
    graded_slices,
    integer_slices,
    normalise,
    shipped_table,
)
from emzv.coeffring import split_lincomb as split_cells
from emzv.decomp import emzv_qexp
from emzv.eisalg import eisenstein_qexp
from emzv.errors import DegreeMismatch, FourierViolation, TableOverflow
from emzv.qseries import QTSeries, _q_power, qt_antider, qt_ddT, qt_mul

F = Fraction


def series(order, **terms):
    """terms like m0_j0=Fraction: keys 'c<m>_<j>'."""
    coeffs = {}
    for key, val in terms.items():
        m, j = key[1:].split("_")
        coeffs[(int(m), int(j))] = CoeffElem.from_rational(val)
    return QTSeries(order, coeffs)


def test_mul_examples():
    one_plus_q = series(3, c0_0=1, c1_0=1)
    one_minus_q = series(3, c0_0=1, c1_0=-1)
    assert qt_mul(one_plus_q, one_minus_q) == series(3, c0_0=1, c2_0=-1)

    t = series(5, c0_1=1)
    assert qt_mul(t, t) == series(5, c0_2=1)
    q = series(5, c1_0=1)
    assert qt_mul(q, t) == series(5, c1_1=1)


def test_mul_truncates_to_smaller_order():
    f = series(3, c2_0=1)
    g = series(10, c2_0=1)
    p = qt_mul(f, g)
    assert p.order == 3
    assert p.is_zero()


def test_ddT_examples():
    assert qt_ddT(series(4, c0_1=1)) == series(4, c0_0=1)  # T -> 1
    assert qt_ddT(series(4, c1_0=1)) == series(4, c1_0=1)  # q -> q
    # qT -> qT + q
    assert qt_ddT(series(4, c1_1=1)) == series(4, c1_1=1, c1_0=1)


def test_antider_examples():
    assert qt_antider(series(4, c0_0=1)) == series(4, c0_1=1)  # 1 -> T
    assert qt_antider(series(4, c1_0=1)) == series(4, c1_0=1)  # q -> q
    # qT -> qT - q, checked below against the derivative as well
    got = qt_antider(series(4, c1_1=1))
    assert got == series(4, c1_1=1, c1_0=-1)
    assert qt_ddT(got) == series(4, c1_1=1)
    # q T^2 / 3 -> q (T^2 - 2T + 2) / 3, and a symbol coefficient
    f = series(4, c1_2=F(1, 3), c3_0=F(2, 5))
    assert qt_antider(f) == series(4, c1_2=F(1, 3), c1_1=F(-2, 3), c1_0=F(2, 3), c3_0=F(2, 15))
    g = QTSeries(3, {(2, 1): CoeffElem.symbol("z3", F(1, 2)), (0, 0): CoeffElem.pi_pow(1)})
    assert qt_antider(g).coefficient(2, 0) == CoeffElem.symbol("z3", F(-1, 8))
    assert qt_antider(g).coefficient(0, 1) == CoeffElem.pi_pow(1)


def _random_series(max_order=6, max_t=3):
    keys = st.tuples(st.integers(0, max_order - 1), st.integers(0, max_t))
    vals = st.fractions(min_value=-6, max_value=6, max_denominator=8)
    return st.dictionaries(keys, vals, max_size=6).map(
        lambda d: QTSeries(
            max_order, {k: CoeffElem.from_rational(v) for k, v in d.items()}
        )
    )


@settings(max_examples=80, deadline=None)
@given(_random_series())
def test_ddT_then_antider_is_identity(f):
    assert qt_ddT(qt_antider(f)) == f


@settings(max_examples=80, deadline=None)
@given(_random_series())
def test_antider_kills_constant(f):
    p = qt_antider(f)
    assert p.coefficient(0, 0).is_zero()


@settings(max_examples=50, deadline=None)
@given(_random_series(), _random_series())
def test_leibniz(f, g):
    lhs = qt_ddT(qt_mul(f, g))
    rhs = qt_mul(qt_ddT(f), g) + qt_mul(f, qt_ddT(g))
    assert lhs == rhs


def test_t_free_guard():
    ok = series(4, c1_0=2)
    assert ok.is_t_free()
    ok.require_t_free()
    bad = series(4, c1_1=1)
    assert not bad.is_t_free()
    with pytest.raises(FourierViolation):
        bad.require_t_free()


def test_t_checks_build_no_coefficient(monkeypatch):
    # the verdicts read the T powers from the slices: no coefficient is
    # built, on constructed series or computed ones
    from emzv import coeffring, qseries
    from emzv.eisalg import EPoly, epoly_to_qexp

    calls = []
    real = coeffring.build_slices
    for module in (coeffring, qseries):
        monkeypatch.setattr(module, "build_slices", lambda s: calls.append(1) or real(s))
    ok = series(5, c0_0=F(1, 3), c1_0=2, c4_0=-7)
    bad = series(5, c0_0=1, c3_2=F(1, 2), c2_1=5, c4_0=1)
    values = [ok, bad] + [qt_mul(f, g) for f in (ok, bad) for g in (ok, bad)]
    values += [emzv_qexp((0, 1, 0, 0), 6, shipped_table()), epoly_to_qexp(EPoly.word((2,)), 6)]
    calls.clear()
    assert ok.is_t_free() and ok.require_t_free() is ok
    assert not bad.is_t_free()
    with pytest.raises(FourierViolation, match=r"^T term survives at q\^2 T\^1$"):
        bad.require_t_free()
    verdicts = [f.is_t_free() for f in values]
    assert calls == []
    # the verdicts and the first T term read from the built coefficients
    assert verdicts == [all(j == 0 for _, j in f.coeffs) for f in values] == [
        True, False, True, False, False, False, True, False
    ]
    for f in values:
        bad_terms = sorted(k for k in f.coeffs if k[1])
        if bad_terms:
            m, j = bad_terms[0]
            with pytest.raises(FourierViolation, match=rf"at q\^{m} T\^{j}$"):
                f.require_t_free()
    assert calls


def test_rendering_sorted():
    f = series(4, c1_1=1, c0_0=3, c1_0=2)
    assert str(f) == "(3 * 1) + (2 * 1) q + (1 * 1) q T"


def reference_qt_mul(f, g, table=None):
    """The per-term product that the monomial-sliced kernel replaced."""
    order = min(f.order, g.order)
    acc = {}
    for (m1, j1), c1 in f.coeffs.items():
        if m1 >= order:
            continue
        for (m2, j2), c2 in g.coeffs.items():
            m = m1 + m2
            if m >= order:
                continue
            k = (m, j1 + j2)
            p = coeff_mul(c1, c2, table)
            s = acc.get(k, CoeffElem.zero()) + p
            if s.is_zero():
                acc.pop(k, None)
            else:
                acc[k] = s
    return QTSeries(order, acc)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except TableOverflow:
        return TableOverflow


@settings(max_examples=80, deadline=None)
@given(_random_series(max_order=8), _random_series(max_order=5))
def test_mul_matches_reference_on_rational_series(f, g):
    assert qt_mul(f, g) == reference_qt_mul(f, g)
    assert qt_mul(g, f) == reference_qt_mul(g, f)


_MONOMIALS = (
    MzvMonomial(0, ()),
    MzvMonomial(2, ()),
    MzvMonomial(0, ("z3",)),
    MzvMonomial(1, ("z3",)),
    MzvMonomial(0, ("z5",)),
    MzvMonomial(0, ("z3", "z3")),
    MzvMonomial(0, ("z7",)),
)


def _random_symbol_series(order):
    keys = st.tuples(st.integers(0, order - 1), st.integers(0, 2))
    coeff = st.dictionaries(
        st.sampled_from(_MONOMIALS),
        st.fractions(min_value=-6, max_value=6, max_denominator=6),
        min_size=1,
        max_size=3,
    ).map(CoeffElem)
    return st.dictionaries(keys, coeff, max_size=5).map(lambda d: QTSeries(order, d))


@settings(max_examples=80, deadline=None)
@given(_random_symbol_series(6), _random_symbol_series(5), st.booleans())
def test_mul_matches_reference_on_symbol_series(f, g, with_table):
    # equal products, and TableOverflow from exactly the same operands, with
    # the w8 table and with none
    table = shipped_table() if with_table else None
    assert _outcome(qt_mul, f, g, table) == _outcome(reference_qt_mul, f, g, table)


def test_mul_matches_reference_on_recursion_products():
    # the products of the right side of the length recursion, where the
    # constants carry pi z3 and pi^4
    table = shipped_table()
    order = 10
    for idx in ((0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 2, 1), (0, 0, 1, 2)):
        sub = emzv_qexp(idx, order, table)
        assert any(m.symbols for _, _, c in sub.terms() for m, _ in c.items())
        for k in (0, 2, 4, 6):
            eis = eisenstein_qexp(k, order)
            assert qt_mul(eis, sub) == reference_qt_mul(eis, sub)
        assert qt_mul(sub, sub, table) == reference_qt_mul(sub, sub, table)


def test_mul_overflow_parity():
    table = shipped_table()

    def sym(order, *terms):
        return QTSeries(order, {(m, j): CoeffElem.symbol(name) for m, j, name in terms})

    # z5 * z5 has weight 10 > 8: raised only if the two terms meet below the order
    meets = (sym(6, (2, 0, "z5")), sym(6, (3, 1, "z5")))
    for f, g in (meets, meets[::-1]):
        with pytest.raises(TableOverflow):
            reference_qt_mul(f, g, table)
        with pytest.raises(TableOverflow):
            qt_mul(f, g, table)
    # the only meeting lies at m = 6 >= order: no product, no overflow
    apart = (sym(6, (3, 0, "z5"), (0, 0, "z3")), sym(6, (3, 1, "z5"), (1, 0, "z3")))
    assert qt_mul(*apart, table) == reference_qt_mul(*apart, table)
    assert qt_mul(*apart, table).coefficient(1, 0) == CoeffElem(
        {MzvMonomial(0, ("z3", "z3")): 1}
    )
    # the orders differ: the smaller one decides
    short, long = sym(5, (2, 0, "z5")), sym(9, (3, 0, "z5"))
    assert qt_mul(short, long, table) == reference_qt_mul(short, long, table)
    # symbols without any table
    bare = QTSeries(4, {(0, 0): CoeffElem.symbol("z3")})
    with pytest.raises(TableOverflow):
        qt_mul(bare, bare)


def test_scale_by_rational_coeff_matches_coeff_mul():
    f = series(6, c0_0=F(1, 3), c2_1=-2, c5_0=7)
    for q in (F(0), F(-5, 4), F(3)):
        c = CoeffElem.from_rational(q)
        want = QTSeries(f.order, {k: coeff_mul(v, c, None) for k, v in f.coeffs.items()})
        assert f.scale(c) == want


def split_lincomb(pairs, order, table=None):
    """sum c * f on scalars split by integer_slices, through
    coeffring.split_lincomb: without a table as epoly_to_qexp passes its
    polynomial's slices, and with one as build_phi calls it."""
    pairs = list(pairs)
    scalars = integer_slices(enumerate(c for c, _ in pairs))
    series = [f.slices() for _, f in pairs]
    cells = split_cells(scalars, series, order - 1, table)
    return QTSeries._from_slices(order, normalise(cells, _q_power))


def reference_lincomb(pairs, order, table):
    """The per-term accumulation that the linear-combination kernel replaced."""
    acc = QTSeries.zero(order)
    for c, f in pairs:
        acc = acc + f.scale(c, table)
    return acc


_symbol_scalars = st.dictionaries(
    st.sampled_from(_MONOMIALS),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
    max_size=3,
).map(CoeffElem)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(_symbol_scalars, _random_symbol_series(6)), max_size=4),
    st.booleans(),
)
def test_lincomb_matches_reference(pairs, pass_table):
    # equal sums, and TableOverflow from exactly the same operands, with the
    # w8 table and with none
    pairs += [(-c, f) for c, f in pairs[:1]]  # a pair cancelled by its negative
    table = shipped_table() if pass_table else None
    got = _outcome(split_lincomb, pairs, 6, table)
    assert got == _outcome(reference_lincomb, pairs, 6, table)
    if got is not TableOverflow:
        assert got.order == 6
        assert all(m < 6 and not c.is_zero() for (m, _), c in got.coeffs.items())


def test_lincomb_overflow_parity():
    table = shipped_table()
    z3, z5 = CoeffElem.symbol("z3"), CoeffElem.symbol("z5")
    f = QTSeries(6, {(2, 0): z5, (0, 1): CoeffElem.pi_pow(2, F(1, 3))})
    # z5 * z5 has weight 10 > 8
    for lincomb in (split_lincomb, reference_lincomb):
        with pytest.raises(TableOverflow):
            lincomb([(CoeffElem.one(), f), (z5, f)], 6, table)
    # z3 * z5 has weight 8, within the cap
    within = [(z3, f), (CoeffElem.pi_pow(1, -2), f)]
    got = split_lincomb(within, 6, table)
    assert got == reference_lincomb(within, 6, table)
    assert got.coefficient(2, 0) == CoeffElem(
        {MzvMonomial(0, ("z3", "z5")): 1, MzvMonomial(1, ("z5",)): -2}
    )
    assert split_lincomb([], 4, table) == QTSeries.zero(4)


_keys = st.tuples(st.integers(0, 7), st.integers(0, 2))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.dictionaries(_keys, _symbol_scalars, max_size=6))
def test_linear_structure_matches_validating_constructor(order, coeffs):
    # a value adopted from the slices of its clean terms is the constructor's
    want = QTSeries(order, coeffs)
    clean = {k: c for k, c in coeffs.items() if k[0] < order and not c.is_zero()}
    coded = ((m << 32 | j, c) for (m, j), c in clean.items())
    got = QTSeries._from_slices(order, graded_slices(coded, lambda k: k >> 32))
    assert got == want and got.coeffs == want.coeffs
    assert got.order == want.order and str(got) == str(want)
    # the operations that adopt their result build what the constructor would
    table = shipped_table()
    assert -got == QTSeries(order, {k: -c for k, c in coeffs.items()})
    for q in (Fraction(-3, 2), Fraction(0), 5):
        want_q = QTSeries(order, {k: c.scale(q) for k, c in coeffs.items()})
        assert got.scale(q) == want_q
        # a rational CoeffElem scales as its Fraction, with or without a table
        r = CoeffElem.from_rational(q)
        assert got.scale(r) == got.scale(r, table) == want_q
    assert got.scale(CoeffElem.zero(), table) == QTSeries.zero(order)
    mixed = CoeffElem.pi_pow(1, Fraction(-2, 3)) + CoeffElem.one()
    assert got.scale(mixed, table) == QTSeries(
        order, {k: coeff_mul(c, mixed, table) for k, c in coeffs.items()}
    )
    # a key at or above the order is dropped, and its coefficient is zero
    for m, j in coeffs:
        if m >= order:
            assert got.coefficient(m, j) == (got - got).coefficient(m, j) == CoeffElem.zero()
    assert got.coefficient(order, 0).is_zero()


def test_add_of_unequal_orders_raises():
    # the order is part of the value: + and - never truncate to the smaller one
    with pytest.raises(DegreeMismatch):
        QTSeries.zero(4) + QTSeries.zero(6)
    with pytest.raises(DegreeMismatch):
        QTSeries.constant(1, 6) - QTSeries.constant(1, 4)
    # qt_mul keeps its rule: the smaller order decides
    assert qt_mul(QTSeries.constant(2, 4), QTSeries.constant(3, 6)) == QTSeries.constant(6, 4)


def reference_antider(f):
    """The per-term back-substitution on coefficients that the integer one replaced."""
    acc = {}
    by_m = {}
    for (m, j), c in f.coeffs.items():
        by_m.setdefault(m, {})[j] = c
    for m, prof in by_m.items():
        if m == 0:
            for j, c in prof.items():
                acc[(0, j + 1)] = c.scale(Fraction(1, j + 1))
            continue
        top = max(prof)
        p_next = CoeffElem.zero()
        for j in range(top, -1, -1):
            f_j = prof.get(j, CoeffElem.zero())
            p_j = (f_j - p_next.scale(j + 1)).scale(Fraction(1, m))
            if not p_j.is_zero():
                acc[(m, j)] = p_j
            p_next = p_j
    return QTSeries(f.order, acc)


_antider_coeffs = st.dictionaries(
    st.sampled_from(_MONOMIALS + (MzvMonomial(1, ()),)),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    min_size=1,
    max_size=3,
).map(CoeffElem)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 8),
    st.dictionaries(
        st.tuples(st.integers(0, 10), st.integers(0, 4)), _antider_coeffs, max_size=8
    ),
)
def test_antider_matches_per_term_reference(order, coeffs):
    # rational, pi and symbol monomials; keys at or above the order are
    # dropped by the constructor on both sides
    f = QTSeries(order, coeffs)
    got = qt_antider(f)
    assert got == reference_antider(f)
    assert got.order == order
    assert all(m < order and not c.is_zero() for (m, _), c in got.coeffs.items())
    assert qt_ddT(got) == f

