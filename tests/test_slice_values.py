"""Values that live on their integer slices.

Every container holds only its slices and builds its coefficients on each
read.  The producers and the linear structure are compared with the code
they replaced, which built every coefficient at once; equality on slices is
compared with equality on coefficients.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emzv.coeffring import (
    CoeffElem,
    CoeffMap,
    MzvMonomial,
    _graded,
    _over_common,
    accumulate,
    build_coeffs,
    canonical_slices,
    coeff_mul,
    convolve,
    dump_mzv_table,
    graded_slices,
    integer_slices,
    lincomb,
    loads_mzv_table,
    memoized,
    normalise,
    rational_lincomb,
    shipped_table,
    split_lincomb,
)
from emzv.decomp import decompose, diffeq_expand, find_emzv_relations
from emzv.eisalg import EPoly, eisenstein_qexp, has_odd_letter, iei_qexp
from emzv.errors import DegreeMismatch, PreconditionViolated, TableOverflow
from emzv.linalg import RatMatrix, kernel_basis
from emzv.ncalg import (
    NCSeries,
    build_Ainf,
    build_phi,
    extract_gamma,
    nc_exp,
    nc_inv,
    nc_mul,
    shuffle_regularize,
)
from emzv.qseries import QTSeries, qt_antider, qt_mul, qt_split_lincomb
from emzv.words import graded_words

F = Fraction
_SHIFT = 32
_T_MASK = (1 << _SHIFT) - 1


# ---------------------------------------------------------------------------
# The coefficient-built producers the slice-native ones replaced, kept as
# references.  Each slices its operands from their coefficients and builds
# every output coefficient at once.


def reference_from_clean(cls, shape, coeffs):
    """Adopt a dict that obeys the key rule and holds no zero coefficient,
    unvalidated: the old constructor of computed results, which now only
    slices the dict."""
    return cls._from_slices(shape, cls.zero(shape)._slice(coeffs))


def reference_add(x, y):
    """The linear structure on coefficients that + replaced."""
    if x.shape != y.shape:
        raise DegreeMismatch(f"truncation {x.shape} != {y.shape}")
    return reference_from_clean(type(x), x.shape, accumulate(dict(x.coeffs), y.coeffs.items()))


def reference_neg(x):
    return reference_from_clean(type(x), x.shape, {k: -c for k, c in x.coeffs.items()})


def reference_scale(x, c, table=None):
    if isinstance(c, CoeffElem):
        if not c.is_rational():
            d = {k: coeff_mul(v, c, table) for k, v in x.coeffs.items()}
            return reference_from_clean(type(x), x.shape, d)
        c = c.rational_part()
    if not c:
        return type(x).zero(x.shape)
    return reference_from_clean(type(x), x.shape, {k: v.scale(c) for k, v in x.coeffs.items()})


def _nc_rule(s):
    return graded_slices(s.coeffs.items(), len)


def _qt_rule(s):
    return graded_slices(((m << _SHIFT | j, c) for (m, j), c in s.coeffs.items()), lambda k: k >> _SHIFT)


def reference_normalise(cells, grade):
    out = {}
    for rho, den, sums in _over_common(cells):
        buckets = _graded(sums.items(), grade)
        if buckets:
            out[rho] = (den, buckets)
    return out


def reference_build_cells(cells):
    out = {}
    for rho, den, sums in _over_common(cells):
        for k, n in sums.items():
            if n:
                out.setdefault(k, {})[rho] = F(n, den)
    return build_coeffs(out)


def reference_nc_mul(x, y, table=None):
    if x.maxdeg != y.maxdeg:
        raise DegreeMismatch(f"maxdeg {x.maxdeg} != {y.maxdeg}")
    cells = convolve(_nc_rule(x), _nc_rule(y), x.maxdeg, table)
    return reference_from_clean(NCSeries, x.maxdeg, reference_build_cells(cells))


def reference_nc_exp(x, table=None):
    if not x.constant_term().is_zero():
        raise PreconditionViolated("nc_exp needs zero constant term")
    acc = NCSeries.one(x.maxdeg)
    power = NCSeries.one(x.maxdeg)
    for n in range(1, x.maxdeg + 1):
        power = reference_nc_mul(power, x, table).scale(F(1, n))
        if power.is_zero():
            break
        acc = acc + power
    return acc


def reference_nc_inv(x, table=None):
    if x.constant_term() != CoeffElem.one():
        raise PreconditionViolated("nc_inv needs constant term 1")
    u = NCSeries.one(x.maxdeg) - x
    acc = NCSeries.one(x.maxdeg)
    power = NCSeries.one(x.maxdeg)
    for _ in range(x.maxdeg):
        power = reference_nc_mul(power, u, table)
        if power.is_zero():
            break
        acc = acc + power
    return acc


def reference_build_phi(x, y, D, table):
    """The same walk, with Phi's coefficients built at the end."""
    big = D + 1
    mindeg = {0: x.min_degree() or big, 1: y.min_degree() or big}
    arg = {0: _nc_rule(x), 1: _nc_rule(y)}
    root = {MzvMonomial(0, ()): (1, [(0, [("", 1)])])}
    terms = [(CoeffElem.one(), root)]

    def visit(word, node, degree_floor):
        if word:
            c = shuffle_regularize("".join("BA"[l] for l in reversed(word)), table)
            if not c.is_zero():
                terms.append((-c if sum(word) % 2 else c, node))
        for l in (0, 1):
            nd = degree_floor + mindeg[l]
            if nd <= D:
                nxt = reference_normalise(convolve(node, arg[l], D, table), len)
                if nxt:
                    visit(word + (l,), nxt, nd)

    visit((), root, 0)
    return reference_from_clean(NCSeries, D, reference_build_cells(lincomb(terms, D, table)))


def reference_qt_from_cells(cells, order):
    coeffs = reference_build_cells(cells)
    decoded = {(k >> _SHIFT, k & _T_MASK): c for k, c in coeffs.items()}
    return reference_from_clean(QTSeries, order, decoded)


def reference_qt_mul(f, g, table=None):
    order = min(f.order, g.order)
    return reference_qt_from_cells(convolve(_qt_rule(f), _qt_rule(g), order - 1, table), order)


def reference_qt_lincomb(pairs, order, table=None):
    sliced = ((c, _qt_rule(f)) for c, f in pairs)
    return reference_qt_from_cells(lincomb(sliced, order - 1, table), order)


def reference_qt_antider(f):
    out = {}
    for mu, (den, buckets) in _qt_rule(f).items():
        for m, terms in buckets:
            prof = {k & _T_MASK: n for k, n in terms}
            if m == 0:
                for j, n in prof.items():
                    out.setdefault((0, j + 1), {})[mu] = F(n, den * (j + 1))
                continue
            big, power = 0, 1
            for j in range(max(prof), -1, -1):
                big = prof.get(j, 0) * power - (j + 1) * big
                if big:
                    out.setdefault((m, j), {})[mu] = F(big, den * power * m)
                power *= m
    return reference_from_clean(QTSeries, f.order, build_coeffs(out))


def reference_iei_qexp(word, order, cache):
    def compute():
        if not word:
            return QTSeries.constant(1, order)
        if has_odd_letter(word):
            return QTSeries.zero(order)
        minus_e = -eisenstein_qexp(word[0], order)
        tail = reference_iei_qexp(word[1:], order, cache)
        cells = convolve(_qt_rule(minus_e), _qt_rule(tail), order - 1, None)
        return reference_qt_antider(reference_qt_from_cells(cells, order))

    return memoized(cache, word, compute)


# ---------------------------------------------------------------------------
# Strategies and comparison


_MONOMIALS = (
    MzvMonomial(0, ()),
    MzvMonomial(2, ()),
    MzvMonomial(0, ("z3",)),
    MzvMonomial(1, ("z3",)),
    MzvMonomial(0, ("z5",)),
    MzvMonomial(0, ("z7",)),
)
_RATIONAL = st.fractions(min_value=-6, max_value=6, max_denominator=12)


def _coeffs(monomials=_MONOMIALS):
    return st.dictionaries(st.sampled_from(monomials), _RATIONAL, min_size=1, max_size=3).map(
        CoeffElem
    )


_NC_WORDS = ["a", "b", "ab", "ba", "bb", "aab", "bab", "abba"]


def _nc_series(maxdeg, monomials=_MONOMIALS, constant=False):
    words = _NC_WORDS + ([""] if constant else [])
    return st.dictionaries(st.sampled_from(words), _coeffs(monomials), max_size=6).map(
        lambda d: NCSeries(maxdeg, d)
    )


def _qt_series(order, monomials=_MONOMIALS):
    keys = st.tuples(st.integers(0, order + 1), st.integers(0, 3))
    return st.dictionaries(keys, _coeffs(monomials), max_size=6).map(lambda d: QTSeries(order, d))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (TableOverflow, PreconditionViolated, DegreeMismatch) as exc:
        return type(exc)


def _is_reduced(slices):
    return all(
        math.gcd(den, *(n for _, t in buckets for _, n in t)) == 1
        for den, buckets in slices.values()
    )


def assert_same_value(got, want):
    """got's coefficients are want's, and its slices are the gcd-reduced
    slices of want's coefficients."""
    if isinstance(want, type):
        assert got is want
        return
    assert type(got) is type(want)
    rule = _qt_rule if isinstance(want, QTSeries) else _nc_rule  # words, e-words: by length
    assert _is_reduced(got.slices())
    assert canonical_slices(got.slices()) == canonical_slices(rule(want))
    assert got == want
    assert got.shape == want.shape and got.coeffs == want.coeffs


# ---------------------------------------------------------------------------
# Producers against their references


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 5).flatmap(lambda D: st.tuples(_nc_series(D, constant=True), _nc_series(D))),
    st.booleans(),
)
def test_nc_mul_matches_reference(pair, with_table):
    x, y = pair
    table = shipped_table() if with_table else None
    assert_same_value(_outcome(nc_mul, x, y, table), _outcome(reference_nc_mul, x, y, table))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5).flatmap(_nc_series), st.booleans())
def test_nc_exp_matches_reference(x, with_table):
    table = shipped_table() if with_table else None
    assert_same_value(_outcome(nc_exp, x, table), _outcome(reference_nc_exp, x, table))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5).flatmap(_nc_series), st.booleans())
def test_nc_inv_matches_reference(u, with_table):
    table = shipped_table() if with_table else None
    x = NCSeries.one(u.maxdeg) + u
    assert_same_value(_outcome(nc_inv, x, table), _outcome(reference_nc_inv, x, table))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2, 3, 4, 5]).flatmap(lambda D: st.tuples(_nc_series(D), _nc_series(D))))
def test_build_phi_matches_reference(pair):
    x, y = pair
    D = x.maxdeg
    table = shipped_table()
    assert_same_value(
        _outcome(build_phi, x, y, D, table), _outcome(reference_build_phi, x, y, D, table)
    )


def test_precondition_violations_match_reference():
    x = NCSeries(3, {"": CoeffElem.from_rational(2), "a": CoeffElem.one()})
    for ours, ref in ((nc_exp, reference_nc_exp), (nc_inv, reference_nc_inv)):
        assert _outcome(ours, x) is _outcome(ref, x) is PreconditionViolated


@settings(max_examples=60, deadline=None)
@given(_qt_series(7), _qt_series(5), st.booleans())
def test_qt_mul_matches_reference(f, g, with_table):
    table = shipped_table() if with_table else None
    assert_same_value(_outcome(qt_mul, f, g, table), _outcome(reference_qt_mul, f, g, table))


def split_qt_lincomb(pairs, order, table=None):
    """sum c * f on scalars split by integer_slices, as epoly_to_qexp passes
    its polynomial's slices: qt_split_lincomb without a table, and
    coeffring.split_lincomb (which build_phi calls) with one."""
    pairs = list(pairs)
    scalars = integer_slices(enumerate(c for c, _ in pairs))
    series = [f.slices() for _, f in pairs]
    if table is None:
        return qt_split_lincomb(scalars, series, order)
    cells = split_lincomb(scalars, series, order - 1, table)
    return QTSeries._from_slices(order, normalise(cells, lambda k: k >> _SHIFT))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_coeffs(), _qt_series(6)), max_size=4), st.booleans())
def test_qt_split_lincomb_matches_reference(pairs, with_table):
    table = shipped_table() if with_table else None
    assert_same_value(
        _outcome(split_qt_lincomb, pairs, 6, table),
        _outcome(reference_qt_lincomb, pairs, 6, table),
    )


@settings(max_examples=60, deadline=None)
@given(_qt_series(8))
def test_qt_antider_matches_reference(f):
    assert_same_value(qt_antider(f), reference_qt_antider(f))


@pytest.mark.parametrize("order", [6, 13])
def test_iei_qexp_matches_reference(order):
    cache = {}
    words = [(), (0,), (4,), (3, 2), (2, 0), (0, 4, 0), (6, 2, 4), (2, 2, 0, 4), (8, 0, 0, 0)]
    for w in words:
        got, want = iei_qexp(w, order), reference_iei_qexp(w, order, cache)
        assert got == want, w
        assert canonical_slices(got.slices()) == canonical_slices(_qt_rule(want)), w


# ---------------------------------------------------------------------------
# Equality on slices


def _sliced_copy(s):
    rule = _nc_rule if isinstance(s, NCSeries) else _qt_rule
    return type(s)._from_slices(s.shape, rule(s))


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        st.tuples(_nc_series(4, constant=True), _nc_series(4, constant=True)),
        st.tuples(_qt_series(5), _qt_series(5)),
    ),
    st.integers(2, 6),
)
def test_slice_equality_agrees_with_coefficient_equality(pair, k):
    x, y = pair
    x_apart = type(x)(x.shape, dict(reversed(list(x.coeffs.items()))))  # its terms in another order
    for a, b in ((x, y), (x, x_apart), (y, y)):
        want = a.coeffs == b.coeffs
        sa, sb = _sliced_copy(a), _sliced_copy(b)
        assert (sa == sb) is want and (sb == sa) is want
        assert (sa == b) is want and (a == sb) is want
    sx = _sliced_copy(x)
    # a non-reduced denominator: every numerator and the denominator times k
    scaled = type(x)._from_slices(
        x.shape,
        {
            mono: (den * k, [(g, [(key, n * k) for key, n in t]) for g, t in buckets])
            for mono, (den, buckets) in sx.slices().items()
        },
    )
    assert scaled == sx and sx == scaled
    assert scaled.coeffs == x.coeffs
    # negative control: one numerator changed
    if x:
        (mono, (den, buckets)), *rest = sx.slices().items()
        (g, ((key, n), *others)), *higher = buckets
        changed = {mono: (den, [(g, [(key, 2 * n), *others]), *higher]), **dict(rest)}
        other = type(x)._from_slices(x.shape, changed)
        assert other != sx and sx != other
        assert other.coeffs != x.coeffs


def test_slice_equality_needs_equal_shapes():
    x = NCSeries(3, {"a": CoeffElem.one()})
    assert _sliced_copy(x) != _sliced_copy(NCSeries(4, x.coeffs))
    assert not _sliced_copy(NCSeries.zero(3))
    assert _sliced_copy(x) and not _sliced_copy(x).is_zero()


# ---------------------------------------------------------------------------
# A smaller build of the limit series


def test_truncation_keeps_the_buckets_up_to_the_degree():
    # a smaller build after a larger one on the same table has the larger
    # one's words up to its degree, and equals a build on a fresh table
    source = dump_mzv_table(shipped_table())
    table = loads_mzv_table(source)
    full = build_Ainf(8, table)
    small = build_Ainf(6, table)
    assert all(max(g for g, _ in buckets) <= 6 for _, buckets in small.slices().values())
    assert small == build_Ainf(6, loads_mzv_table(source))
    assert small.coeffs == {w: c for w, c in full.coeffs.items() if len(w) <= 6}


# ---------------------------------------------------------------------------
# E-word polynomials on slices
#
# EPoly's +, -, scale and prepend compute on slices graded by e-word length;
# the references are the coefficient versions they replaced: the linear
# structure on coefficients above, and prepend as a key map on coefficients.

_EWORDS = [(), (0,), (2,), (3,), (0, 4), (4, 0), (2, 2), (1, 2), (0, 0, 4), (6, 2, 0)]


def _epoly(monomials=_MONOMIALS):
    return st.dictionaries(st.sampled_from(_EWORDS), _coeffs(monomials), max_size=6).map(EPoly)


def reference_prepend(x, letter):
    if letter < 0:
        raise ValueError("negative letter")
    if letter % 2:
        return EPoly.zero()
    return reference_from_clean(EPoly, None, {(letter,) + w: c for w, c in x.coeffs.items()})


@settings(max_examples=80, deadline=None)
@given(_epoly(), _epoly())
def test_epoly_linear_structure_matches_coefficients(x, y):
    assert_same_value(x + y, reference_add(x, y))
    assert_same_value(x - y, reference_add(x, reference_neg(y)))
    assert_same_value(-x, reference_neg(x))
    # operands that are results of the operations themselves
    sx, sy = x + EPoly.zero(), -y
    assert_same_value(sx + sy, reference_add(x, reference_neg(y)))
    assert_same_value(sx - sx, EPoly.zero())


@settings(max_examples=80, deadline=None)
@given(_epoly(), st.one_of(_RATIONAL, st.integers(-7, 7)), st.booleans())
def test_epoly_rational_scale_matches_coefficients(x, q, as_coeff):
    c = CoeffElem.from_rational(q) if as_coeff else q
    want = reference_scale(x, c)
    assert_same_value(x.scale(c), want)
    assert_same_value((x + x).scale(c), reference_scale(reference_add(x, x), c))


@settings(max_examples=60, deadline=None)
@given(_epoly(), _coeffs(), st.booleans())
def test_epoly_symbol_scale_matches_coefficients(x, c, with_table):
    # a symbol-bearing scalar multiplies through the table's monomial product
    # and raises TableOverflow exactly when the coefficient version does
    table = shipped_table() if with_table else None
    assert_same_value(_outcome(EPoly.scale, x, c, table), _outcome(reference_scale, x, c, table))


def _container(kind):
    """A value of the kind; the two truncated kinds draw one of two shapes."""
    if kind is EPoly:
        return _epoly()
    make = _qt_series if kind is QTSeries else lambda n: _nc_series(n, constant=True)
    return st.sampled_from([4, 5]).flatmap(make)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([NCSeries, QTSeries, EPoly]).flatmap(
        lambda kind: st.tuples(_container(kind), _container(kind))
    ),
    _RATIONAL,
    _coeffs(),
    st.booleans(),
)
def test_linear_structure_matches_coefficient_references(pair, q, c, with_table):
    # +, -, a rational scale and a symbol-bearing scale on slices, for all
    # three containers, against the linear structure on coefficients they
    # replaced: equal values, or the same DegreeMismatch (shapes that
    # differ) or TableOverflow (a symbol product beyond the table's cap)
    x, y = pair
    table = shipped_table() if with_table else None
    for got, want in (
        (_outcome(lambda: x + y), _outcome(reference_add, x, y)),
        (_outcome(lambda: x - y), _outcome(lambda: reference_add(x, reference_neg(y)))),
        (-x, reference_neg(x)),
        (x.scale(q), reference_scale(x, q)),
        (x.scale(CoeffElem.from_rational(q), table), reference_scale(x, q)),
        (_outcome(x.scale, c, table), _outcome(reference_scale, x, c, table)),
    ):
        assert_same_value(got, want)


@settings(max_examples=80, deadline=None)
@given(_epoly(), st.integers(-2, 9))
def test_epoly_prepend_matches_coefficients(x, letter):
    if letter < 0:
        for fn in (x.prepend, lambda k: reference_prepend(x, k)):
            with pytest.raises(ValueError):
                fn(letter)
        return
    got, want = x.prepend(letter), reference_prepend(x, letter)
    assert_same_value(got, want)
    assert_same_value(got.prepend(0), reference_prepend(want, 0))


def reference_rational_lincomb(pairs):
    """The two-pass combination that the one-pass rational_lincomb
    replaced: cells per (monomial, den * b), then normalise, which lifts
    them over their lcm and regrades every term."""
    cells = {}
    for q, slices in pairs:
        a, b = q.as_integer_ratio()
        for mono, (den, buckets) in slices.items():
            cell = cells.setdefault(mono, {}).setdefault(den * b, {})
            for _, terms in buckets:
                for k, n in terms:
                    cell[k] = cell.get(k, 0) + a * n
    return normalise(cells, len)


def _slice_form(slices):
    """Slices with each bucket's terms as a dict: equal exactly when the
    denominators, the grades and every numerator agree."""
    return {mono: (den, [(g, dict(t)) for g, t in buckets]) for mono, (den, buckets) in slices.items()}


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.one_of(_RATIONAL, st.integers(-7, 7)), _epoly()), max_size=5),
    st.sampled_from(["none", "all", "first"]),
)
def test_one_pass_rational_lincomb_matches_normalised_cells(pairs, cancel):
    # cancellation: every pair again with -q (the sum is zero), or the first
    # pair's value again with -q (a part of the sum cancels)
    if cancel == "all":
        pairs = pairs + [(-q, x) for q, x in pairs]
    elif cancel == "first" and pairs:
        q, x = pairs[0]
        pairs = pairs + [(-q, x + EPoly.zero())]
    sliced = [(q, x.slices()) for q, x in pairs]
    got = rational_lincomb(sliced)
    assert _slice_form(got) == _slice_form(reference_rational_lincomb(sliced))
    assert _is_reduced(got)
    for den, buckets in got.values():
        assert buckets and all(t and all(len(k) == g and n for k, n in t) for g, t in buckets)
    if cancel == "all":
        assert got == {}
    want = EPoly.zero()
    for q, x in pairs:
        want = reference_add(want, reference_scale(x, q))
    assert_same_value(EPoly.combination(pairs), want)


def reference_add_slices(x, y):
    """x + y as the linear structure computed it before rational_lincomb
    took it over: a monomial of one operand keeps its slice, one of both is
    brought over the lcm of the two denominators, merged by grade, zeros
    dropped, and reduced by the gcd."""
    out = dict(x)
    for mono, (den_y, buckets_y) in y.items():
        mine = out.get(mono)
        if mine is None:
            out[mono] = (den_y, buckets_y)
            continue
        den_x, buckets_x = mine
        den = math.lcm(den_x, den_y)
        by_grade = {}
        for lift, buckets in ((den // den_x, buckets_x), (den // den_y, buckets_y)):
            for g, terms in buckets:
                sums = by_grade.setdefault(g, {})
                for k, n in terms:
                    sums[k] = sums.get(k, 0) + n * lift
        merged = []
        for g in sorted(by_grade):
            terms = [(k, n) for k, n in by_grade[g].items() if n]
            if terms:
                merged.append((g, terms))
        if merged:
            g = math.gcd(den, *(n for _, terms in merged for _, n in terms))
            out[mono] = (den // g, [(d, [(k, n // g) for k, n in t]) for d, t in merged])
        else:
            del out[mono]
    return out


def reference_scale_slices(slices, q):
    """The slices times a rational q = a / b as the linear structure scaled
    them before rational_lincomb: numerators times a, denominators times b,
    and zero for q = 0."""
    if not q:
        return {}
    a, b = q.as_integer_ratio()
    out = {}
    for mono, (den, buckets) in slices.items():
        g = math.gcd(a, den)
        h = math.gcd(b, *(n for _, terms in buckets for _, n in terms)) if b > 1 else 1
        num, den = a // g, den // g * (b // h)
        out[mono] = (den, [(d, [(k, n // h * num) for k, n in terms]) for d, terms in buckets])
    return out


def _same_shape_pair(kind):
    if kind is EPoly:
        return st.tuples(_epoly(), _epoly())
    make = _qt_series if kind is QTSeries else lambda n: _nc_series(n, constant=True)
    return st.sampled_from([4, 5]).flatmap(lambda n: st.tuples(make(n), make(n)))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([NCSeries, QTSeries, EPoly]).flatmap(_same_shape_pair),
    st.one_of(_RATIONAL, st.integers(-7, 7)),
    st.integers(2, 6),
)
def test_linear_structure_matches_the_slice_kernels_it_replaced(pair, q, k):
    # +, -, unary - and a rational scale, each now one rational_lincomb,
    # give the slices of add_slices and scale_slices term for term, on
    # gcd-reduced operands and on results of the operations
    x, y = pair
    for a, b in ((x, y), (x + y, x), (y, y), (x, -x)):
        sa, sb = a.slices(), b.slices()
        for got, want in (
            (a + b, reference_add_slices(sa, sb)),
            (a - b, reference_add_slices(sa, reference_scale_slices(sb, -1))),
            (-a, reference_scale_slices(sa, -1)),
            (a.scale(q), reference_scale_slices(sa, q)),
        ):
            assert _slice_form(got.slices()) == _slice_form(want)
    # an operand that is not gcd-reduced (numerators and denominator times
    # k) gives the same values
    loose = type(x)._from_slices(
        x.shape,
        {
            mono: (den * k, [(g, [(key, n * k) for key, n in t]) for g, t in buckets])
            for mono, (den, buckets) in x.slices().items()
        },
    )
    sl, sy = loose.slices(), y.slices()
    for got, want in (
        (loose + y, reference_add_slices(sl, sy)),
        (y - loose, reference_add_slices(sy, reference_scale_slices(sl, -1))),
        (-loose, reference_scale_slices(sl, -1)),
        (loose.scale(q), reference_scale_slices(sl, q)),
    ):
        assert canonical_slices(got.slices()) == canonical_slices(want)


def test_a_monomial_one_pair_carries_with_q_one_keeps_its_slice():
    z3, pi2, one = MzvMonomial(0, ("z3",)), MzvMonomial(2, ()), MzvMonomial(0, ())
    x = EPoly({(2,): CoeffElem.symbol("z3", F(1, 2)), (4,): CoeffElem.one()})
    y = EPoly({(2,): CoeffElem.pi_pow(2, 3), (0, 4): CoeffElem.from_rational(F(2, 3))})
    sx, sy = x.slices(), y.slices()
    total = (x + y).slices()
    assert total[z3] is sx[z3] and total[pi2] is sy[pi2]
    assert total[one] is not sx[one] and total[one] is not sy[one]  # both carry 1
    # a pair with q = 0 carries nothing; a q other than 1 rebuilds the slice
    got = rational_lincomb([(0, sy), (1, sx), (F(1, 2), sy)])
    assert got[z3] is sx[z3] and got[pi2] is not sy[pi2]
    assert rational_lincomb([(1, sx), (0, sx)])[z3] is sx[z3]
    # the operand's own slices are left as they were
    assert x == EPoly({(2,): CoeffElem.symbol("z3", F(1, 2)), (4,): CoeffElem.one()})


# ---------------------------------------------------------------------------
# The length recursion and the relation kernel on slices


def reference_decompose(index, table, memo):
    """The per-term assembly the sliced recursion replaced, on coefficients:
    psi(I) = gamma_I + sum over the recursion's terms of -alpha times the
    sub-index's image with the letter prepended."""
    if index not in memo:
        if len(index) < 2:
            memo[index] = decompose(index, table).epoly.coeffs
        else:
            acc = EPoly.constant(extract_gamma(index, table))
            for term in diffeq_expand(index):
                sub = EPoly(reference_decompose(term.sub_index, table, memo))
                part = reference_scale(reference_prepend(sub, term.eis_weight), -term.coeff)
                acc = reference_add(acc, part)
            memo[index] = acc.coeffs
    return memo[index]


def test_sliced_recursion_matches_per_term_assembly():
    table = loads_mzv_table(dump_mzv_table(shipped_table()))
    memo = {}
    indices = [idx for d in range(10) for n in range(d + 1) for idx in graded_words(n, d - n)]
    assert len(indices) == 512
    for idx in indices:
        got = decompose(idx, table).epoly
        assert got.coeffs == reference_decompose(idx, table, memo), idx
        if len(idx) >= 2:
            assert _is_reduced(got.slices()), idx


def reference_find_emzv_relations(indices, table):
    polys = [decompose(i, table).epoly for i in indices]
    rows = {}
    for j, p in enumerate(polys):
        for w, c in p.items():
            for mono, q in c.items():
                rows.setdefault((w, mono), [0] * len(polys))[j] = q
    mat = RatMatrix(len(rows), len(polys), tuple(q for row in rows.values() for q in row))
    return kernel_basis(mat)


@pytest.mark.parametrize("length, weight", [(2, 4), (3, 3), (3, 5), (4, 4), (2, 7)])
def test_relation_rows_are_read_from_slices(monkeypatch, length, weight):
    table = shipped_table()
    family = graded_words(length, weight)
    want = reference_find_emzv_relations(family, table)
    built = []
    real_build = EPoly._build
    monkeypatch.setattr(EPoly, "_build", lambda s: built.append(s) or real_build(s))
    assert find_emzv_relations(family, table) == want
    assert built == []


# ---------------------------------------------------------------------------
# One stored form: a value holds only its slices, and coefficients are
# built from them on each read


def test_values_hold_only_their_slices():
    assert CoeffMap.__slots__ == ("shape", "_sliced")
    for cls in (NCSeries, QTSeries, EPoly):
        assert cls.__slots__ == ()
    x = EPoly.word((2, 0), F(1, 3))
    assert not hasattr(x, "__dict__")
    assert x.coeffs == x.coeffs and x.coeffs is not x.coeffs


@pytest.mark.parametrize(
    "x, key",
    [
        (EPoly.word((2,), 1), (4,)),
        (EPoly.word((2,), 1), (3,)),  # an odd e-word, outside the key rule
        (EPoly.zero(), ()),
        (NCSeries.letter("a", 3), "b"),
        (NCSeries.letter("a", 3), "abab"),  # beyond the truncation
        (QTSeries.constant(F(1, 2), 4), (1, 0)),
    ],
    ids=["epoly", "epoly-odd-word", "epoly-zero", "nc", "nc-beyond-degree", "qt"],
)
def test_writing_into_coeffs_leaves_the_value(x, key):
    zero = type(x).zero(x.shape)
    text, copy = str(x), x + zero
    x.coeffs[key] = CoeffElem.one()
    read = x.coeffs
    read[key] = CoeffElem.one()
    assert str(x) == text
    assert x == copy and copy == x and x + zero == copy
    assert key not in x.coeffs and bool(x) is bool(copy)


def _count_builds(monkeypatch):
    built = []
    for cls in (EPoly, NCSeries, QTSeries):
        real = cls._build
        monkeypatch.setattr(cls, "_build", lambda s, real=real: built.append(s) or real(s))
    return built


def test_readers_build_the_coefficients_once(monkeypatch):
    table = shipped_table()
    epoly = decompose((2, 0, 0), table).epoly
    series = build_Ainf(4, table)
    qexp = iei_qexp((4, 0), 8)
    t_free = qt_mul(eisenstein_qexp(4, 8), eisenstein_qexp(6, 8))
    built = _count_builds(monkeypatch)
    for value, read in (
        (epoly, str),
        (series, str),
        (qexp, lambda q: list(q.terms())),
        (qexp, str),
        (t_free, QTSeries.require_t_free),
    ):
        del built[:]
        read(value)
        assert built == [value], read


def test_rendered_series_holds_no_coefficients():
    # rendering reads the coefficients once and leaves the value as it was:
    # its slices only
    qexp = qt_mul(iei_qexp((2, 0), 10), iei_qexp((4,), 10))
    before = canonical_slices(qexp.slices())
    text = str(qexp)
    rendered = [(m, j, str(c)) for m, j, c in qexp.terms()]
    assert text and rendered
    assert canonical_slices(qexp.slices()) == before
    assert str(qexp) == text
