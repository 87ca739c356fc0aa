import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emzv.coeffring import (
    MEMO_LOCK,
    CoeffElem,
    MzvMonomial,
    accumulate,
    bernoulli,
    canonical_slices,
    coeff_mul,
    dump_mzv_table,
    graded_slices,
    integer_slices,
    lincomb,
    loads_mzv_table,
    memoized,
    monomial_mul,
    normalise,
    parse_coeff,
    reduce_even_zeta,
    render_coeff,
    shipped_table,
    split_lincomb,
)
from emzv.eisalg import EPoly, epoly_mul
from emzv.errors import ConsistencyError, ParseError, TableOverflow
from emzv.ncalg import NCSeries, is_grouplike, nc_bracket, nc_exp, nc_inv, nc_mul
from emzv.qseries import QTSeries, qt_mul

F = Fraction


MINIMAL_TABLE = """
format emzv-mzv-table 2
max_weight 3
symbol z3 3
convergent AB = -1/24 * pi^2
convergent ABB = 1 * z3
convergent AAB = 1 * z3
"""


def test_bernoulli_small_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == F(-1, 2)
    assert bernoulli(2) == F(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == F(-1, 30)
    assert bernoulli(12) == F(-691, 2730)


def test_bernoulli_recurrence():
    # sum_{j<m} C(m, j) B_j = 0 for m >= 2
    for m in range(2, 21):
        assert sum(math.comb(m, j) * bernoulli(j) for j in range(m)) == 0


def test_bernoulli_thread_safety():
    from concurrent.futures import ThreadPoolExecutor

    import emzv.coeffring as cr

    cr._bernoulli_cache[:] = [F(1)]
    with ThreadPoolExecutor(max_workers=8) as ex:
        vals = list(ex.map(bernoulli, [40] * 16))
    assert len(set(vals)) == 1
    assert vals[0] == bernoulli(40)


def test_bernoulli_extends_its_memo_outside_the_lock(monkeypatch):
    # every binomial of a cold bernoulli(30) is computed with MEMO_LOCK free
    import emzv.coeffring as cr

    monkeypatch.setattr(cr, "_bernoulli_cache", [F(1)])
    held = []
    comb = math.comb
    monkeypatch.setattr(cr.math, "comb", lambda n, k: held.append(MEMO_LOCK.locked()) or comb(n, k))
    assert bernoulli(30) == F(8615841276005, 14322)
    assert len(held) == 465 and not any(held)
    assert len(cr._bernoulli_cache) == 31


def test_bernoulli_cold_prefix_from_two_threads(monkeypatch):
    # two threads extend the same cold prefix; both read the same values,
    # and the memo keeps one prefix, extended only while it is shorter
    import threading

    import emzv.coeffring as cr

    monkeypatch.setattr(cr, "_bernoulli_cache", [F(1)])
    start = threading.Barrier(2)
    results = {}

    def worker(name, top):
        start.wait()
        results[name] = [bernoulli(m) for m in range(top, -1, -1)][::-1]

    threads = [threading.Thread(target=worker, args=(i, 36)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert results[0] == results[1] == cr._bernoulli_cache
    assert results[0][:5] == [1, F(-1, 2), F(1, 6), 0, F(-1, 30)]
    assert results[0][36] == F(-26315271553053477373, 1919190)


def test_memoized_returns_the_stored_value():
    # compute stores a rival value under the key, as a concurrent caller
    # finishing first would; the call must hand back the stored object
    cache = {}
    rival = ["rival"]

    def compute():
        cache["k"] = rival
        return ["own"]

    assert memoized(cache, "k", compute) is rival
    assert cache == {"k": rival}
    assert memoized(cache, "k", lambda: pytest.fail("recomputed on a hit")) is rival


def test_memoized_concurrent_callers_share_one_object():
    import sys
    import threading

    cache, results = {}, []

    def worker():
        for k in range(200):
            results.append((k, memoized(cache, k, object)))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8 * 200
    assert all(obj is cache[k] for k, obj in results)


def test_reduce_even_zeta():
    assert reduce_even_zeta(2) == CoeffElem.pi_pow(2, F(-1, 24))
    assert reduce_even_zeta(4) == CoeffElem.pi_pow(4, F(1, 1440))
    assert reduce_even_zeta(6) == CoeffElem.pi_pow(6, F(-1, 60480))


def test_coeff_mul_examples():
    # zeta(s) is the word A B^(s-1)
    depth_one = {
        "ABBB": "1/1440 * pi^4",
        "ABBBB": "1 * z5",
        "ABBBBB": "-1/60480 * pi^6",
        "ABBBBBBB": "1/2419200 * pi^8",
    }
    table = loads_mzv_table(MINIMAL_TABLE.replace("max_weight 3", "max_weight 8")
                            + "\n".join(
        [
            "symbol z5 5",
        ]
        + [
            f"convergent {w} = {depth_one.get(w, '0')}"
            for w in _admissible_range(4, 8)
            if w not in ("AB", "ABB", "AAB")
        ]
    ))
    z3 = CoeffElem.symbol("z3")
    z5 = CoeffElem.symbol("z5")
    assert coeff_mul(z3, z3, table) == CoeffElem({MzvMonomial(0, ("z3", "z3")): F(1)})
    pi2 = CoeffElem.pi_pow(2)
    assert coeff_mul(pi2, pi2, table) == CoeffElem.pi_pow(4)
    assert coeff_mul(z3, z5, table) == CoeffElem(
        {MzvMonomial(0, ("z3", "z5")): F(1)}
    )
    with pytest.raises(TableOverflow, match=r"^symbol product of weight 10 exceeds table cap 8$"):
        coeff_mul(z5, z5, table)
    with pytest.raises(
        TableOverflow, match=re.escape("symbol product requires a table: ('z3',) * ('z3',)")
    ):
        coeff_mul(z3, z3, None)
    # pi powers never overflow
    assert coeff_mul(CoeffElem.pi_pow(6), CoeffElem.pi_pow(6), table) == (
        CoeffElem.pi_pow(12)
    )


def _admissible_range(lo, hi):
    from emzv.coeffring import admissible_words

    out = []
    for w in range(lo, hi + 1):
        out.extend(admissible_words(w))
    return out


def _random_coeffs(max_terms=4):
    monos = st.tuples(
        st.integers(min_value=0, max_value=3),
        st.sampled_from([(), ("z3",), ("z3", "z3")]),
    ).map(lambda t: MzvMonomial(*t))
    rats = st.fractions(
        min_value=-5, max_value=5, max_denominator=12
    )
    return st.dictionaries(monos, rats, max_size=max_terms).map(CoeffElem)


@pytest.fixture(scope="module")
def small_table():
    # Direct construction: a roomy cap so random products stay in bounds.
    from emzv.coeffring import MzvTable

    return MzvTable(max_weight=18, symbols={"z3": 3}, convergent_words={})


@settings(max_examples=60, deadline=None)
@given(x=_random_coeffs(), y=_random_coeffs(), z=_random_coeffs())
def test_ring_laws(small_table, x, y, z):
    t = small_table
    assert coeff_mul(x, y, t) == coeff_mul(y, x, t)
    assert coeff_mul(coeff_mul(x, y, t), z, t) == coeff_mul(x, coeff_mul(y, z, t), t)
    assert coeff_mul(x, y + z, t) == coeff_mul(x, y, t) + coeff_mul(x, z, t)


def _weight_split(c, symbol_weights):
    """c as its weight-homogeneous pieces (pi counts weight one)."""
    out = {}
    for mono, q in c.items():
        out.setdefault(mono.weight(symbol_weights), {})[mono] = q
    return {w: CoeffElem(d) for w, d in out.items()}


@settings(max_examples=40, deadline=None)
@given(x=_random_coeffs(), y=_random_coeffs())
def test_weight_grading(small_table, x, y):
    t = small_table
    p = coeff_mul(x, y, t)
    split_x = _weight_split(x, t.symbols)
    split_y = _weight_split(y, t.symbols)
    recompose = CoeffElem.zero()
    by_weight = {}
    for wx, cx in split_x.items():
        for wy, cy in split_y.items():
            piece = coeff_mul(cx, cy, t)
            by_weight[wx + wy] = by_weight.get(wx + wy, CoeffElem.zero()) + piece
    for w, piece in by_weight.items():
        for got_w in piece.weights(t.symbols):
            assert got_w == w
        recompose = recompose + piece
    assert recompose == p


@settings(max_examples=40, deadline=None)
@given(x=_random_coeffs(), y=_random_coeffs())
def test_slices_and_monomial_products_match_coeff_mul(small_table, x, y):
    # the integer slices recompose each coefficient, and the unit-monomial
    # products recompose the full product
    slices = integer_slices([("x", x), ("y", y)])
    for key, c in (("x", x), ("y", y)):
        terms = {
            mono: F(n, den) for mono, (den, pairs) in slices.items() for k, n in pairs if k == key
        }
        assert all(isinstance(n, int) for _, pairs in slices.values() for _, n in pairs)
        assert CoeffElem(terms) == c
    acc = {}
    for mu, p in x.items():
        for nu, q in y.items():
            rho = monomial_mul(mu, nu, small_table)
            acc[rho] = acc.get(rho, 0) + p * q
    assert CoeffElem(acc) == coeff_mul(x, y, small_table)


_SERIES_COEFFS = st.dictionaries(
    st.sampled_from(
        [MzvMonomial(0, ()), MzvMonomial(2, ()), MzvMonomial(0, ("z3",)), MzvMonomial(1, ("z5",))]
    ),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    max_size=3,
).map(CoeffElem)


def _as_cells(slices):
    return {
        mono: {den: {k: n for _, terms in buckets for k, n in terms}}
        for mono, (den, buckets) in slices.items()
    }


@settings(max_examples=60, deadline=None)
@given(
    words=st.dictionaries(st.text("ab", max_size=4), _SERIES_COEFFS, max_size=6),
    qt_terms=st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 3)), _SERIES_COEFFS, max_size=6
    ),
)
def test_slices_round_trip(words, qt_terms):
    # a series' graded slices, built back directly and through lincomb of
    # [(1, slices)], give the series' coefficients again, for both graded
    # algebras
    nc, qt = NCSeries(4, words), QTSeries(6, qt_terms)
    cases = [
        (nc, graded_slices(nc.coeffs.items(), len), len),
        (qt, qt.slices(), lambda k: k >> 32),
    ]
    for series, slices, grade in cases:
        for den, buckets in slices.values():
            assert buckets and [g for g, _ in buckets] == sorted({g for g, _ in buckets})
            assert all(grade(k) == g and isinstance(n, int) and n for g, t in buckets for k, n in t)

        def build(cells):
            return type(series)._from_slices(series.shape, normalise(cells, grade)).coeffs

        assert build(_as_cells(slices)) == series.coeffs
        cells = lincomb([(CoeffElem.one(), slices)], 5, None)
        assert build(cells) == series.coeffs
        assert normalise(cells, grade) == slices


def _nc_rule(s):
    return graded_slices(s.coeffs.items(), len)


def _qt_rule(s):
    return graded_slices(((m << 32 | j, c) for (m, j), c in s.coeffs.items()), lambda k: k >> 32)


@settings(max_examples=60, deadline=None)
@given(
    words=st.dictionaries(st.text("ab", max_size=4), _SERIES_COEFFS, max_size=6),
    qt_terms=st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 3)), _SERIES_COEFFS, max_size=6
    ),
)
def test_series_keep_their_slices(words, qt_terms):
    # slices() is graded_slices of the coefficients under the container's
    # grading (as canonical slices), however the value was built; every call returns the held object, and
    # equality does not depend on how a value was built
    nc, qt = NCSeries(4, words), QTSeries(6, qt_terms)
    cases = [
        (nc, _nc_rule),
        (NCSeries._from_slices(4, _nc_rule(nc)), _nc_rule),
        (-nc, _nc_rule),
        (qt, _qt_rule),
        (QTSeries._from_slices(6, _qt_rule(qt)), _qt_rule),
        (qt.scale(F(-3, 2)), _qt_rule),
    ]
    for series, rule in cases:
        fresh = type(series)(series.shape, series.coeffs)
        first = series.slices()
        assert canonical_slices(first) == canonical_slices(rule(series))
        assert series.slices() is first
        assert series == fresh and fresh == series


def _counting(monkeypatch, modules, name):
    """Count the calls of one function in every module namespace that binds it."""
    calls = []
    real = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_warm_integral_products_slice_nothing(monkeypatch):
    # the cached integrals keep their slices, so a warm shuffle identity (both
    # sides, as the image workload asks it) grades no coefficient again; the
    # comparison runs on slices and builds no coefficient, and only reading a
    # side builds it, on each read, keeping nothing
    from emzv import coeffring, ncalg, qseries
    from emzv.eisalg import epoly_to_qexp, iei_qexp, shuffle_words

    u, v, order = (4, 0), (6, 2), 8
    lhs = qt_mul(iei_qexp(u, order), iei_qexp(v, order))
    rhs = epoly_to_qexp(shuffle_words(u, v), order)
    calls = _counting(monkeypatch, [coeffring, ncalg, qseries], "graded_slices")
    built = []
    real_build = QTSeries._build
    monkeypatch.setattr(QTSeries, "_build", lambda s: built.append(s) or real_build(s))
    again = qt_mul(iei_qexp(u, order), iei_qexp(v, order))
    assert again == lhs == rhs
    assert epoly_to_qexp(shuffle_words(u, v), order) == rhs
    assert calls == [] and built == []
    first, second = again.coeffs, again.coeffs
    assert first and first == second and first is not second
    assert built == [again, again]  # each read builds, and nothing is kept
    assert again == lhs == rhs


@pytest.mark.parametrize("op", ["nc_inv", "nc_exp"])
def test_power_series_slice_their_fixed_operand_once(monkeypatch, op):
    # the operand x is sliced once, at construction; the powers are
    # products, born sliced, so no product is sliced and none builds its
    # coefficients
    from emzv import ncalg

    half = CoeffElem.from_rational(F(1, 2))
    x = NCSeries(5, {"a": half, "ab": CoeffElem.one(), "ba": CoeffElem.from_rational(-3)})
    if op == "nc_inv":
        x = NCSeries.one(5) + x
    want, terms = getattr(ncalg, op)(x), x.coeffs
    sliced, built = [], []
    real_slice, real_build = NCSeries._slice, NCSeries._build
    monkeypatch.setattr(NCSeries, "_slice", lambda s, c: sliced.append(s) or real_slice(s, c))
    monkeypatch.setattr(NCSeries, "_build", lambda s: built.append(s) or real_build(s))
    products = _counting(monkeypatch, [ncalg], "nc_mul")
    operand = NCSeries(5, terms)
    got = getattr(ncalg, op)(operand)
    assert len(products) >= 3
    assert len(sliced) == 1 and sliced[0] is operand
    assert len(built) == 0
    assert got.coeffs == want.coeffs


_KERNEL_VALUES = {
    "int": st.integers(min_value=-4, max_value=4),
    "Fraction": st.fractions(min_value=-3, max_value=3, max_denominator=4),
    "CoeffElem": _random_coeffs(max_terms=2),
}


@pytest.mark.parametrize("kind", sorted(_KERNEL_VALUES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_accumulate_matches_reference_sum(kind, data):
    values = _KERNEL_VALUES[kind]
    keys = st.integers(min_value=0, max_value=3)
    start = {k: v for k, v in data.draw(st.dictionaries(keys, values)).items() if v}
    pairs = []
    for key, value in data.draw(st.lists(st.tuples(keys, values), max_size=10)):
        pairs.append((key, value))
        if data.draw(st.booleans()):  # a cancelling partner
            pairs.append((key, -value))
    if data.draw(st.booleans()):  # cancel the starting values as well
        pairs.extend((k, -v) for k, v in start.items())
    pairs = data.draw(st.permutations(pairs))

    zero = CoeffElem.zero() if kind == "CoeffElem" else 0
    want = {}
    for key in set(start) | {k for k, _ in pairs}:
        total = start.get(key, zero)
        for k, v in pairs:
            if k == key:
                total = total + v
        if total:
            want[key] = total

    acc = dict(start)
    out = accumulate(acc, pairs)
    assert out is acc
    assert out == want
    assert all(out.values())


def test_monomial_mul_overflow(small_table):
    table = loads_mzv_table(MINIMAL_TABLE)
    z3 = MzvMonomial(0, ("z3",))
    assert monomial_mul(z3, MzvMonomial(5, ()), table) == MzvMonomial(5, ("z3",))
    assert monomial_mul(z3, z3, small_table) == MzvMonomial(0, ("z3", "z3"))
    for t in (table, None):  # weight 6 > cap 3, and no table at all
        with pytest.raises(TableOverflow):
            monomial_mul(z3, z3, t)


def _closure_coeff_mul(x, y, table):
    """The product as coeff_mul computed it with its own inner cap check."""

    def product(mx, my):
        if mx.symbols and my.symbols:
            if table is None:
                raise TableOverflow(
                    "symbol product requires a table: "
                    f"{mx.symbols} * {my.symbols}"
                )
            sw = mx.symbol_weight(table.symbols) + my.symbol_weight(table.symbols)
            if sw > table.max_weight:
                raise TableOverflow(
                    f"symbol product of weight {sw} exceeds table cap "
                    f"{table.max_weight}"
                )
        return MzvMonomial(
            mx.pi_power + my.pi_power, tuple(sorted(mx.symbols + my.symbols))
        )

    terms = ((product(mx, my), qx * qy) for mx, qx in x.items() for my, qy in y.items())
    return CoeffElem(accumulate({}, terms))


def _product_outcome(product, x, y, table):
    try:
        return product(x, y, table)
    except TableOverflow as exc:
        return "TableOverflow", str(exc)


_SHIPPED_SYMBOL_COEFFS = st.dictionaries(
    st.builds(
        MzvMonomial,
        st.integers(min_value=0, max_value=4),
        st.lists(st.sampled_from(["z3", "z5", "z7", "z35"]), max_size=2).map(
            lambda s: tuple(sorted(s))
        ),
    ),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    max_size=4,
).map(CoeffElem)


@settings(max_examples=150, deadline=None)
@given(x=_SHIPPED_SYMBOL_COEFFS, y=_SHIPPED_SYMBOL_COEFFS)
def test_coeff_mul_matches_closure_product(x, y):
    # the same product, or TableOverflow with the same message: within the
    # w8 cap, beyond it (z5 * z5, z3^2 * z3, ...) and with no table at all
    table = shipped_table()
    assert set(table.symbols) == {"z3", "z5", "z7", "z35"}
    for t in (table, None):
        got = _product_outcome(coeff_mul, x, y, t)
        assert got == _product_outcome(_closure_coeff_mul, x, y, t)


_Z3 = CoeffElem.symbol("z3")
_Z3_SQUARED = CoeffElem({MzvMonomial(0, ("z3", "z3")): F(1)})
_A_Z3 = NCSeries(2, {"a": _Z3})
_Q_Z3 = QTSeries(3, {(1, 0): _Z3})
_Z3_SPLIT = integer_slices([(0, _Z3)])  # the scalar z3 on series 0

# Every product that multiplies two coefficients, on operands that both carry
# z3: table -> the term where the two z3 meet, and that term's value.
_PRODUCTS = {
    "nc_mul": (lambda t: nc_mul(_A_Z3, _A_Z3, t).coefficient("aa"), _Z3_SQUARED),
    "nc_bracket": (
        lambda t: nc_bracket(_A_Z3, NCSeries(2, {"b": _Z3}), t).coefficient("ba"),
        -_Z3_SQUARED,
    ),
    "nc_exp": (lambda t: nc_exp(_A_Z3, t).coefficient("aa"), _Z3_SQUARED.scale(F(1, 2))),
    "nc_inv": (lambda t: nc_inv(NCSeries.one(2) + _A_Z3, t).coefficient("aa"), _Z3_SQUARED),
    "NCSeries.scale": (lambda t: _A_Z3.scale(_Z3, t).coefficient("a"), _Z3_SQUARED),
    "is_grouplike": (
        lambda t: is_grouplike(
            NCSeries(2, {"": CoeffElem.one(), "a": _Z3, "aa": _Z3_SQUARED.scale(F(1, 2))}), t
        ),
        True,
    ),
    "qt_mul": (lambda t: qt_mul(_Q_Z3, _Q_Z3, t).coefficient(2, 0), _Z3_SQUARED),
    "QTSeries.scale": (lambda t: _Q_Z3.scale(_Z3, t).coefficient(1, 0), _Z3_SQUARED),
    "split_lincomb": (
        lambda t: NCSeries._from_slices(
            2, normalise(split_lincomb(_Z3_SPLIT, [_A_Z3.slices()], 2, t), len)
        ).coefficient("a"),
        _Z3_SQUARED,
    ),
    "EPoly.scale": (
        lambda t: EPoly.word((2,), _Z3).scale(_Z3, t).coefficient((2,)),
        _Z3_SQUARED,
    ),
    "epoly_mul": (
        lambda t: epoly_mul(EPoly.word((2,), _Z3), EPoly.word((4,), _Z3), t).coefficient((2, 4)),
        _Z3_SQUARED,
    ),
}


@pytest.mark.parametrize("name", sorted(_PRODUCTS))
def test_products_take_the_table(name):
    product, want = _PRODUCTS[name]
    assert product(shipped_table()) == want
    # no table at all, and z3^2 of weight 6 beyond the cap 3
    for table in (None, loads_mzv_table(MINIMAL_TABLE)):
        with pytest.raises(TableOverflow):
            product(table)


def test_even_zeta_products_stay_pure():
    for s in (2, 4, 6):
        for t in (2, 4):
            p = coeff_mul(reduce_even_zeta(s), reduce_even_zeta(t), None)
            assert len(p) == 1
            ((mono, _),) = list(p.items())
            assert mono.symbols == () and mono.pi_power == s + t


def test_render_parse_roundtrip():
    c = CoeffElem(
        {
            MzvMonomial(3, ()): F(1, 72),
            MzvMonomial(1, ("z3",)): F(-3),
            MzvMonomial(0, ("z3", "z3")): F(5, 2),
        }
    )
    s = render_coeff(c)
    assert parse_coeff(s, ["z3"]) == c
    assert parse_coeff("0", []) == CoeffElem.zero()
    assert render_coeff(CoeffElem.zero()) == "0"
    with pytest.raises(ParseError):
        parse_coeff("1 * zz9", ["z3"])
    with pytest.raises(ParseError):
        parse_coeff("nonsense", ["z3"])


def test_load_minimal_table():
    t = loads_mzv_table(MINIMAL_TABLE)
    assert t.max_weight == 3
    assert t.symbols == {"z3": 3}
    assert t.convergent_words["AB"] == reduce_even_zeta(2)
    # round trip through the writer
    again = loads_mzv_table(dump_mzv_table(t))
    assert again.convergent_words == t.convergent_words


def test_load_empty_table():
    t = loads_mzv_table("format emzv-mzv-table 2\nmax_weight 0\n")
    assert t.max_weight == 0
    assert not t.symbols
    # the ring still contains 1
    assert coeff_mul(CoeffElem.one(), CoeffElem.one(), t) == CoeffElem.one()


def test_negative_weight_cap_rejected():
    # a cap below 0 holds no word and no symbol, so only its own check sees it
    with pytest.raises(ConsistencyError, match="^max_weight -3 is negative$"):
        loads_mzv_table("format emzv-mzv-table 2\nmax_weight -3\n")
    # with a symbol, the symbol's weight is refused first, as before
    with pytest.raises(ConsistencyError, match="^symbol z3 has weight 3 outside"):
        loads_mzv_table("format emzv-mzv-table 2\nmax_weight -1\nsymbol z3 3\n")


def test_missing_zeta2_rejected():
    text = "format emzv-mzv-table 2\nmax_weight 2\n"
    with pytest.raises(ConsistencyError):
        loads_mzv_table(text)


def test_wrong_zeta2_rejected():
    text = (
        "format emzv-mzv-table 2\nmax_weight 2\n"
        "convergent AB = 1/6 * pi^2\n"
    )
    with pytest.raises(ConsistencyError):
        loads_mzv_table(text)


def test_weight_mismatch_rejected():
    text = MINIMAL_TABLE.replace(
        "convergent AAB = 1 * z3", "convergent AAB = -1/24 * pi^2"
    )
    with pytest.raises(ConsistencyError):
        loads_mzv_table(text)


def test_missing_convergent_word_rejected():
    text = MINIMAL_TABLE.replace("convergent AAB = 1 * z3\n", "")
    with pytest.raises(ConsistencyError):
        loads_mzv_table(text)


def test_parse_errors():
    with pytest.raises(ParseError):
        loads_mzv_table("max_weight 2\n")  # no format line
    with pytest.raises(ParseError):
        loads_mzv_table("format emzv-mzv-table 99\nmax_weight 0\n")
    with pytest.raises(ParseError):
        loads_mzv_table(
            "format emzv-mzv-table 2\nmax_weight 0\nfrobnicate 1\n"
        )
    # every malformed line is a ParseError that names the line
    lines = MINIMAL_TABLE.strip().splitlines()
    for lineno, bad, need in (
        (1, "format emzv-mzv-table x", "bad format version 'x'"),
        (2, "max_weight x", "bad max_weight 'x'"),
        (3, "symbol z3 x", "bad symbol weight 'x'"),
        (4, "convergent AB -1/24 * pi^2", "missing '='"),
        (5, "convergent ABB = 1/0 * z3", "bad rational '1/0'"),
        (6, "convergent AAB = -1/24 * pi^x", "bad monomial factor 'pi^x'"),
    ):
        text = "\n".join(lines[: lineno - 1] + [bad] + lines[lineno:])
        with pytest.raises(ParseError, match=f"^line {lineno}: {re.escape(need)}$"):
            loads_mzv_table(text)
    # a second format or max_weight line is rejected like every other duplicate
    for repeated in lines[:2]:
        text = "\n".join(lines[:3] + [repeated] + lines[3:])
        with pytest.raises(ParseError, match="^line 4: duplicate (format|max_weight) line$"):
            loads_mzv_table(text)


def test_v1_document_is_rejected(capsys, tmp_path):
    # format 1 is no longer read: its format line is a one-line ParseError,
    # exit 2 from the CLI, whatever the rest of the document holds
    from emzv.cli import run

    v1 = MINIMAL_TABLE.replace("emzv-mzv-table 2", "emzv-mzv-table 1") + "single_zeta 2 = -1/24 * pi^2\n"
    with pytest.raises(ParseError, match="^line 2: unsupported version 1$"):
        loads_mzv_table(v1)
    path = tmp_path / "v1.txt"
    path.write_text(v1, encoding="utf-8")
    assert run(["gamma", "--index", "2,0,0", "--mzv-table", str(path)]) == 2
    captured = capsys.readouterr()
    assert not captured.out and captured.err.count("\n") == 1
    assert "line 2: unsupported version 1" in captured.err


@pytest.mark.parametrize("extra", ["single_zeta 3 = 1 * z3", "product z3 z3 = 1 * z3^2"])
def test_v2_rejects_format_1_sections(extra):
    lines = dump_mzv_table(loads_mzv_table(MINIMAL_TABLE)).splitlines()
    assert lines[1] == "format emzv-mzv-table 2"
    for at in (4, len(lines)):  # after the symbol line, and last
        text = "\n".join(lines[:at] + [extra] + lines[at:])
        head = extra.split()[0]
        need = f"^line {at + 1}: unknown directive '{head}'$"
        with pytest.raises(ParseError, match=need):
            loads_mzv_table(text)
