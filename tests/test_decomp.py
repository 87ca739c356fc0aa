import math
import re
import time
from fractions import Fraction

import pytest

from emzv.coeffring import (
    CoeffElem,
    bernoulli,
    dump_mzv_table,
    loads_mzv_table,
    shipped_table,
)
from emzv.decomp import (
    Decomposition,
    DiffTerm,
    _eps_word_images,
    _gseries_component,
    decompose,
    diffeq_expand,
    diffeq_rhs_qexp,
    emzv_qexp,
    find_emzv_relations,
    format_index,
    gseries_decompose,
    indices_upto,
    parse_index,
)
from emzv.derlie import eps_derivation
from emzv.eisalg import EPoly, eisenstein_qexp, epoly_mul, shuffle_words
from emzv.errors import ExtractionInconsistent, ParseError, TableOverflow
from emzv.ncalg import NCSeries, build_Ainf, compositions_of, index_monomial
from emzv.qseries import QTSeries, qt_ddT, qt_mul
from emzv.words import graded_words, shuffle_multiset

F = Fraction
PI = CoeffElem.pi_pow


@pytest.fixture(scope="module")
def table():
    return shipped_table()


def test_index_parsing():
    assert parse_index("0,1,0,0") == (0, 1, 0, 0)
    assert parse_index("") == ()
    assert format_index((3, 0)) == "3,0"
    with pytest.raises(ParseError):
        parse_index("1,x")
    with pytest.raises(ParseError):
        parse_index("1,-2")


def test_indices_upto():
    got = indices_upto(2, 2)
    assert set(got) == {
        (),
        (0,), (1,), (2,),
        (0, 0), (0, 1), (1, 0), (0, 2), (2, 0), (1, 1),
    }


@pytest.mark.parametrize("length", range(5))
def test_indices_exact_is_filtered_indices_upto(length):
    # the indices of exactly one length and weight are graded_words
    for weight in range(-1, 6):
        want = [
            i
            for i in indices_upto(length, max(weight, 0))
            if len(i) == length and sum(i) == weight
        ]
        got = graded_words(length, weight)
        assert sorted(got) == sorted(want) and len(set(got)) == len(got)


def test_diffeq_expand_200():
    assert diffeq_expand((2, 0, 0)) == [DiffTerm(0, (3, 0), F(-2))]


def test_diffeq_expand_0100():
    got = diffeq_expand((0, 1, 0, 0))
    assert got == [DiffTerm(0, (0, 2, 0), F(-1)), DiffTerm(0, (2, 0, 0), F(1))]


def test_diffeq_expand_length_one_cancels():
    for k in (0, 1, 2, 4, 7):
        assert diffeq_expand((k,)) == []


def _reference_alpha(n):
    if n == 0:
        return F(-1)
    if n == 1:
        return F(0)
    return F(2, math.factorial(n - 2))


def _reference_binom(n, k):
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k)
    return (-1) ** k * math.comb(k - n - 1, k)


def reference_diffeq_expand(k):
    # the recursion on Fraction coefficients, as it was before the integer form
    n = len(k)
    acc = {}

    def add(key, q):
        acc[key] = acc.get(key, 0) + q

    add((k[0] + 1, k[1:]), _reference_alpha(k[0] + 1))
    add((k[-1] + 1, k[:-1]), -_reference_alpha(k[-1] + 1))
    for i in range(2, n + 1):
        prev, cur = k[i - 2], k[i - 1]
        head, tail = k[: i - 2], k[i:]
        add((prev + cur + 1, head + (0,) + tail), (-1) ** cur * _reference_alpha(prev + cur + 1))
        for m in range(prev + 2):
            q = _reference_binom(cur + m - 1, m) * _reference_alpha(prev - m + 1)
            add((prev - m + 1, head + (m + cur,) + tail), -q)
        for m in range(cur + 2):
            q = _reference_binom(prev + m - 1, m) * _reference_alpha(cur - m + 1)
            add((cur - m + 1, head + (m + prev,) + tail), q)
    return [
        DiffTerm(eis, sub, F(q))
        for (eis, sub), q in sorted(acc.items())
        if q and eis % 2 == 0
    ]


def test_diffeq_expand_matches_fraction_reference():
    indices = [idx for idx in indices_upto(6, 9) if idx]
    assert len(indices) == 8007
    for idx in indices:
        got = diffeq_expand(idx)
        assert got == reference_diffeq_expand(idx), idx
        assert all(type(t.coeff) is Fraction for t in got), idx


def test_decompose_length_one(table):
    for k in range(13):
        dec = decompose((k,), table)
        if k % 2:
            assert dec.epoly.is_zero()
            assert dec.gamma.is_zero()
        else:
            want = PI(1, bernoulli(k) / math.factorial(k))
            assert dec.epoly == EPoly.constant(want)
            assert dec.gamma == want
    assert decompose((), table).epoly == EPoly.constant(1)


def test_decompose_30(table):
    dec = decompose((3, 0), table)
    want = EPoly.word((4,), PI(1, -1)) + EPoly.word((0,), PI(1, F(-1, 240)))
    assert dec.epoly == want
    assert dec.gamma.is_zero()


def test_decompose_worked_length_three(table):
    dec = decompose((2, 0, 0), table)
    want = (
        EPoly.constant(PI(3, F(1, 72)))
        + EPoly.word((0, 4), PI(1, -2))
        + EPoly.word((0, 0), PI(1, F(-1, 120)))
    )
    assert dec.epoly == want
    assert dec.gamma == PI(3, F(1, 72))

    dec020 = decompose((0, 2, 0), table)
    want020 = (
        EPoly.constant(PI(3, F(1, 72)))
        + EPoly.word((0, 4), PI(1, 4))
        + EPoly.word((0, 0), PI(1, F(1, 60)))
    )
    assert dec020.epoly == want020

    assert decompose((0, 0, 2), table).epoly == dec.epoly  # reflection


def test_decompose_0100(table):
    dec = decompose((0, 1, 0, 0), table)
    want = (
        EPoly.constant(CoeffElem.symbol("z3", -3).mul_pi(1))
        + EPoly.word((0, 0, 4), PI(1, 6))
        + EPoly.word((0, 0, 0), PI(1, F(1, 40)))
    )
    assert dec.epoly == want
    assert dec.gamma == CoeffElem.symbol("z3", -3).mul_pi(1)


def test_decomposition_grading(table):
    # weight of each coefficient plus word length equals the index length
    for idx in [(3, 0), (2, 0, 0), (0, 1, 0, 0), (0, 2, 0), (2, 2)]:
        dec = decompose(idx, table)
        for w, c in dec.epoly.items():
            assert c.weights(table.symbols) == {len(idx) - len(w)}, (idx, w)


def test_decompose_overflow_fails_fast(table):
    # an index longer than the table's cap: its constant needs a table of
    # weight min(degree - 1, length) = 10, refused before any series is built
    start = time.perf_counter()
    with pytest.raises(TableOverflow, match="needs a table of weight >= 10"):
        decompose((9999,) + (0,) * 9, table)
    assert time.perf_counter() - start < 1


def test_qexp_30(table):
    got = emzv_qexp((3, 0), 4, table)
    want = QTSeries(
        4,
        {
            (1, 0): PI(1, 1),
            (2, 0): PI(1, F(9, 2)),
            (3, 0): PI(1, F(28, 3)),
        },
    )
    assert got.coeffs == want.coeffs


def test_qexp_constants(table):
    for k in (0, 2, 4, 6):
        got = emzv_qexp((k,), 6, table)
        assert got.coeffs == {(0, 0): PI(1, bernoulli(k) / math.factorial(k))}
    assert emzv_qexp((1, 1), 8, table).is_zero()


def test_differential_consistency(table):
    for idx in [(3, 0), (2, 0, 0), (0, 2, 0), (0, 1, 0, 0), (2, 2), (1, 2)]:
        lhs = qt_ddT(emzv_qexp(idx, 12, table))
        rhs = diffeq_rhs_qexp(idx, 12, table)
        assert lhs.coeffs == rhs.coeffs, idx


def _reference_diffeq_rhs_qexp(idx, order, table):
    """The per-term accumulation that the linear-combination kernel replaced."""
    acc = QTSeries.zero(order)
    for term in diffeq_expand(idx):
        piece = qt_mul(
            eisenstein_qexp(term.eis_weight, order),
            emzv_qexp(term.sub_index, order, table),
        )
        acc = acc + piece.scale(term.coeff)
    return acc


# Whether pi z3 survives in the sum: the constants of the length-four
# sub-indices carry it, and for (0, 1, 0, 1, 0) it cancels.
_RHS_CASES = {
    (3, 0): False,
    (2, 2): False,
    (0, 1, 0, 0): False,
    (0, 0, 0, 1, 1): True,
    (0, 1, 0, 0, 1): True,
    (1, 1, 0, 0, 0): True,
    (0, 1, 0, 1, 0): False,
}


@pytest.mark.parametrize("idx", list(_RHS_CASES))
def test_diffeq_rhs_matches_per_term_reference(table, idx):
    got = diffeq_rhs_qexp(idx, 10, table)
    assert got == _reference_diffeq_rhs_qexp(idx, 10, table)
    assert got.order == 10
    assert all(m < 10 and not c.is_zero() for (m, _), c in got.coeffs.items())
    carries = any(
        mono.pi_power and "z3" in mono.symbols
        for c in got.coeffs.values()
        for mono, _ in c.items()
    )
    assert carries == _RHS_CASES[idx]


def test_gseries_matches_recursion_small(table):
    alt = gseries_decompose(3, 3, table)
    for idx, poly in alt.items():
        assert poly == decompose(idx, table).epoly, idx


# Reference for the generating-series route: the per-degree walk it replaced,
# which re-applies every normalized derivation to the whole series truncated
# at each degree d and keeps only the degree-d part.


def _reference_eps_tilde(k2):
    der = eps_derivation(k2)
    scale = F(-1) if k2 == 0 else F(2, math.factorial(k2 - 2))
    return tuple(
        {w.replace("x", "a").replace("y", "b"): q * scale for w, q in val.items()}
        for val in (der.val_x, der.val_y)
    )


def _reference_apply(vals, s):
    D = s.maxdeg
    acc = {}
    for w, c in s.items():
        for i, ch in enumerate(w):
            val = vals[0] if ch == "a" else vals[1]
            pre, post = w[:i], w[i + 1 :]
            room = D - len(pre) - len(post)
            for sub, q in val.items():
                if len(sub) > room:
                    continue
                ww = pre + sub + post
                s2 = acc.get(ww, CoeffElem.zero()) + c.scale(q)
                if s2.is_zero():
                    acc.pop(ww, None)
                else:
                    acc[ww] = s2
    return NCSeries(D, acc)


def _reference_solve_degree(ainf, d):
    ops = {k2: _reference_eps_tilde(k2) for k2 in range(0, max(d, 1), 2)}
    by_eword = {}
    stack = [((), NCSeries(d, ainf.coeffs))]
    while stack:
        eword, series = stack.pop()
        for ncw, c in series.component(d).items():
            by_eword.setdefault(eword, {})[ncw] = c
        for k2, op in ops.items():
            image = _reference_apply(op, series)
            if not image.is_zero():
                stack.append(((k2,) + eword, image))
    # solved e-word by e-word on CoeffElem values by the whole-degree walk,
    # so that neither EPoly arithmetic nor the production solve enters the
    # reference
    solved = {}
    for eword, component in by_eword.items():
        for j, c in _whole_degree_push_solve(component, d).items():
            solved.setdefault(j, {})[eword] = c
    return {j: EPoly(coeffs) for j, coeffs in solved.items()}


def _reference_gseries(max_len, max_wt, table):
    indices = [i for i in indices_upto(max_len, max_wt) if i]
    ainf = build_Ainf(max(sum(i) + len(i) for i in indices), table)
    out = {(): EPoly.constant(1)}
    for d in sorted({sum(i) + len(i) for i in indices}):
        solved = _reference_solve_degree(ainf, d)
        for idx in indices:
            if sum(idx) + len(idx) == d:
                val = solved.get(idx) or EPoly.zero()
                out[idx] = val if len(idx) % 2 == 0 else -val
    return out


# (2, 5), (5, 2) and (1, 6) leave blocks of their degrees unrequested: the
# route skips them, while the reference solves every block of each degree
@pytest.mark.parametrize("max_len, max_wt", [(3, 4), (4, 3), (2, 5), (5, 2), (1, 6)])
def test_gseries_matches_per_degree_walk(table, max_len, max_wt):
    got = gseries_decompose(max_len, max_wt, table)
    want = _reference_gseries(max_len, max_wt, table)
    assert got.keys() == want.keys()
    for idx, poly in want.items():
        assert got[idx].coeffs == poly.coeffs, idx


def _whole_degree_push_solve(component, degree):
    """The solve as one push walk over every composition of the degree, on
    the values' own scale and + (EPoly or CoeffElem): no per-block plan and
    no combination."""
    work = dict(component)
    out = {}
    comps = sorted(
        (j for n in range(degree + 1) for j in graded_words(n, degree - n)),
        key=lambda j: tuple(reversed(j)),
        reverse=True,
    )
    for j in comps:
        pure = "".join("a" * k + "b" for k in reversed(j))
        x = work.pop(pure, None)
        if not x:
            continue
        out[j] = x
        for w, q in index_monomial(j).items():
            if w != pure:
                s = x.scale(-q) if w not in work else work[w] + x.scale(-q)
                if s:
                    work[w] = s
                else:
                    work.pop(w, None)
    if any(work.values()):
        raise ExtractionInconsistent(f"residual on {sorted(work)[:4]}")
    return out


def _full_series_gseries(max_len, max_wt, table):
    """The route on the full limit series, each block solved by the
    whole-degree push walk: the reference of the cut build, the per-block
    plans and the one-pass combination."""
    by_block = {}
    for idx in indices_upto(max_len, max_wt):
        if idx:
            by_block.setdefault((sum(idx) + len(idx), len(idx)), []).append(idx)
    out = {(): EPoly.constant(1)}
    if not by_block:
        return out
    images = _eps_word_images(build_Ainf(max(d for d, _ in by_block), table), by_block, table)
    for (d, n), indices in sorted(by_block.items()):
        solved = _whole_degree_push_solve(_gseries_component(images.pop((d, n))), d)
        for idx in indices:
            val = solved.get(idx) or EPoly.zero()
            out[idx] = val if n % 2 == 0 else -val
    return out


@pytest.mark.parametrize(
    "max_len, max_wt",
    [(4, 5), (3, 5), (2, 7), (3, 6), (5, 2), (1, 6), (9, 0), (1, 1), (2, 2)],
)
def test_gseries_matches_the_full_series_route(max_len, max_wt):
    # each on its own fresh table, so that neither shares the other's
    # regularized values; key order included
    fresh = loads_mzv_table(dump_mzv_table(shipped_table()))
    got = gseries_decompose(max_len, max_wt, fresh)
    # the route caches no series, and a range shorter than its top degree
    # reads a cut one
    assert set(fresh.caches) == {"reg"}
    assert max(map(len, fresh.caches["reg"])) <= max_len
    want = _full_series_gseries(max_len, max_wt, loads_mzv_table(dump_mzv_table(shipped_table())))
    assert list(got) == list(want)
    for idx, poly in want.items():
        assert got[idx] == poly and got[idx].coeffs == poly.coeffs, idx


def test_gseries_component_matches_the_validating_constructors(table):
    d = 7
    blocks = [(d, n) for n in range(1, d + 1)]
    images = _eps_word_images(build_Ainf(d, table), blocks, table)
    assert images.keys() == set(blocks)
    for n in range(1, d + 1):
        want = {}
        for eword, mono, factor, v in images[d, n]:
            for w, q in v.items():
                assert len(w) == d and w.count("b") == n, (n, w)
                want.setdefault(w, {}).setdefault(eword, {})[mono] = factor * q
        got = _gseries_component(list(images[d, n]))
        assert want and got.keys() == want.keys(), n
        for w, per in want.items():
            assert got[w].coeffs == EPoly({e: CoeffElem(t) for e, t in per.items()}).coeffs, w


def _planting(monkeypatch, word):
    """The route's build_Ainf with the word added on the monomial 1."""
    from emzv import decomp

    real = decomp.build_Ainf

    def planted(D, t, max_b=None):
        return real(D, t, max_b) + NCSeries(D, {word: CoeffElem.one()})

    monkeypatch.setattr(decomp, "build_Ainf", planted)


def test_gseries_rejects_component_outside_span(monkeypatch):
    # "aa" is not in the span of the degree-2 index monomials ab - ba and bb
    fresh = loads_mzv_table(dump_mzv_table(shipped_table()))
    _planting(monkeypatch, "aa")
    with pytest.raises(ExtractionInconsistent):
        gseries_decompose(2, 2, fresh)


def test_gseries_rejects_perturbation_inside_a_requested_block(monkeypatch):
    # "ab" lies in the block (degree 2, one b) that the index (1,) reads,
    # and is not in the span of its monomial ab - ba: that block's own
    # residual check raises
    fresh = loads_mzv_table(dump_mzv_table(shipped_table()))
    _planting(monkeypatch, "ab")
    with pytest.raises(ExtractionInconsistent, match="degree-2 residual"):
        gseries_decompose(1, 1, fresh)


def test_shuffle_multiplicativity_small(table):
    for i in (0, 1, 2):
        for j in (0, 1, 2):
            lhs = epoly_mul(
                decompose((i,), table).epoly, decompose((j,), table).epoly
            )
            rhs = decompose((i, j), table).epoly + decompose((j, i), table).epoly
            assert lhs == rhs, (i, j)


def test_length_parity(table):
    # even-weight pairs decompose to bare constants
    for k1 in range(7):
        for k2 in range(7 - k1):
            if (k1 + k2) % 2:
                continue
            dec = decompose((k1, k2), table)
            assert set(dec.epoly.coeffs) <= {()}, (k1, k2)


def test_find_relations_reflection(table):
    vecs = find_emzv_relations([(2, 0, 0), (0, 0, 2)], table)
    assert len(vecs) == 1
    a, b = vecs[0]
    assert a == -b and a != 0


def test_reflection_on_every_index_up_to_degree_nine(table):
    # psi(k_1, ..., k_n) = (-1)^(k_1 + ... + k_n) psi(k_n, ..., k_1): the
    # reversal symmetry of A-elliptic MZVs, on words and constants together
    indices = [j for d in range(10) for j in compositions_of(d)]
    assert len(indices) == 2**9
    for idx in indices:
        psi = decompose(idx, table).epoly
        mirror = decompose(idx[::-1], table).epoly
        assert psi == (-mirror if sum(idx) % 2 else mirror), idx


# Past degree 9 on the weight-8 table: the table caps an index's length, not
# its degree.  Each test runs on its own fresh table.


def test_length_two_constants_match_the_closed_form_to_weight_22():
    from emzv.verify import _gamma2_closed

    fresh = loads_mzv_table(dump_mzv_table(shipped_table()))
    indices = [(k1, w - k1) for w in range(23) for k1 in range(w + 1)]
    assert len(indices) == 276 and max(sum(i) + len(i) for i in indices) == 24
    for k1, k2 in indices:
        assert decompose((k1, k2), fresh).gamma == _gamma2_closed(k1, k2), (k1, k2)


def test_both_routes_and_reflection_past_degree_nine():
    # every index of length <= 3 and weight <= 11, up to degree 14
    fresh = loads_mzv_table(dump_mzv_table(shipped_table()))
    routed = gseries_decompose(3, 11, fresh)
    indices = indices_upto(3, 11)
    assert len(indices) == 455 and routed.keys() == set(indices)  # () included
    for idx in indices:
        psi = decompose(idx, fresh).epoly
        assert routed[idx] == psi, idx
        mirror = decompose(idx[::-1], fresh).epoly
        assert psi == (-mirror if sum(idx) % 2 else mirror), idx


def test_psi_is_multiplicative_on_length_three_weight_fourteen():
    # psi(u) psi(v) = sum over the shuffles w of u and v of psi(w), on every
    # pair whose shuffles have length <= 3 and weight <= 14 (degree <= 17)
    fresh = loads_mzv_table(dump_mzv_table(shipped_table()))
    indices = indices_upto(3, 14)
    pairs = 0
    for i, u in enumerate(indices):
        for v in indices[i:]:
            if not u or len(u) + len(v) > 3 or sum(u) + sum(v) > 14:
                continue
            lhs = epoly_mul(decompose(u, fresh).epoly, decompose(v, fresh).epoly, fresh)
            rhs = EPoly.combination(
                (m, decompose(w, fresh).epoly) for w, m in shuffle_multiset(u, v).items()
            )
            assert lhs == rhs, (u, v)
            pairs += 1
    assert pairs == 744


def test_find_relations_odd_vanishing(table):
    vecs = find_emzv_relations([(1,)], table)
    assert vecs == [(F(1),)]
    # all-zero rows: the kernel is everything
    vecs = find_emzv_relations([(1,), (3,)], table)
    assert len(vecs) == 2


def test_find_relations_length_two_constants(table):
    # each value is a rational multiple of pi^2: gamma_{0,4} = gamma_{4,0}
    # = -pi^2/1440 and gamma_{2,2} = pi^2/288, with no word terms
    values = {(0, 4): F(-1, 1440), (4, 0): F(-1, 1440), (2, 2): F(1, 288)}
    for idx, q in values.items():
        assert decompose(idx, table).epoly == EPoly.constant(PI(2, q)), idx
    # so the three indices span one dimension and have two relations
    vecs = find_emzv_relations(list(values), table)
    assert len(vecs) == 2
    for v in vecs:
        assert sum(c * q for c, q in zip(v, values.values())) == 0, v


def test_concurrent_decompose(table):
    # independent indices computed from worker threads share the caches
    from concurrent.futures import ThreadPoolExecutor

    idxs = [(2, 0, 0), (0, 2, 0), (0, 1, 0, 0), (3, 0), (2, 2)] * 4
    with ThreadPoolExecutor(max_workers=6) as ex:
        results = list(ex.map(lambda i: decompose(i, table), idxs))
    for idx, dec in zip(idxs, results):
        assert dec.epoly == decompose(idx, table).epoly, idx


def test_concurrent_gseries_on_cold_word_memos(monkeypatch):
    # two threads on fresh tables fill the process-wide derivation memos
    # at once; the first writer of each entry wins, and both agree with a
    # single-threaded run
    import sys
    import threading

    from emzv import derlie

    def fresh():
        return loads_mzv_table(dump_mzv_table(shipped_table()))

    want = gseries_decompose(4, 5, fresh())
    monkeypatch.setattr(derlie, "_eps_word_cache", {})
    monkeypatch.setattr(derlie, "_eps_nc_cache", {})
    results, errors = [None, None], []
    start = threading.Barrier(2)

    def worker(i):
        try:
            table = fresh()
            start.wait(timeout=60)
            results[i] = gseries_decompose(4, 5, table)
        except BaseException as exc:  # reported below, not lost in the thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads' memo reads and stores finely
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(old)
    assert not errors and not any(t.is_alive() for t in threads)
    assert derlie._eps_word_cache
    for got in results:
        assert got.keys() == want.keys()
        for idx, poly in want.items():
            assert got[idx] == poly, idx


def test_doc_roundtrip(table):
    dec = decompose((0, 1, 0, 0), table)
    doc = dec.to_doc()
    again = Decomposition.from_doc(doc, table)
    assert again.epoly == dec.epoly
    assert again.gamma == dec.gamma
    assert again.index == dec.index
    assert again.to_doc() == doc


def test_doc_round_trips_every_index_to_degree_9(table):
    indices = [i for i in indices_upto(9, 9) if sum(i) + len(i) <= 9]
    assert len(indices) == 512  # 2^9, the empty index included
    for idx in indices:
        d = decompose(idx, table)
        assert Decomposition.from_doc(d.to_doc(), table) == d, idx


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda doc: doc.update(gamma="5 * z3"), "gamma"),
        (lambda doc: doc["terms"].pop(0), "gamma"),
        (lambda doc: doc["params"].update(nc_degree=99), "params.nc_degree"),
        (lambda doc: doc.pop("params"), "params.nc_degree"),
        (lambda doc: doc.update(index=[7]), "params.nc_degree"),
        (lambda doc: doc.update(index=[0, 1, 0, 1]), "params.nc_degree"),
        (lambda doc: doc["terms"].append(["0,0,4", "1 * pi"]), "terms"),
        (lambda doc: doc["terms"].append(["0,1,0", "1 * pi"]), "terms"),
    ],
    ids=[
        "gamma-not-constant-term",
        "constant-term-missing",
        "nc-degree-99",
        "nc-degree-missing",
        "index-of-length-one",
        "index-of-other-weight",
        "word-twice",
        "odd-letter",
    ],
)
def test_inconsistent_doc_is_rejected(table, edit, field):
    doc = decompose((0, 1, 0, 0), table).to_doc()
    edit(doc)
    with pytest.raises(ParseError, match=f"^{re.escape(field)}: "):
        Decomposition.from_doc(doc, table)


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda doc: doc.update(index=[-1, 0]), "index"),
        (lambda doc: doc.pop("index"), "index"),
        (lambda doc: doc["terms"].append(["0,0,2"]), "terms"),
        (lambda doc: doc.pop("terms"), "terms"),
        (lambda doc: doc.pop("gamma"), "gamma"),
        (lambda doc: doc["params"].update(nc_degree="x"), "params.nc_degree"),
    ],
    ids=[
        "negative-letter",
        "index-missing",
        "one-element-term",
        "terms-missing",
        "gamma-missing",
        "nc-degree-not-an-integer",
    ],
)
def test_malformed_doc_raises_parse_error_naming_the_field(table, edit, field):
    doc = decompose((0, 1, 0, 0), table).to_doc()
    edit(doc)
    with pytest.raises(ParseError, match=f"^{re.escape(field)}: "):
        Decomposition.from_doc(doc, table)


def test_nc_degree_is_read_from_the_index(table):
    # the record stores three fields; the degree its constant is read at
    # follows from the index, and its document still records it
    assert Decomposition._fields == ("index", "epoly", "gamma")
    for idx, want in [((), 0), ((4,), 0), ((0, 0), 2), ((0, 1, 0, 0), 5), ((2, 0, 0, 1), 7)]:
        dec = decompose(idx, table)
        assert dec.nc_degree == want == Decomposition(*dec).nc_degree, idx
        assert dec.to_doc()["params"] == {"nc_degree": want}


def test_base_case_docs_load(table):
    # lengths 0 and 1 record nc_degree 0, and an odd single letter has gamma 0
    for idx in [(), (0,), (3,), (4,)]:
        doc = decompose(idx, table).to_doc()
        assert doc["params"]["nc_degree"] == 0
        assert Decomposition.from_doc(doc, table).to_doc() == doc
    doc = decompose((0, 0), table).to_doc()
    doc["params"]["nc_degree"] = 0
    with pytest.raises(ParseError, match="nc_degree: 0, index"):
        Decomposition.from_doc(doc, table)
