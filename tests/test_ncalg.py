import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emzv.coeffring import (
    MONOMIAL_ONE,
    CoeffElem,
    MzvMonomial,
    accumulate,
    coeff_mul,
    dump_mzv_table,
    loads_mzv_table,
    shipped_table,
)
from emzv.eisalg import EPoly
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
    compositions_of,
    extract_gamma,
    index_degree,
    index_monomial,
    is_grouplike,
    nc_bracket,
    nc_exp,
    nc_inv,
    nc_mul,
    pure_word,
    shuffle_regularize,
    _solve_plan,
    triangular_index_solve,
)
from emzv.words import graded_words

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


def test_nc_mul_cut_skips_heavy_pairs_before_multiplying(table):
    # max_w drops every pair of monomials whose weights sum above it before
    # the pair is multiplied: z5 * z5 would overflow the weight-8 table
    x = NCSeries(2, {"a": CoeffElem.symbol("z5") + CoeffElem.pi_pow(1)})
    y = NCSeries(2, {"b": CoeffElem.symbol("z5") + CoeffElem.pi_pow(1)})
    with pytest.raises(TableOverflow, match="weight 10"):
        nc_mul(x, y, table)
    mixed = CoeffElem.symbol("z5", 2).mul_pi(1)
    assert nc_mul(x, y, table, max_w=6) == NCSeries(2, {"ab": mixed + CoeffElem.pi_pow(2)})
    assert nc_mul(x, y, table, max_w=5) == NCSeries(2, {"ab": CoeffElem.pi_pow(2)})
    assert nc_mul(x, y, table, max_w=1).is_zero()


def test_add_of_unequal_truncations_raises():
    # the truncation is part of the value: no container adds across shapes
    for op in (NCSeries.__add__, NCSeries.__sub__):
        with pytest.raises(DegreeMismatch):
            op(NCSeries.one(2), NCSeries.one(3))
    with pytest.raises(DegreeMismatch):
        NCSeries.zero(3) + NCSeries.zero(2)


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
        lhs = coeff_mul(shuffle_regularize(u, table), shuffle_regularize(v, table), table)
        rhs = CoeffElem.zero()
        for w, mult in bin_shuffle(u, v).items():
            rhs = rhs + shuffle_regularize(w, table).scale(mult)
        assert lhs == rhs, (u, v)


def test_phi_low_degree(table):
    D = 4
    a = NCSeries.letter("a", D)
    b = NCSeries.letter("b", D)
    t = -nc_bracket(a, b)
    y = build_ytilde(D)
    phi = build_phi(y, t, D, table)
    assert phi.constant_term() == CoeffElem.one()
    # Lowest term: -zeta(2) [ytilde, t] = pi^2/24 [ytilde, t], degree 3 part
    want = nc_bracket(y, t).scale(CoeffElem.pi_pow(2, F(1, 24))).component(3)
    assert phi.component(3) == want
    assert is_grouplike(phi, table)
    # Both arguments zero: the unit series.
    z = NCSeries.zero(D)
    assert build_phi(z, z, D, table) == NCSeries.one(D)


def test_phi_letter_coefficients(table):
    # Evaluated on bare letters the lowest coefficients are -zeta(2) on the
    # straight word and +zeta(2) on the transposed one.
    a = NCSeries.letter("a", 2)
    b = NCSeries.letter("b", 2)
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

    import math

    for k in range(0, 7):
        got = extract_gamma((k,), table)
        if k % 2:
            want = CoeffElem.zero()
        else:
            want = CoeffElem.pi_pow(1, bernoulli(k) / math.factorial(k))
        assert got == want, k


def test_gamma_anchors(table):
    assert extract_gamma((), table) == CoeffElem.one()
    assert extract_gamma((1, 1), table) == CoeffElem.zero()
    assert extract_gamma((2, 0, 0), table) == CoeffElem.pi_pow(3, F(1, 72))
    assert extract_gamma((0, 1, 0, 0), table) == CoeffElem.symbol("z3", -3).mul_pi(1)


def test_gamma_length_two_closed_form(table):
    import math
    from emzv.coeffring import bernoulli

    for k1 in range(0, 7):
        for k2 in range(0, 7 - k1):
            got = extract_gamma((k1, k2), table)
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
    # "aa" is not in the span of the degree-2 index monomials ab - ba and bb,
    # whichever block is asked for
    for length in range(4):
        with pytest.raises(ExtractionInconsistent, match="degree-2 residual"):
            triangular_index_solve({"aa": {0: 1}}, 2, length)
    # bb is the monomial of (0, 0), in the block (2, 2): the block (2, 1)
    # has no pivot for it, so it stays behind as a residual
    with pytest.raises(ExtractionInconsistent, match="length-1 index monomials on words"):
        triangular_index_solve({"bb": {0: 1}}, 2, 1)
    assert triangular_index_solve({"bb": {0: 1}}, 2, 2) == {(0, 0): {0: 1}}


def fresh_table():
    return loads_mzv_table(dump_mzv_table(shipped_table()))


def test_cold_limit_series_builds_only_the_symbol_scales(monkeypatch):
    # build_phi and nc_exp read their preconditions from the slices, so a
    # cold build builds coefficients only where t and ytilde are multiplied
    # by pi/2 and pi, each coefficient through coeff_mul
    built = []
    real = NCSeries._build
    monkeypatch.setattr(NCSeries, "_build", lambda s: built.append(s) or real(s))
    build_Ainf(6, fresh_table())
    assert len(built) == 2 and all(s.maxdeg == 6 for s in built)


def test_ainf_components_do_not_depend_on_the_build_degree():
    # the precondition of extract_gamma's per-table solve cache
    big = build_Ainf(9, fresh_table())
    for d in range(1, 9):
        want = {w: c for w, c in big.coeffs.items() if len(w) <= d}
        assert build_Ainf(d, fresh_table()).coeffs == want, d


def test_cut_build_is_the_full_build_without_its_longer_b_words():
    # every D <= 9 and 0 <= B <= D + 2, each on a fresh table: the cut build
    # (the products cut by coefficient weight) keeps exactly the full
    # build's words with at most B letters b, on every monomial, and reads
    # no binary word longer than B (B >= D cuts nothing: that is the full
    # build)
    for D in range(1, 10):
        full = build_Ainf(D, fresh_table())
        for B in range(0, D + 3):
            t = fresh_table()
            cut = build_Ainf(D, t, max_b=B)
            want = {w: c for w, c in full.coeffs.items() if w.count("b") <= B}
            assert cut.maxdeg == D and cut.coeffs == want, (D, B)
            assert cut == NCSeries(D, want), (D, B)
            assert max(map(len, t.caches.get("reg", ())), default=0) <= B, (D, B)


def test_cut_build_reads_fewer_regularized_values(monkeypatch):
    import emzv.ncalg as ncalg

    reads = []
    real = ncalg.shuffle_regularize
    monkeypatch.setattr(ncalg, "shuffle_regularize", lambda w, t: reads.append(w) or real(w, t))
    for B, want in ((4, 30), (None, 142)):
        reads.clear()
        build_Ainf(9, fresh_table(), max_b=B)
        assert len(reads) == want, B
    with pytest.raises(ValueError):
        build_Ainf(3, fresh_table(), max_b=-1)


def test_a_build_caches_no_series():
    # build_Ainf is a pure function of (maxdeg, table, max_b): whatever it
    # builds, in whatever order, the table holds only regularized values
    t = fresh_table()
    for D, B in ((9, None), (8, 3), (9, 4), (5, None), (3, 7), (9, None)):
        build_Ainf(D, t, max_b=B)
        assert set(t.caches) == {"reg"}, (D, B)


@pytest.mark.parametrize("order", ["decreasing", "increasing"])
def test_constants_build_the_series_only_above_every_solved_degree(monkeypatch, order):
    # every index of degree <= 9 on a fresh table: in decreasing degree
    # order one build serves them all; in increasing order each degree
    # builds once (degree 0 reads the build at degree 1), and every
    # constant equals one read from a single build at degree 9
    import emzv.ncalg as ncalg

    degrees = []
    real = ncalg.build_Ainf
    monkeypatch.setattr(
        ncalg, "build_Ainf", lambda D, t, max_b=None: degrees.append(D) or real(D, t, max_b)
    )
    blocks = {(g, w) for g in range(10) for w in range(g + 1)}
    reference = fresh_table()
    want = {j: extract_gamma(j, reference) for d in range(9, -1, -1) for j in compositions_of(d)}
    assert degrees == [9] and set(reference.caches["solve"]) == blocks
    degrees.clear()
    t = fresh_table()
    for d in sorted(range(10), reverse=order == "decreasing"):
        for j in compositions_of(d):
            assert extract_gamma(j, t) == want[j], j
    assert degrees == ([9] if order == "decreasing" else list(range(1, 10)))
    assert set(t.caches) == {"reg", "solve"}


def test_concurrent_constants_on_a_cold_table():
    # two threads on one cold table ask for every degree <= 9 in opposite
    # orders; each block's constants are stored once, first writer wins,
    # and every constant equals a single-threaded run
    import sys
    import threading

    reference = fresh_table()
    want = {j: extract_gamma(j, reference) for d in range(9, -1, -1) for j in compositions_of(d)}
    t = fresh_table()
    results, errors = [{}, {}], []
    start = threading.Barrier(2)
    seen = [{}, {}]  # each thread's view of the stored entry of each block

    def worker(i):
        try:
            start.wait(timeout=60)
            for d in sorted(range(10), reverse=i == 1):
                for j in compositions_of(d):
                    results[i][j] = extract_gamma(j, t)
                    seen[i][d, len(j)] = t.caches["solve"][d, len(j)]
        except BaseException as exc:  # reported below, not lost in the thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads' builds, solves and stores finely
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=300)
    finally:
        sys.setswitchinterval(old)
    assert not errors and not any(th.is_alive() for th in threads)
    blocks = {(g, w) for g in range(10) for w in range(g + 1)}
    assert set(t.caches) == {"reg", "solve"} and set(t.caches["solve"]) == blocks
    asked = {(d, len(j)) for d in range(10) for j in compositions_of(d)}
    assert set(seen[0]) == set(seen[1]) == asked
    for block in seen[0]:
        assert seen[0][block] is seen[1][block] is t.caches["solve"][block], block
    for got in results:
        assert got == want


def test_cut_build_keeps_the_degree_guard():
    # the cut build reads only values of weight <= max_b, and its guard is
    # min(D - 1, max_b): degree 10 cut at 2 letters b builds on the
    # weight-8 table, as its full build's words with at most 2 b's; the full
    # build at degree 10 needs weight 9, and so does the cut at 9 b's
    t = fresh_table()
    cut = build_Ainf(10, t, max_b=2)
    below = {w: c for w, c in cut.coeffs.items() if len(w) <= 9}
    full9 = build_Ainf(9, fresh_table())
    assert below == {w: c for w, c in full9.coeffs.items() if w.count("b") <= 2}
    assert any(len(w) == 10 for w in cut.coeffs) and max(map(len, t.caches["reg"])) == 2
    for max_b in (None, 9):
        with pytest.raises(TableOverflow, match="needs a table of weight >= 9"):
            build_Ainf(10, fresh_table(), max_b=max_b)


def test_extract_gamma_agrees_across_build_degrees():
    # one table whose limit series was first built at degree 9, against a
    # fresh table per degree that builds it at the index's own degree
    shared = fresh_table()
    build_Ainf(9, shared)
    for d in range(1, 10):
        own = fresh_table()
        for idx in compositions_of(d):
            assert extract_gamma(idx, shared) == extract_gamma(idx, own), idx


def test_triangular_solve_recovers_random_combinations():
    # Build random combinations of the index monomials and check exact
    # recovery of every coefficient (the spec for the back-substitution),
    # on one-column integer vectors and on the vectors of e-word
    # polynomials with zeta coefficients.
    rng = random.Random(404)
    for degree in range(1, 10):
        for length in range(1, degree + 1):
            comps = graded_words(length, degree - length)
            for _ in range(4):
                want = {j: rng.randint(-9, 9) for j in comps}
                want = {j: {0: x} for j, x in want.items() if x}
                solved = triangular_index_solve(_combination(want), degree, length)
                assert solved == want, (degree, length)
            want = {}
            for j in rng.sample(comps, min(len(comps), 12)):
                coeff = CoeffElem.symbol("z3", F(rng.randint(1, 9), rng.randint(1, 4)))
                poly = EPoly({(rng.choice((0, 2, 4)),): coeff.mul_pi(rng.randint(0, 2))})
                want[j] = _epoly_vector(poly)
            solved = triangular_index_solve(_combination(want), degree, length)
            assert solved == want, (degree, length)


def test_compositions_and_pure_words():
    assert compositions_of(0) == [()]
    assert set(compositions_of(3)) == {(2,), (0, 1), (1, 0), (0, 0, 0)}
    assert pure_word((0, 1, 0, 0)) == "bbabb"
    assert index_monomial((0, 1, 0, 0)) == {"bbabb": F(1), "bbbab": F(-1)}


def test_index_degree_is_weight_plus_length():
    indices = [j for d in range(10) for j in compositions_of(d)]
    assert len(indices) == 2**9  # every index of degree <= 9
    for j in indices:
        assert index_degree(j) == sum(j) + len(j)
    assert index_degree(()) == 0


def test_required_table_weight():
    # min(degree - 1, length): the whole series at degree d needs d - 1, an
    # index's constant needs at most its length
    from emzv.ncalg import required_table_weight

    assert required_table_weight(10) == 9 and required_table_weight(9) == 8
    assert required_table_weight(10, 2) == 2  # the index (4, 4)
    assert required_table_weight(10001, 2) == 2  # the index (9999, 0)
    assert required_table_weight(10, 9) == 9  # (0, ..., 0, 1), length 9
    assert required_table_weight(9, 9) == 8  # (0, ..., 0), length 9
    assert required_table_weight(0, 0) == -1  # the empty index


# ---------------------------------------------------------------------------
# Differential tests: the integer constant-term solve against the per-term
# solve on CoeffElem values that it replaced.


def reference_triangular_index_solve(component, degree):
    work = dict(component)
    out = {}
    comps = sorted(compositions_of(degree), key=lambda j: tuple(reversed(j)), reverse=True)
    for j in comps:
        x = work.get(pure_word(j))
        out[j] = x
        if not x:
            continue
        terms = index_monomial(j).items()
        accumulate(work, ((w, x.scale(-q)) for w, q in terms))
    leftovers = [w for w, v in work.items() if v]
    if leftovers:
        raise ExtractionInconsistent(f"residual on {sorted(leftovers)[:4]}")
    return out


def whole_degree_plan(degree):
    """The elimination plan of a whole degree, as one walk over every
    composition; the reference of the per-block plans."""
    comps = sorted(compositions_of(degree), key=lambda j: tuple(reversed(j)), reverse=True)
    plan = []
    for j in comps:
        pure = pure_word(j)
        rest = tuple((w, -q) for w, q in index_monomial(j).items() if w != pure)
        plan.append((j, pure, rest))
    return tuple(plan)


def test_block_plans_are_the_whole_degree_plan():
    # each length's plan is the whole-degree plan restricted to that length,
    # in its order, and the blocks of a degree together are the whole plan
    for degree in range(0, 11):
        whole = whole_degree_plan(degree)
        blocks = {n: _solve_plan(degree, n) for n in range(degree + 2)}
        for n, plan in blocks.items():
            assert plan == tuple(step for step in whole if len(step[0]) == n), (degree, n)
            for j, pure, rest in plan:
                assert all(w.count("b") == n for w in [pure] + [w for w, _ in rest])
        assert sum(len(p) for p in blocks.values()) == len(whole) == 2 ** max(degree - 1, 0)


def push_triangular_index_solve(component, degree):
    """The solve as it pushed every pivot into the later words, one +
    per (pivot, word), along the whole-degree plan, on scalar values (int,
    or EPoly with its scale); the reference of the vector solve, applied
    column by column, and of its per-block walk."""
    work = dict(component)
    out = {}
    for j, pure, rest in whole_degree_plan(degree):
        x = work.pop(pure, None)
        if not x:
            continue
        out[j] = x
        times = getattr(type(x), "scale", operator.mul)
        accumulate(work, ((w, times(x, q)) for w, q in rest))
    leftovers = [w for w, v in work.items() if v]
    if leftovers:
        raise ExtractionInconsistent(f"residual on {sorted(leftovers)[:4]}")
    return out


def push_solve_by_columns(component, degree):
    """:func:`push_triangular_index_solve` on each column of a component of
    integer vectors, its solutions gathered back into vectors."""
    columns = {}
    for w, v in component.items():
        for col, n in v.items():
            columns.setdefault(col, {})[w] = n
    out = {}
    for col, scalars in columns.items():
        for j, n in push_triangular_index_solve(scalars, degree).items():
            out.setdefault(j, {})[col] = n
    return out


def _epoly_vector(poly):
    """An e-word polynomial as the derivation route's integer vector:
    (monomial, denominator, e-word) -> numerator, read from its slices."""
    return {
        (mono, den, w): n
        for mono, (den, buckets) in poly.slices().items()
        for _, terms in buckets
        for w, n in terms
    }


def _vector_epoly(vector):
    """The inverse of :func:`_epoly_vector`, through the validating constructors."""
    coeffs = {}
    for (mono, den, w), n in vector.items():
        accumulate(coeffs.setdefault(w, {}), [(mono, F(n, den))])
    return EPoly({w: CoeffElem(t) for w, t in coeffs.items()})


def _random_values(rng, comps, kind):
    """Random nonzero solution vectors on a random subset of the compositions:
    one integer column, or the vector of an e-word polynomial."""
    out = {}
    for j in rng.sample(comps, min(len(comps), rng.randint(1, 12))):
        q = F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
        if kind == "int":
            out[j] = {0: rng.randint(1, 9) * rng.choice((-1, 1))}
        else:
            words = {
                tuple(rng.choice((0, 2, 4)) for _ in range(rng.randint(0, 2))) for _ in range(3)
            }
            coeffs = {w: CoeffElem.symbol("z3", q).mul_pi(rng.randint(0, 2)) for w in words}
            coeffs[()] = CoeffElem.from_rational(q)
            out[j] = _epoly_vector(EPoly(coeffs))
    return out


def _combination(want):
    """word -> the integer vector sum_j q * x_j over the words q * w of the
    index monomials, words whose vector cancels dropped."""
    out = {}
    for j, x in want.items():
        for w, q in index_monomial(j).items():
            accumulate(out.setdefault(w, {}), ((col, q * n) for col, n in x.items()))
    return {w: v for w, v in out.items() if v}


@pytest.mark.parametrize("kind", ["int", "epoly"])
def test_triangular_solve_matches_push_loop(kind):
    rng = random.Random(2211)
    for degree in range(1, 10):
        for length in range(1, degree + 1):
            comps = graded_words(length, degree - length)
            for _ in range(3):
                want = _random_values(rng, comps, kind)
                component = _combination(want)
                got = triangular_index_solve(component, degree, length)
                assert got == push_solve_by_columns(component, degree) == want, (
                    degree,
                    length,
                )


def test_vector_solve_matches_the_push_loop_on_every_block():
    # every block (d, n) of degree <= 9, each composition with a random
    # integer vector over a few shared columns; and the negative control:
    # one column perturbed on a word ending in "a" (no pure word) leaves a
    # residual in the vector solve and in the push loop alike
    rng = random.Random(33)
    columns = [(MONOMIAL_ONE, 1, ()), (MONOMIAL_ONE, 3, (2,)), "x", 7, ("z3", 4)]
    checked = 0
    for degree in range(10):
        for length in range(degree + 1):
            comps = graded_words(length, degree - length)
            want = {}
            for j in comps:
                cols = rng.sample(columns, rng.randint(1, len(columns)))
                want[j] = {c: rng.choice((-1, 1)) * rng.randint(1, 10**6) for c in cols}
            component = _combination(want)
            got = triangular_index_solve(component, degree, length)
            assert got == push_solve_by_columns(component, degree) == want, (degree, length)
            words = sorted(w for w in component if w.endswith("a"))
            if not words:
                continue
            vector = dict(component[words[0]])
            col = rng.choice(sorted(vector, key=repr))
            vector[col] += 1
            bad = {**component, words[0]: vector}
            with pytest.raises(ExtractionInconsistent, match=f"degree-{degree} residual"):
                triangular_index_solve(bad, degree, length)
            with pytest.raises(ExtractionInconsistent):
                push_solve_by_columns(bad, degree)
            checked += 1
    # every block 1 <= n < d has a composition with k_1 > 0, whose words end in "a"
    assert checked == sum(d - 1 for d in range(2, 10)), checked


def test_epoly_solve_adds_at_most_once_per_word(monkeypatch):
    # the derivation route solves integer vectors and builds each index's
    # polynomial once, with one + per coefficient monomial of it; the push
    # loop on the words' polynomials calls + for every term of a pivot's
    # monomial that lands on a word already holding a value
    from emzv.decomp import _eps_word_cells, gseries_decompose, indices_upto

    t = fresh_table()
    blocks = {(index_degree(j), len(j)) for j in indices_upto(3, 4) if j}
    cells = _eps_word_cells(build_Ainf(7, t, max_b=3), blocks, t)
    components = {block: {w: _vector_epoly(v) for w, v in c.items()} for block, c in cells.items()}
    adds = []
    plain_add = EPoly.__add__
    monkeypatch.setattr(EPoly, "__add__", lambda x, y: adds.append(1) or plain_add(x, y))
    got = gseries_decompose(3, 4, t)
    once = len(adds)
    monomials = sum(len(p.slices()) for j, p in got.items() if j)
    adds.clear()
    pushed = 0
    for (d, n), component in components.items():
        for j, x in push_triangular_index_solve(component, d).items():
            assert got[j] == (x if n % 2 == 0 else -x), j
            pushed += 1
    assert pushed == sum(1 for p in got.values() if p) - 1  # all but the empty index
    assert 0 < once <= monomials < len(adds), (once, monomials, len(adds))


def test_triangular_solve_rejects_one_perturbed_epoly_word():
    # negative control: a word ending in "a" is no pure word, so the
    # component's projection onto the pure words fixes the solution, and
    # any change on such a word leaves a residual
    rng = random.Random(7)
    checked = 0
    for degree in range(3, 10):
        for length in range(1, degree):
            want = _random_values(rng, graded_words(length, degree - length), "epoly")
            component = _combination(want)
            assert triangular_index_solve(component, degree, length) == want
            words = [w for w in component if w.endswith("a")]
            if not words:
                continue
            word = min(words)
            # one column on the word changed by 1/3 on the e-word e2
            bad = dict(component)
            bad[word] = accumulate(dict(component[word]), [((MONOMIAL_ONE, 3, (2,)), 1)])
            # and with the word dropped: only the pivots' contributions reach it
            dropped = {w: x for w, x in component.items() if w != word}
            for perturbed in (bad, dropped):
                with pytest.raises(ExtractionInconsistent):
                    triangular_index_solve(perturbed, degree, length)
                with pytest.raises(ExtractionInconsistent):
                    push_solve_by_columns(perturbed, degree)
            checked += 1
    assert checked == 34, checked  # 34 of the 35 blocks have such a word


def test_extract_gamma_matches_reference_solve():
    t = fresh_table()
    ainf = build_Ainf(9, t)
    for d in range(1, 10):
        want = reference_triangular_index_solve(ainf.component(d), d)
        assert set(want) == set(compositions_of(d))
        for idx, x in want.items():
            x = x or CoeffElem.zero()
            assert extract_gamma(idx, t) == (x if len(idx) % 2 == 0 else -x), idx


def _planting(monkeypatch, word, coeff):
    """build_Ainf with one term added, dropped at a degree below the word's."""
    import emzv.ncalg as ncalg

    real = ncalg.build_Ainf
    def planted(D, t, max_b=None):
        return real(D, t, max_b) + NCSeries(D, {word: coeff})

    monkeypatch.setattr(ncalg, "build_Ainf", planted)


def test_extract_gamma_rejects_symbol_term_outside_span(monkeypatch):
    # every word of an index monomial has a b, so z3 on aaaaa is outside
    # their span; the residual check of the z3 slice must see it
    t = fresh_table()
    _planting(monkeypatch, "aaaaa", CoeffElem.symbol("z3"))
    with pytest.raises(ExtractionInconsistent):
        extract_gamma((0, 1, 0, 0), t)
    assert extract_gamma((0, 1, 0), t) == extract_gamma((0, 1, 0), fresh_table())


def test_extract_gamma_rejects_a_term_of_the_wrong_weight(monkeypatch):
    # bb lies in the span (it is the monomial of (0, 0)), but z3 on it is a
    # weight-3 term on a word with two b's: the z3 slice is solved as the
    # block (2, 3), which has no pivot for bb
    t = fresh_table()
    _planting(monkeypatch, "bb", CoeffElem.symbol("z3"))
    with pytest.raises(ExtractionInconsistent, match="length-3 index monomials on words"):
        extract_gamma((0, 0), t)


def test_limit_series_is_homogeneous():
    # the grading the cut, the constant solve and the derivation route read:
    # every word on a coefficient monomial has as many letters b as the
    # monomial's weight, in the full build and in every cut build
    for D in range(1, 10):
        for B in range(D + 1):
            t = fresh_table()
            series = build_Ainf(D, t, max_b=B)
            for mono, (_, buckets) in series.slices().items():
                weight = mono.weight(t.symbols)
                assert weight <= B, (D, B, mono)
                for _, terms in buckets:
                    assert all(w.count("b") == weight for w, _ in terms), (D, B, mono)


# ---------------------------------------------------------------------------
# Differential tests: the monomial-sliced kernels against the per-term code
# they replaced.


def reference_nc_mul(x, y, table=None):
    """The per-term product that the monomial-sliced kernel replaced."""
    if x.maxdeg != y.maxdeg:
        raise DegreeMismatch(f"maxdeg {x.maxdeg} != {y.maxdeg}")
    D = x.maxdeg
    acc = {}
    for w1, c1 in x.coeffs.items():
        room = D - len(w1)
        for w2, c2 in y.coeffs.items():
            if len(w2) > room:
                continue
            w = w1 + w2
            p = coeff_mul(c1, c2, table)
            s = acc.get(w, CoeffElem.zero()) + p
            if s.is_zero():
                acc.pop(w, None)
            else:
                acc[w] = s
    return NCSeries(D, acc)


def reference_build_phi(x, y, D, table):
    """The associator that added subst.scale(c) into a full series per node.

    Its own copy of the convention: x -> B, y -> A, the binary word read
    right-to-left, and the sign (-1)^(number of y's).
    """
    letter = {0: "B", 1: "A"}
    big = D + 1
    mindeg = {0: x.min_degree() or big, 1: y.min_degree() or big}
    arg = {0: NCSeries(D, x.coeffs), 1: NCSeries(D, y.coeffs)}
    acc = NCSeries.one(D)

    def visit(word, subst, degree_floor):
        nonlocal acc
        if word:
            n_y = sum(word)
            bin_word = "".join(letter[l] for l in word)[::-1]
            c = shuffle_regularize(bin_word, table)
            if not c.is_zero():
                if n_y % 2:
                    c = -c
                acc = acc + subst.scale(c, table)
        for l in (0, 1):
            nd = degree_floor + mindeg[l]
            if nd > D:
                continue
            nxt = reference_nc_mul(subst, arg[l], table)
            if nxt.is_zero():
                continue
            visit(word + (l,), nxt, nd)

    visit((), NCSeries.one(D), 0)
    return acc


def _outcome(fn, *args):
    try:
        return fn(*args)
    except TableOverflow:
        return TableOverflow


_WORDS = ["", "a", "b", "ab", "ba", "bb", "aab", "bab", "abba", "babab"]


def _rational_series(maxdeg):
    vals = st.fractions(min_value=-6, max_value=6, max_denominator=8)
    return st.dictionaries(st.sampled_from(_WORDS), vals, max_size=7).map(
        lambda d: NCSeries(maxdeg, {w: CoeffElem.from_rational(q) for w, q in d.items()})
    )


_MONOMIALS = (
    MzvMonomial(0, ()),
    MzvMonomial(2, ()),
    MzvMonomial(0, ("z3",)),
    MzvMonomial(1, ("z3",)),
    MzvMonomial(0, ("z5",)),
    MzvMonomial(0, ("z3", "z3")),
    MzvMonomial(0, ("z7",)),
)


def _symbol_coeff():
    return st.dictionaries(
        st.sampled_from(_MONOMIALS),
        st.fractions(min_value=-6, max_value=6, max_denominator=6),
        min_size=1,
        max_size=3,
    ).map(CoeffElem)


def _symbol_series(maxdeg):
    return st.dictionaries(st.sampled_from(_WORDS), _symbol_coeff(), max_size=6).map(
        lambda d: NCSeries(maxdeg, d)
    )


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 6).flatmap(lambda D: st.tuples(_rational_series(D), _rational_series(D))))
def test_mul_matches_reference_on_rational_series(pair):
    x, y = pair
    assert nc_mul(x, y) == reference_nc_mul(x, y)
    assert nc_mul(y, x) == reference_nc_mul(y, x)


@settings(max_examples=80, deadline=None)
@given(_symbol_series(5), _symbol_series(5), st.booleans())
def test_mul_matches_reference_on_symbol_series(x, y, with_table):
    # equal products, and TableOverflow from exactly the same operands, with
    # the w8 table and with none
    table = shipped_table() if with_table else None
    assert _outcome(nc_mul, x, y, table) == _outcome(reference_nc_mul, x, y, table)
    assert _outcome(nc_mul, y, x, table) == _outcome(reference_nc_mul, y, x, table)


def test_mul_overflow_parity(table):
    def sym(D, *terms):
        return NCSeries(D, {w: CoeffElem.symbol(name) for w, name in terms})

    # z5 * z5 has weight 10 > 8: raised only if the two words meet within maxdeg
    for D in (5, 6):
        x, y = sym(D, ("aa", "z5")), sym(D, ("bab", "z5"))
        for f, g in ((x, y), (y, x)):
            with pytest.raises(TableOverflow):
                reference_nc_mul(f, g, table)
            with pytest.raises(TableOverflow):
                nc_mul(f, g, table)
    # the only meeting lies at degree 5 > maxdeg: no product, no overflow
    x, y = sym(4, ("aa", "z5"), ("", "z3")), sym(4, ("bab", "z5"), ("b", "z3"))
    assert nc_mul(x, y, table) == reference_nc_mul(x, y, table)
    prod = nc_mul(x, y, table)
    assert prod.coefficient("b") == CoeffElem({MzvMonomial(0, ("z3", "z3")): 1})
    assert prod.coefficient("aab") == CoeffElem({MzvMonomial(0, ("z3", "z5")): 1})
    assert set(prod.coeffs) == {"b", "aab", "bab"}
    # symbols without any table
    bare = NCSeries(3, {"a": CoeffElem.symbol("z3")})
    with pytest.raises(TableOverflow):
        nc_mul(bare, bare)


@pytest.mark.parametrize("D", range(1, 10))
def test_phi_matches_reference(table, D):
    a = NCSeries.letter("a", D)
    b = NCSeries.letter("b", D)
    t = -nc_bracket(a, b)
    y = build_ytilde(D)
    assert build_phi(y, t, D, table) == reference_build_phi(y, t, D, table)


@pytest.mark.parametrize("D", (4, 5, 6))
def test_phi_matches_reference_on_symbol_arguments(table, D):
    # symbol-bearing arguments: the same series, or TableOverflow on both sides
    a = NCSeries.letter("a", D)
    b = NCSeries.letter("b", D)
    t = -nc_bracket(a, b)
    y = build_ytilde(D)
    for x_arg, y_arg in (
        (y.scale(CoeffElem.symbol("z3")), t),
        (y, t.scale(CoeffElem.symbol("z5"))),
        (y + a.scale(CoeffElem.pi_pow(1, 3)), t.scale(CoeffElem.symbol("z3"))),
    ):
        got = _outcome(build_phi, x_arg, y_arg, D, table)
        assert got == _outcome(reference_build_phi, x_arg, y_arg, D, table)


def test_phi_overflow_parity_in_accumulation(table):
    # With t scaled by z3 the word walk stays within the cap up to degree 5,
    # but at degree 5 the word x y y carries z3^2 against a weight-3 value.
    def args(D):
        a = NCSeries.letter("a", D)
        b = NCSeries.letter("b", D)
        t = -nc_bracket(a, b)
        return build_ytilde(D), t.scale(CoeffElem.symbol("z3")), D, table

    assert build_phi(*args(4)) == reference_build_phi(*args(4))
    with pytest.raises(TableOverflow):
        reference_build_phi(*args(5))
    with pytest.raises(TableOverflow, match="weight 9"):
        build_phi(*args(5))


@settings(max_examples=80, deadline=None)
@given(
    _symbol_series(4),
    _symbol_series(4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    _symbol_coeff(),
)
def test_unvalidated_results_match_validating_constructor(x, y, q, c):
    # the operations that skip re-validation build what the constructor would
    D, table = x.maxdeg, shipped_table()
    words = set(x.coeffs) | set(y.coeffs)
    assert x + y == NCSeries(D, {w: x.coefficient(w) + y.coefficient(w) for w in words})
    assert -x == NCSeries(D, {w: -v for w, v in x.items()})
    assert x.scale(q) == NCSeries(D, {w: v.scale(q) for w, v in x.items()})
    scaled = _outcome(x.scale, c, table)
    assert scaled == _outcome(
        lambda: NCSeries(D, {w: coeff_mul(v, c, table) for w, v in x.items()})
    )
    assert NCSeries(D, x.coeffs) == x
    product = _outcome(nc_mul, x, y, table)
    for s in (x + y, -x, x.scale(q), scaled, product):
        if s is not TableOverflow:
            assert all(len(w) <= s.maxdeg and not v.is_zero() for w, v in s.items())
    assert x.scale(0).is_zero() and x.scale(CoeffElem.zero()).is_zero()
    assert (x - x).is_zero()
    # a rational CoeffElem scales as its Fraction, with or without a table;
    # a zero scalar keeps the truncation
    r = CoeffElem.from_rational(q)
    assert x.scale(r) == x.scale(r, table) == x.scale(q)
    assert x.scale(CoeffElem.zero(), table) == x.scale(F(0)) == NCSeries.zero(D)
    # a word beyond the truncation is dropped, and its coefficient is zero
    long = "ab" * D + "b"
    assert NCSeries(D, {long: c}).is_zero()
    assert x.coefficient(long) == (x + y).coefficient(long) == CoeffElem.zero()


@pytest.mark.parametrize("D, weight", ((10, 9), (11, 10)))
def test_phi_beyond_the_table_raises_at_the_read(table, D, weight):
    # the longest mixed word surviving degree D has weight D - 1
    t = -nc_bracket(NCSeries.letter("a", D), NCSeries.letter("b", D))
    with pytest.raises(TableOverflow, match=f"weight {weight} exceeds cap 8"):
        build_phi(build_ytilde(D), t, D, table)


def test_phi_at_the_table_cap(table):
    D = 9
    t = -nc_bracket(NCSeries.letter("a", D), NCSeries.letter("b", D))
    phi = build_phi(build_ytilde(D), t, D, table)
    assert max(len(w) for w in phi.coeffs) == D


def test_index_monomial_words_have_one_b_per_entry():
    # the (degree, length) blocks of the derivation route: every word of an
    # index monomial of length n has exactly n letters b
    for d in range(10):
        for j in compositions_of(d):
            words = index_monomial(j)
            assert words and all(w.count("b") == len(j) for w in words), j
