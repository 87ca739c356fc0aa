import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emzv.coeffring import CoeffElem, bernoulli, integer_slices, shipped_table
from emzv import derlie
from emzv.derlie import (
    LieDerivation,
    NCDerivation,
    _candidate_x_value,
    _eps_lyndon_candidates,
    _eps_value,
    annihilates,
    assoc_bracket,
    build_D_derivation,
    eps_apply,
    eps_derivation,
    eps_nc,
    eps_tilde_scale,
    eps_word_image,
    expand_lyndon,
    find_lie_relations,
    fourier_membership,
    lyndon_words,
    relation_tensor_elements,
    standard_factorization,
    to_E0_basis,
    uu_dual_membership,
)
from emzv.eisalg import EPoly, epoly_mul, shuffle_words
from emzv.decomp import decompose, indices_upto
from emzv.linalg import RatMatrix, kernel_basis, rref
from emzv.ncalg import NCSeries, build_Ainf, build_ytilde, nc_bracket
from emzv.words import graded_words

F = Fraction


def _apply_eps_word(word, elem):
    """eps_{w_1} ... eps_{w_n} applied to elem (the last letter acts first)."""
    for k2 in reversed(word):
        elem = eps_derivation(k2).apply(elem)
    return elem


def test_lyndon_words_small():
    words = [w for w in lyndon_words(4) if len(w) <= 3]
    assert words == sorted(
        ["x", "y", "xy", "xxy", "xyy"], key=lambda s: (len(s), s)
    )
    assert standard_factorization("xxy") == ("x", "xy")
    assert standard_factorization("xyxyy") == ("xy", "xyy")


def test_lyndon_words_count_the_necklaces():
    assert lyndon_words(0) == []
    words = lyndon_words(10)
    counts = [sum(len(w) == n for w in words) for n in range(1, 11)]
    assert counts == [2, 1, 2, 3, 6, 9, 18, 30, 56, 99]


def test_free_lie_dimensions():
    words = lyndon_words(8)
    assert [sum(len(w) == d for w in words) for d in range(1, 9)] == [2, 1, 2, 3, 6, 9, 18, 30]


def test_expand_and_coords_roundtrip():
    # triangular: each Lyndon word leads its own expansion with coefficient 1
    for w in lyndon_words(6):
        e = expand_lyndon(w)
        assert min(e) == w and e[w] == 1


def test_eps0_on_generators():
    d = eps_derivation(0)
    assert d.val_x == {"y": F(1)}
    assert d.val_y == {}


def test_eps2_is_inner():
    # eps_2 = -ad([x, y]) as derivations: equal on both generators, hence
    # equal as operators in every degree.
    d = eps_derivation(2)
    t = {"xy": F(1), "yx": F(-1)}
    assert d.val_x == assoc_bracket({"x": F(1)}, t)
    assert d.val_y == assoc_bracket({"y": F(1)}, t)


@pytest.mark.parametrize("deg", range(2, 17, 2))
def test_eps2_matches_inner_on_sampled_basis(deg):
    rng = random.Random(20240 + deg)
    words = [w for w in lyndon_words(deg) if len(w) == deg]
    sample = words if len(words) <= 6 else rng.sample(words, 6)
    d = eps_derivation(2)
    t = {"xy": F(1), "yx": F(-1)}
    for w in sample:
        elem = expand_lyndon(w)
        lhs = d.apply(elem)
        rhs = assoc_bracket(elem, t)  # -[t, v] = [v, t]
        assert lhs == rhs


def test_eps4_on_y():
    d = eps_derivation(4)
    want = assoc_bracket({"y": F(1)}, {"xxxy": F(1), "xxyx": F(-3), "xyxx": F(3), "yxxx": F(-1)})
    want2 = assoc_bracket(
        {"xy": F(1), "yx": F(-1)}, {"xxy": F(1), "xyx": F(-2), "yxx": F(1)}
    )
    got = dict(want)
    for w, q in want2.items():
        got[w] = got.get(w, F(0)) - q
        if not got[w]:
            del got[w]
    assert d.val_y == got


def test_eps_annihilates_t():
    t = {"xy": F(1), "yx": F(-1)}
    for k in range(0, 13, 2):
        assert eps_derivation(k).apply(t) == {}


@settings(max_examples=30, deadline=None)
@given(
    k=st.sampled_from([0, 2, 4, 6, 8, 10]),
    wu=st.sampled_from([w for w in lyndon_words(4)]),
    wv=st.sampled_from([w for w in lyndon_words(4)]),
)
def test_derivation_law(k, wu, wv):
    d = eps_derivation(k)
    u = expand_lyndon(wu)
    v = expand_lyndon(wv)
    lhs = d.apply(assoc_bracket(u, v))
    rhs = assoc_bracket(d.apply(u), v)
    for w, q in assoc_bracket(u, d.apply(v)).items():
        rhs[w] = rhs.get(w, F(0)) + q
        if not rhs[w]:
            del rhs[w]
    assert lhs == rhs


def _lyndon_coords(elem: dict) -> dict:
    """Coordinates of a Lie element in the Lyndon basis, peeled off by the
    triangularity of expand_lyndon (the smallest word left is Lyndon)."""
    rest, coords = dict(elem), {}
    while rest:
        w = min(rest)
        assert w in lyndon_words(len(w))
        c = coords[w] = rest[w]
        for u, q in expand_lyndon(w).items():
            rest[u] = rest.get(u, F(0)) - c * q
            if not rest[u]:
                del rest[u]
    return coords


def test_eps_apply_and_truncation():
    x, y = {"x": F(1)}, {"y": F(1)}
    assert _apply_eps_word((0,), x) == y
    assert _apply_eps_word((0,), y) == {}
    xxy = {"xxy": F(1), "xyx": F(-2), "yxx": F(1)}
    assert _apply_eps_word((2,), x) == xxy == assoc_bracket(x, assoc_bracket(x, y))
    assert _lyndon_coords(xxy) == {"xxy": F(1)}
    # no truncation: eps_8 x = ad(x)^8 y is exact, all of degree 9
    e8x = _apply_eps_word((8,), x)
    assert e8x and {len(w) for w in e8x} == {9}


def test_word_operator_examples():
    t = {"xy": F(1), "yx": F(-1)}
    assert _apply_eps_word((2,), t) == {}
    assert _apply_eps_word((0, 0), {"x": F(1)}) == {}
    v = {"xy": F(2), "yx": F(-2), "x": F(-3)}
    assert _apply_eps_word((), v) == v


def test_word_operator_matrix_blocks():
    def block(word, deg):
        rows = [w for w in lyndon_words(deg + sum(word)) if len(w) == deg + sum(word)]
        cols = [w for w in lyndon_words(deg) if len(w) == deg]
        images = [_lyndon_coords(_apply_eps_word(word, expand_lyndon(c))) for c in cols]
        return RatMatrix.from_rows([[im.get(r, F(0)) for im in images] for r in rows])

    m = block((2,), 2)  # degree 2 -> 4: [x,y] -> 0
    assert m.rows == 3 and m.cols == 1
    assert all(q == 0 for q in m.entries)
    m1 = block((2,), 1)  # x -> [x,[x,y]], y -> [y,[x,y]] = -[[x,y],y]
    assert m1 == RatMatrix.from_rows([[1, 0], [0, -1]])
    # eps_0 eps_2: x -> [y,[x,y]], y -> 0
    assert block((0, 2), 1) == RatMatrix.from_rows([[0, 0], [-1, 0]])


def test_eisenstein_relations():
    for k2 in range(0, 11, 2):
        if k2 == 2:
            continue
        pair = (min(2, k2), max(2, k2))
        rel = find_lie_relations(2 + k2, 2, candidates=[pair])
        assert rel.vectors == ((F(1),),), k2


def test_ihara_takao_relation():
    rel = find_lie_relations(14, 2, candidates=[(4, 10), (6, 8)])
    assert len(rel.vectors) == 1
    a, b = rel.vectors[0]
    assert (a, b) in {(F(1), F(-3)), (F(-1, 3), F(1))}
    # normalized: a = 1, b = -3
    assert a / a == 1 and b / a == -3


def test_list_candidates_match_tuple_candidates():
    listed = find_lie_relations(14, 2, candidates=[[4, 10], [6, 8]])
    mixed = find_lie_relations(14, 2, candidates=([4, 10], (6, 8)))
    tupled = find_lie_relations(14, 2, candidates=[(4, 10), (6, 8)])
    assert listed == mixed == tupled
    assert listed.candidates == ("[eps4,eps10]", "[eps6,eps8]")
    assert len(listed.vectors) == 1
    assert listed.to_doc()["lie_degrees"] == "exact"


def test_full_weight14_depth2_kernel():
    rel = find_lie_relations(14, 2)
    # candidates: (0,14), (2,12), (4,10), (6,8); kernel: [eps2, eps12] and
    # the (1,-3) combination
    assert rel.candidates == (
        "[eps0,eps14]",
        "[eps2,eps12]",
        "[eps4,eps10]",
        "[eps6,eps8]",
    )
    assert len(rel.vectors) == 2


def test_depth_three_relations_from_inner_centrality():
    # every eps annihilates [x, y], so brackets with eps_2 = -ad([x, y])
    # vanish against the whole algebra; at low weight depth-3 kernels
    # consist exactly of the bracket words containing such a factor
    rel = find_lie_relations(8, 3)
    assert len(rel.vectors) == 3
    for vec in rel.vectors:
        support = {rel.candidates[i] for i, q in enumerate(vec) if q}
        assert len(support) == 1
        assert "eps2" in support.pop()


def test_no_spurious_depth2_relations():
    # weight 10 depth 2: [eps0,eps10], [eps2,eps8], [eps4,eps6]; only the
    # eps2 bracket vanishes
    rel = find_lie_relations(10, 2)
    assert len(rel.vectors) == 1
    vec = rel.vectors[0]
    nz = [i for i, q in enumerate(vec) if q]
    assert nz == [rel.candidates.index("[eps2,eps8]")]


def test_membership_examples():
    e24 = EPoly.word((2, 4)) - EPoly.word((4, 2))
    assert uu_dual_membership(e24) == {(2, 6): False}
    sh = shuffle_words((2,), (4,))
    assert uu_dual_membership(sh) == {(2, 6): True}
    w_elem = EPoly.word((10, 4), 3) + EPoly.word((8, 6))
    assert uu_dual_membership(w_elem) == {(2, 14): True}
    bad = EPoly.word((10, 4))
    assert uu_dual_membership(bad) == {(2, 14): False}


def test_relation_tensor_elements():
    rels = relation_tensor_elements(6, 2)
    assert len(rels) == 1
    # [eps2, eps4] up to scale
    scale = rels[0][(2, 4)]
    assert {w: q / scale for w, q in rels[0].items()} == {
        (2, 4): F(1),
        (4, 2): F(-1),
    }


def test_to_E0_basis_examples():
    # matches the breakdown of the weight-2 length-3 decomposition
    x = EPoly.word((0, 4), -2) + EPoly.word((0, 0), F(-1, 120))
    comb, res = to_E0_basis(x)
    assert comb == {(0, 4): CoeffElem.from_rational(-2)}
    assert res.is_zero()

    x = EPoly.word((0, 0, 4), 6) + EPoly.word((0, 0, 0), F(1, 40))
    comb, res = to_E0_basis(x)
    assert comb == {(0, 0, 4): CoeffElem.from_rational(6)}
    assert res.is_zero()

    x = EPoly.word((0, 4))
    comb, res = to_E0_basis(x)
    assert comb == {(0, 4): CoeffElem.one()}
    # x = E0(0,4) - 1/240 e0e0, so the residual carries the minus sign
    assert res == EPoly.word((0, 0), F(-1, 240))
    assert not res.is_zero()


def test_fourier_membership_examples():
    assert fourier_membership(EPoly.constant(5), 20) is True
    assert fourier_membership(EPoly.word((0,)), 20) is False
    x = EPoly.word((0, 4), -2) + EPoly.word((0, 0), F(-1, 120))
    assert fourier_membership(x, 20) is True


def _random_epoly(rng):
    words = graded_words(0, 0) + graded_words(1, 0) + [
        w for l in (1, 2, 3) for s in (0, 2, 4) for w in graded_words(l, s, step=2)
    ]
    picks = rng.sample(words, rng.randint(1, 4))
    return sum(
        (EPoly.word(w, F(rng.randint(-6, 6), rng.randint(1, 4))) for w in picks),
        EPoly.zero(),
    )


def test_fourier_agrees_with_residual_criterion():
    rng = random.Random(7)
    checked = 0
    for _ in range(100):
        x = _random_epoly(rng)
        _, res = to_E0_basis(x)
        assert fourier_membership(x, 16) == res.is_zero()
        checked += 1
    assert checked == 100


def test_D_derivation_annihilates_structure():
    table = shipped_table()
    for D in (6, 8):
        a = NCSeries.letter("a", D)
        b = NCSeries.letter("b", D)
        t = -nc_bracket(a, b)
        der = build_D_derivation(D)
        ainf = build_Ainf(D, table)
        assert annihilates(der, t)
        assert annihilates(der, build_ytilde(D))
        assert annihilates(der, ainf)
        # negative control: one rational word more and the check must fail
        perturbed = ainf + NCSeries(D, {"ab": CoeffElem.one()})
        assert not annihilates(der, perturbed)


def test_eps_tilde_nc_normalization():
    assert eps_tilde_scale(0) == -1
    assert eps_tilde_scale(4) == 1  # 2/(2k-2)! = 1 for k = 2
    assert eps_tilde_scale(6) == F(1, 12)
    d0 = eps_nc(0)
    assert d0.val_a == {"b": 1}
    assert d0.val_b == {}
    d4 = eps_nc(4)
    assert all(type(q) is int for side in (d4.val_a, d4.val_b) for q in side.values())
    assert {w: eps_tilde_scale(4) * q for w, q in d4.val_a.items()} == {
        "aaaab": F(1), "aaaba": F(-4), "aabaa": F(6), "abaaa": F(-4), "baaaa": F(1)
    }


# ---------------------------------------------------------------------------
# The Fraction-valued derivation engine that the integer one replaced, kept
# as the reference for the generator values of the bracket words


def _frac_concat(x, y):
    out = {}
    for w1, q1 in x.items():
        for w2, q2 in y.items():
            w = w1 + w2
            s = out.get(w, F(0)) + q1 * q2
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return out


def _frac_add(acc, other, scale):
    for w, q in other.items():
        s = acc.get(w, F(0)) + q * scale
        if s:
            acc[w] = s
        else:
            acc.pop(w, None)


def _frac_bracket(x, y):
    out = _frac_concat(x, y)
    _frac_add(out, _frac_concat(y, x), F(-1))
    return out


class _FractionDerivation:
    def __init__(self, val_x, val_y):
        self.val_x = val_x
        self.val_y = val_y

    def apply(self, elem):
        out = {}
        for w, q in elem.items():
            for i, ch in enumerate(w):
                val = self.val_x if ch == "x" else self.val_y
                pre, post = w[:i], w[i + 1 :]
                for sub, qs in val.items():
                    ww = pre + sub + post
                    s = out.get(ww, F(0)) + q * qs
                    if s:
                        out[ww] = s
                    else:
                        out.pop(ww, None)
        return out

    def bracket(self, other):
        vx = self.apply(other.val_x)
        _frac_add(vx, other.apply(self.val_x), F(-1))
        vy = self.apply(other.val_y)
        _frac_add(vy, other.apply(self.val_y), F(-1))
        return _FractionDerivation(vx, vy)


def _frac_ad_x_pow(k):
    return {
        "x" * (k - j) + "y" + "x" * j: F((-1) ** j * math.comb(k, j))
        for j in range(k + 1)
    }


def _frac_eps(k2):
    val_y = {}
    for j in range(k2 // 2):
        term = _frac_bracket(_frac_ad_x_pow(j), _frac_ad_x_pow(k2 - 1 - j))
        _frac_add(val_y, term, F((-1) ** j))
    return _FractionDerivation(_frac_ad_x_pow(k2), val_y)


def _coded_cut(word):
    """Standard factorisation on the letter coding 2k -> chr(65 + k)."""
    w = "".join(chr(65 + k // 2) for k in word)
    v = min(w[i:] for i in range(1, len(w)))
    return len(w) - len(v)


def _frac_candidate(word):
    if len(word) == 1:
        return _frac_eps(word[0])
    cut = _coded_cut(word)
    return _frac_candidate(word[:cut]).bracket(_frac_candidate(word[cut:]))


@pytest.mark.parametrize(
    "weight,depth,candidates",
    [
        pytest.param(14, 2, None, id="14-2"),
        pytest.param(14, 3, None, id="14-3"),
        pytest.param(16, 3, None, id="16-3"),
        pytest.param(12, 4, None, id="12-4"),
        pytest.param(14, 2, [(4, 10), (6, 8)], id="14-2-pollack"),
        pytest.param(14, 2, [[4, 10], [6, 8]], id="14-2-list"),
        pytest.param(16, 3, [[2, 4, 10], [4, 6, 6], [0, 8, 8], [2, 6, 8]], id="16-3-list"),
    ],
)
def test_integer_engine_matches_fraction_engine(weight, depth, candidates):
    # find_lie_relations builds its rows from the values on x only; the
    # reference here is the kernel of the full matrix of both values, and
    # each candidate's value on y is recovered from its value on x
    cand = [tuple(c) for c in candidates or _eps_lyndon_candidates(weight, depth)]
    rows = {}
    for j, c in enumerate(cand):
        got = LieDerivation(_candidate_x_value(c))
        want = _frac_candidate(c)
        assert got.val_x == want.val_x and got.val_y == want.val_y, c
        for g, side in ((0, got.val_x), (1, got.val_y)):
            assert all(type(q) is int for q in side.values()), c
            for w, q in side.items():
                rows.setdefault((g, w), [0] * len(cand))[j] = q
    # the full matrix: one row per (generator, word) coordinate
    matrix = RatMatrix.from_rows([rows[k] for k in sorted(rows)])
    got = find_lie_relations(weight, depth, candidates=candidates)
    assert got.vectors == tuple(kernel_basis(matrix))
    assert got.vectors  # each case has a relation


def test_explicit_full_candidate_list_gives_the_default_relations():
    # the full candidate list, passed as tuples or as lists, is the default
    rel = find_lie_relations(16, 3)
    assert find_lie_relations(16, 3, candidates=_eps_lyndon_candidates(16, 3)) == rel
    listed = [list(c) for c in _eps_lyndon_candidates(16, 3)]
    assert find_lie_relations(16, 3, candidates=listed) == rel


def test_warm_relation_tensor_elements_enumerate_no_candidates(monkeypatch):
    # a cold call enumerates the candidates once and computes one kernel; a
    # warm one does neither
    from emzv import derlie

    runs, kernels = [], []

    def counting_candidates(weight, depth):
        runs.append((weight, depth))
        return _eps_lyndon_candidates(weight, depth)

    def counting_kernel_basis(matrix):
        kernels.append(matrix)
        return kernel_basis(matrix)

    monkeypatch.setattr(derlie, "_tensor_cache", {})
    monkeypatch.setattr(derlie, "_eps_lyndon_candidates", counting_candidates)
    monkeypatch.setattr(derlie, "kernel_basis", counting_kernel_basis)
    assert relation_tensor_elements(16, 3)
    assert runs == [(16, 3)] and len(kernels) == 1
    runs.clear()
    kernels.clear()
    assert relation_tensor_elements(16, 3)
    assert runs == [] and kernels == []


def test_expansions_are_fresh_dicts():
    # a caller that writes into an expansion changes no later expansion
    for w in ("xxy", "xyy", (0, 2, 4), (2, 4)):
        first = expand_lyndon(w)
        want = dict(first)
        first[w] = 7
        first["mutated"] = 1
        assert expand_lyndon(w) == want, w
    letter = expand_lyndon("x")
    letter["x"] = 0
    assert expand_lyndon("x") == {"x": 1}


def test_depth_zero_has_no_candidates():
    # the empty word is not a Lyndon word: no candidate, no relation
    for weight in (0, 4):
        assert _eps_lyndon_candidates(weight, 0) == []
        rel = find_lie_relations(weight, 0)
        assert rel == (weight, 0, (), ()), weight
        assert relation_tensor_elements(weight, 0) == ()


def test_warm_relation_tensor_elements_expand_nothing(monkeypatch):
    # the expansion is memoized per (weight, depth): a warm call expands no
    # Lyndon word and returns the stored tuple
    from emzv import derlie

    monkeypatch.setattr(derlie, "_tensor_cache", {})
    expanded = []
    real = derlie.expand_lyndon
    monkeypatch.setattr(derlie, "expand_lyndon", lambda w: expanded.append(w) or real(w))
    first = relation_tensor_elements(16, 3)
    assert isinstance(first, tuple) and first and expanded
    expanded.clear()
    assert relation_tensor_elements(16, 3) is first
    assert expanded == []
    # the warm value is the one a cold expansion gives
    monkeypatch.setattr(derlie, "_tensor_cache", {})
    assert relation_tensor_elements(16, 3) == first and expanded


def _reference_nc_apply(der, vec):
    """NCDerivation.apply as a loop of its own that drops zeros as it adds."""
    out = {}
    for w, q in vec.items():
        for i, ch in enumerate(w):
            val = der.val_a if ch == "a" else der.val_b
            pre, post = w[:i], w[i + 1 :]
            for sub, qs in val.items():
                ww = pre + sub + post
                s = out.get(ww, 0) + q * qs
                if s:
                    out[ww] = s
                else:
                    out.pop(ww, None)
    return out


def test_nc_apply_matches_reference_loop():
    # the rational word vector of each coefficient monomial, rebuilt from
    # its integer slice
    slices = [
        {w: Fraction(n, den) for w, n in terms}
        for den, terms in integer_slices(build_Ainf(8, shipped_table()).coeffs.items()).values()
    ]
    ders = [eps_nc(k) for k in range(0, 11, 2)] + [build_D_derivation(8)]
    for der in ders:
        for vec in slices:
            assert der.apply(vec) == _reference_nc_apply(der, vec)


def test_lie_relations_with_only_zero_rows():
    # [eps0, [eps0, eps2]] vanishes: no coordinate row at all
    assert _candidate_x_value((0, 0, 2)) == {}
    assert LieDerivation({}).val_y == {}
    assert find_lie_relations(2, 3).vectors == ((F(1),),)


def test_eps_generator_values_are_integers():
    for k2 in range(0, 19, 2):
        d = eps_derivation(k2)
        assert d.val_x and all(type(q) is int for q in d.val_x.values())
        assert all(type(q) is int for q in d.val_y.values())
        assert (k2 == 0) == (not d.val_y)
        assert eps_nc(k2).val_a == {
            w.replace("x", "a").replace("y", "b"): q for w, q in d.val_x.items()
        }


def _ab(val):
    return {w.replace("x", "a").replace("y", "b"): q for w, q in val.items()}


def test_second_values_match_the_closed_form():
    # eps_{2k}(y) = sum_{0 <= j < k} (-1)^j [ad^j(x)(y), ad^{2k-1-j}(x)(y)]
    for k2 in range(0, 19, 2):
        assert eps_derivation(k2).val_y == _frac_eps(k2).val_y, k2
        assert eps_nc(k2).val_b == _ab(_frac_eps(k2).val_y), k2
    want = {}
    for k2 in range(0, 8, 2):
        coeff = eps_tilde_scale(k2) * (bernoulli(k2) / (2 * k2) if k2 else 1)
        _frac_add(want, _ab(_frac_eps(k2).val_y), coeff)
    assert build_D_derivation(8).val_b == want


def test_eps_index_must_be_even_and_nonnegative():
    for k2 in (-2, 3):
        with pytest.raises(ValueError, match="even and nonnegative"):
            eps_nc(k2)
        with pytest.raises(ValueError, match="even and nonnegative"):
            eps_derivation(k2)
        with pytest.raises(ValueError, match="even and nonnegative"):
            find_lie_relations(k2 + 4, 2, candidates=[(4, k2)])


def test_lie_relation_counts():
    # regression data for the Lie kernel: the number of relations among the
    # Lyndon candidates of each (weight, depth)
    depth3 = [len(find_lie_relations(w, 3).vectors) for w in range(8, 25, 2)]
    assert depth3 == [3, 4, 5, 7, 8, 10, 12, 14, 16]
    depth4 = [len(find_lie_relations(w, 4).vectors) for w in range(8, 19, 2)]
    assert depth4 == [6, 10, 14, 21, 27, 38]


@pytest.mark.parametrize("weight,depth", [(16, 3), (14, 4), (12, 5)])
def test_tuple_factorisation_matches_letter_coding(weight, depth):
    for c in _eps_lyndon_candidates(weight, depth):
        left, right = standard_factorization(c)
        assert left + right == c and len(left) == _coded_cut(c)


def _recursive_lyndon_candidates(weight, depth):
    """Lyndon words of even letters by their own recursion, in lexicographic order."""
    out = []

    def rec(prefix, remaining):
        if len(prefix) == depth:
            if remaining == 0 and all(prefix < prefix[i:] + prefix[:i] for i in range(1, depth)):
                out.append(prefix)
            return
        for letter in range(0, remaining + 1, 2):
            rec(prefix + (letter,), remaining - letter)

    rec((), weight)
    return out


def _recursive_bracket_expansion(word):
    if len(word) == 1:
        return {word: 1}
    cut = _coded_cut(word)
    return assoc_bracket(
        _recursive_bracket_expansion(word[:cut]), _recursive_bracket_expansion(word[cut:])
    )


def test_lyndon_candidates_and_expansions_match_the_recursions():
    # the candidates are the Lyndon filter of graded_words, in the same order,
    # and the memoized expand_lyndon expands tuples as a bracket recursion
    # on the letter coding does
    count = 0
    for weight in range(0, 31, 2):
        for depth in range(1, 6):
            cand = _eps_lyndon_candidates(weight, depth)
            assert cand == _recursive_lyndon_candidates(weight, depth), (weight, depth)
            for c in cand if weight <= 16 else cand[:: max(1, len(cand) // 8)]:
                assert expand_lyndon(c) == _recursive_bracket_expansion(c), c
            count += len(cand)
    assert count == 4410


def _period_action(poly, n, a, b, c, d):
    """P(aX + bY, cX + dY) for P = sum poly[i] X^i Y^(n-i)."""
    out = {}
    for i, q in poly.items():
        for k1 in range(i + 1):
            x1 = math.comb(i, k1) * a**k1 * b ** (i - k1)
            for k2 in range(n - i + 1):
                x2 = math.comb(n - i, k2) * c**k2 * d ** (n - i - k2)
                out[k1 + k2] = out.get(k1 + k2, 0) + q * x1 * x2
    return out


def _is_zero_poly(*polys):
    total = {}
    for p in polys:
        for k, q in p.items():
            total[k] = total.get(k, 0) + q
    return not any(total.values())


def test_pollack_relations_count_cusp_forms():
    # Pollack (2009): relations among [eps_a, eps_b], 4 <= a < b, a + b = w,
    # match even period polynomials of cusp forms of weight w - 2; the kernel
    # dimension is dim S_{w-2} and every relation's polynomial
    # P = sum c (X^(a-2) Y^(b-2) - X^(b-2) Y^(a-2)) satisfies the period
    # relations P|(1+S) = 0 and P|(1+U+U^2) = 0
    for w in range(8, 31, 2):
        k = w - 2
        dim_cusp = k // 12 - (1 if k % 12 == 2 else 0)
        cand = [(a, w - a) for a in range(4, w // 2, 2)]
        rel = find_lie_relations(w, 2, candidates=cand)
        assert len(rel.vectors) == dim_cusp, w
        n = w - 4
        for vec in rel.vectors:
            poly = {}
            for (a, b), q in zip(cand, vec):
                poly[a - 2] = poly.get(a - 2, 0) + q
                poly[b - 2] = poly.get(b - 2, 0) - q
            s = _period_action(poly, n, 0, -1, 1, 0)
            u = _period_action(poly, n, 1, -1, 1, 0)
            uu = _period_action(u, n, 1, -1, 1, 0)
            assert _is_zero_poly(poly, s) and _is_zero_poly(poly, u, uu), w
    # the Delta relation [eps4, eps10] = 3 [eps6, eps8]
    assert find_lie_relations(14, 2, candidates=[(4, 10), (6, 8)]).vectors == ((F(-1, 3), F(1)),)


# Closed-form Lie relations, built from the derivations and their brackets
# directly (no relation kernel): a derivation that kills [x, y] is zero iff
# its value on x is.


@pytest.mark.parametrize("k", range(2, 12))
def test_eps2_is_central(k):
    # eps_2 = -ad([x, y]) is inner and every eps_{2k} kills [x, y]
    assert eps_derivation(2).bracket_x(eps_derivation(2 * k)) == {}


@pytest.mark.parametrize("k", range(1, 7))
def test_eps0_lowest_weight_relation(k):
    # ad(eps_0)^(2k-1)(eps_{2k}) = 0 and ad(eps_0)^(2k-2)(eps_{2k}) != 0:
    # eps_{2k} spans a (2k-1)-dimensional sl_2 module (Pollack; Hain-Matsumoto)
    e0 = eps_derivation(0)
    d = eps_derivation(2 * k)
    for _ in range(2 * k - 2):
        d = LieDerivation(e0.bracket_x(d))
    assert d.val_x
    assert e0.bracket_x(d) == {}


def test_all_depth2_candidates_count_cusp_forms():
    # the kernel over every default Lyndon depth-2 candidate, eps0 and eps2
    # included: the cusp-form relations, the eps2-centrality ones ([eps2,
    # eps_{w-2}] = 0 for w >= 6) and [eps0, eps2] = 0 at w = 2
    for w in range(0, 31, 2):
        k = w - 2
        dim_cusp = max(k // 12 - (k % 12 == 2), 0)
        assert len(find_lie_relations(w, 2).vectors) == dim_cusp + (w >= 6) + (w == 2), w


# ---------------------------------------------------------------------------
# Differential test: the dual-ideal membership by the ideal's own recursion
# against the seven nested loops it replaced, kept here as the reference.


def reference_kills_relation_ideal(comp, length, letter_sum):
    for depth in range(2, length + 1):
        for w_rel in range(0, letter_sum + 1, 2):
            rels = relation_tensor_elements(w_rel, depth)
            if not rels:
                continue
            rest_len = length - depth
            rest_sum = letter_sum - w_rel
            for len_u in range(rest_len + 1):
                for sum_u in range(0, rest_sum + 1, 2):
                    for u in graded_words(len_u, sum_u, step=2):
                        for v in graded_words(rest_len - len_u, rest_sum - sum_u, step=2):
                            for rel in rels:
                                acc = CoeffElem.zero()
                                for wr, q in rel.items():
                                    c = comp.get(u + wr + v)
                                    if c is not None:
                                        acc = acc + c.scale(q)
                                if not acc.is_zero():
                                    return False
    return True


def reference_uu_dual_membership(x):
    comps = {}
    for w, c in x.items():
        comps.setdefault((len(w), sum(w)), {})[w] = c
    return {key: reference_kills_relation_ideal(comp, *key) for key, comp in comps.items()}


def _same_membership(x):
    got = uu_dual_membership(x)
    assert got == reference_uu_dual_membership(x), x
    return list(got.values())


def _ideal_rows(length, letter_sum, depths):
    """The products u . rel . v at (length, letter sum), rel of the given depths."""
    rows = []
    for depth in depths:
        for w_rel in range(0, letter_sum + 1, 2):
            rest = letter_sum - w_rel
            for rel in relation_tensor_elements(w_rel, depth):
                for len_u in range(length - depth + 1):
                    len_v = length - depth - len_u
                    for sum_u in range(0, rest + 1, 2):
                        us = graded_words(len_u, sum_u, 2)
                        vs = graded_words(len_v, rest - sum_u, 2)
                        for u, v in itertools.product(us, vs):
                            rows.append({u + w + v: q for w, q in rel.items()})
    return rows


def _annihilator(rows, words):
    """A basis of the functionals on the words that vanish on every row."""
    matrix = RatMatrix.from_rows([[row.get(w, 0) for w in words] for row in rows])
    return kernel_basis(matrix)


def _pairs(vec, row, words):
    return sum(q * row.get(w, 0) for q, w in zip(vec, words))


_ZETAS = [
    CoeffElem.one(),
    CoeffElem.pi_pow(2),
    CoeffElem.symbol("z3"),
    CoeffElem.symbol("z5").mul_pi(2),
    CoeffElem.symbol("z3", 2) + CoeffElem.pi_pow(4, F(-1, 7)),
]


def _with_zetas(rng, vectors, words):
    """A random combination of the functionals, each times a zeta value."""
    cells = {}
    for vec in vectors:
        zeta = rng.choice(_ZETAS).scale(F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)))
        for w, q in zip(words, vec):
            if q:
                cells[w] = cells.get(w, CoeffElem.zero()) + zeta.scale(q)
    return EPoly(cells)


def test_dual_membership_matches_the_seven_loops():
    table = shipped_table()
    outcomes = []
    # criterion 9's decompositions
    for idx in indices_upto(4, 5):
        outcomes += _same_membership(decompose(idx, table).epoly.without_constant())
    assert all(outcomes) and len(outcomes) > 300
    # seeded random e-polys with zeta coefficients, one or two components
    rng = random.Random(17)
    for _ in range(600):
        x = EPoly.zero()
        for _ in range(rng.randint(1, 2)):
            length = rng.randint(2, 4)
            words = graded_words(length, 2 * rng.randint(0, 8 if length < 4 else 5), step=2)
            for w in rng.sample(words, min(len(words), rng.randint(1, 4))):
                x = x + EPoly.word(w, rng.choice(_ZETAS).scale(rng.randint(1, 5)))
        outcomes += _same_membership(x)
    # shuffle products
    short = [w for n in (1, 2, 3) for s in range(0, 13, 2) for w in graded_words(n, s, 2)]
    for u in short:
        for v in short:
            if len(u) + len(v) <= 4 and sum(u) + sum(v) <= 14 and u <= v:
                outcomes += _same_membership(shuffle_words(u, v))
    # the W-subspace at (2, 14), and a word outside it
    basis = [(10, 4), (4, 10), (8, 6), (6, 8)]
    for vec in _annihilator(relation_tensor_elements(14, 2), basis):
        x = EPoly({w: CoeffElem.from_rational(q) for w, q in zip(basis, vec)})
        outcomes += _same_membership(x)
    outcomes += _same_membership(EPoly.word((10, 4)))
    # random members of the annihilator of the full span, and one word off
    for length, letter_sum in [(2, 24), (3, 10), (3, 16), (4, 8)]:
        words = graded_words(length, letter_sum, step=2)
        rows = _ideal_rows(length, letter_sum, range(2, length + 1))
        kernel = _annihilator(rows, words)
        for _ in range(4):
            x = _with_zetas(rng, rng.sample(kernel, min(3, len(kernel))), words)
            assert _same_membership(x) == [True]
            w = rng.choice(sorted(rng.choice([r for r in rows if r])))
            assert _same_membership(x + EPoly.word(w, rng.choice(_ZETAS))) == [False]
    assert outcomes.count(True) > 300 and outcomes.count(False) > 300, outcomes.count(True)


def test_dual_membership_reaches_the_depth3_relations():
    # At (3, 16) the one-letter extensions of the depth-2 ideal have rank 15
    # of 45 words, and the depth-3 relations raise the span to rank 16; a
    # functional killing the extensions but not the span is a non-member
    # that only the depth-3 branch shows.
    words = graded_words(3, 16, step=2)
    extensions = _ideal_rows(3, 16, [2])
    depth3 = relation_tensor_elements(16, 3)
    full = RatMatrix.from_rows([[r.get(w, 0) for w in words] for r in extensions + list(depth3)])
    assert len(words) == 45
    assert len(words) - len(_annihilator(extensions, words)) == 15
    assert rref(full)[2] == 16
    vec = next(
        v
        for v in _annihilator(extensions, words)
        if any(_pairs(v, rel, words) for rel in depth3)
    )
    zeta = CoeffElem.symbol("z3").mul_pi(2)
    x = EPoly({w: zeta.scale(q) for w, q in zip(words, vec) if q})
    assert _same_membership(x) == [False]
    # every one-letter contraction is a member at length 2
    for a in sorted({w[0] for w in x.coeffs} | {w[-1] for w in x.coeffs}):
        left = EPoly({w[1:]: c for w, c in x.items() if w[0] == a})
        right = EPoly({w[:-1]: c for w, c in x.items() if w[-1] == a})
        assert all(_same_membership(left) + _same_membership(right)), a


def _remainder(rows, words):
    """Reduction of a vector modulo the row span: zero iff adding the vector
    to the rows leaves their rank unchanged."""
    red, pivots, _ = rref(RatMatrix.from_rows([[r.get(w, 0) for w in words] for r in rows]))
    basis = [(c, red.row(i)) for i, c in enumerate(pivots)]

    def reduce(vec):
        v = [vec.get(w, 0) for w in words]
        for c, row in basis:
            if v[c]:
                v = [x - v[c] * y for x, y in zip(v, row)]
        return [x for x in v if x]

    return reduce


def test_relations_form_a_lie_ideal():
    # The precondition of the one-sided contraction in _kills_relation_ideal:
    # the relations are the whole kernel of a Lie map, so [e_a, k] of a
    # depth-r relation k of letter sum s lies in the span of the depth-(r+1)
    # relations of letter sum s + a.  The plain product e_a k is no Lie
    # element and falls outside that span, so the rank test can fail.
    brackets = products_outside = 0
    for r in (2, 3):
        for s in range(0, 17, 2):
            for a in range(0, 17 - s, 2):
                words = graded_words(r + 1, s + a, step=2)
                remainder = _remainder(relation_tensor_elements(s + a, r + 1) or [{}], words)
                for k in relation_tensor_elements(s, r):
                    assert not remainder(assoc_bracket({(a,): 1}, k)), (r, s, a)
                    products_outside += bool(remainder({(a,) + w: q for w, q in k.items()}))
                    brackets += 1
    assert brackets == 126
    assert products_outside == brackets


# ---------------------------------------------------------------------------
# The memoized word images of the eps_{2k} on a, b words


def _ainf9_slice_vectors():
    """The integer word vector of every degree bucket of every coefficient
    monomial's slice of the limit series at degree 9."""
    return [
        dict(terms)
        for _, buckets in build_Ainf(9, shipped_table()).slices().values()
        for _, terms in buckets
    ]


def test_memoized_images_match_apply_on_the_limit_series():
    vectors = _ainf9_slice_vectors()
    assert len(vectors) == 62  # the constant term's bucket included
    for k2 in range(0, 11, 2):
        fresh = NCDerivation(_eps_value(k2, "a", "b"))  # not the memoized one
        for vec in vectors:
            assert eps_apply(k2, vec) == fresh.apply(vec), k2
        for w in {w for vec in vectors for w in vec}:
            assert dict(eps_word_image(k2, w)) == fresh.apply({w: 1}), (k2, w)


def test_cold_word_memo_equals_warm(monkeypatch):
    vectors = _ainf9_slice_vectors()
    warm = [[eps_apply(k2, vec) for vec in vectors] for k2 in range(0, 11, 2)]
    rows = dict(derlie._eps_word_cache)
    assert rows and all(type(row) is tuple for row in rows.values())
    monkeypatch.setattr(derlie, "_eps_word_cache", {})
    monkeypatch.setattr(derlie, "_eps_nc_cache", {})
    cold = [[eps_apply(k2, vec) for vec in vectors] for k2 in range(0, 11, 2)]
    assert cold == warm
    cold_rows = derlie._eps_word_cache  # the memo this test filled from empty
    assert cold_rows and all(rows[key] == row for key, row in cold_rows.items())


def test_bad_eps_index_stores_nothing():
    for k2 in (-2, 3):
        with pytest.raises(ValueError, match="even and nonnegative"):
            eps_nc(k2)
        with pytest.raises(ValueError, match="even and nonnegative"):
            eps_word_image(k2, "ab")
        with pytest.raises(ValueError, match="even and nonnegative"):
            eps_apply(k2, {"ab": 1})
        assert k2 not in derlie._eps_nc_cache
        assert (k2, "ab") not in derlie._eps_word_cache


def test_eps_word_image_adds_one_b_and_k2_letters():
    # eps_{2k}(a) = ad^{2k}(a)(b): each image word has one more b and 2k
    # more letters than the word it comes from
    for n in range(7):
        for letters in itertools.product("ab", repeat=n):
            w = "".join(letters)
            for k2 in (0, 2, 4, 6):
                for u, _ in eps_word_image(k2, w):
                    assert u.count("b") == w.count("b") + 1, (k2, w, u)
                    assert len(u) == len(w) + k2, (k2, w, u)
