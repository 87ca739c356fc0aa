"""The derivation algebra on the free Lie algebra over x, y.

For every k >= 0 Tsunogai's derivation eps_{2k} raises the degree by 2k and
is defined by

    eps_{2k}(x) = ad^{2k}(x)(y),    eps_{2k}([x, y]) = 0,

so eps_0 = y d/dx and eps_2 = -ad([x, y]).  Lie elements are written as
their word expansions in the free associative algebra (the standard
bracketings of Lyndon words, letters ordered x < y, span the free Lie
algebra).  Every eps_{2k}, and every bracket of them, kills [x, y], so it
is fixed exactly by its value on x (the value on y follows by
:func:`_second_value`), and relation discovery among bracket words of the
eps's needs no truncation at all.

The last part of the module deals with the image constraints on e-word
polynomials: the dual-ideal membership test against the discovered
relations, the change of basis into the combinations

    E0(w, 2k) = e_w e_{2k} - B_{2k}/(4k) * e_w e_0      (k != 0)

whose q-expansions are free of T terms, and the derivation annihilating the
constant-term data.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence, TypeVar

from .coeffring import CoeffElem, accumulate, assoc_concat, bernoulli, memoized
from .eisalg import EPoly, EWord, epoly_to_qexp
from .linalg import RatMatrix, kernel_basis
from .ncalg import NCSeries, ad_expansion
from .words import graded_words

Number = int | Fraction
Assoc = dict[str, Number]  # sparse free-associative element


# ---------------------------------------------------------------------------
# Lyndon words and the basis of the free Lie algebra


def lyndon_words(max_len: int) -> list[str]:
    """All Lyndon words in x, y of length <= max_len (Duval's generation)."""
    out: list[str] = []
    w = [0] if max_len >= 1 else []
    while w:
        out.append("".join("xy"[i] for i in w))
        m = len(w)
        w = [w[i % m] for i in range(max_len)]
        while w and w[-1] == 1:
            w.pop()
        if w:
            w[-1] += 1
    out.sort(key=lambda s: (len(s), s))
    return out


_Word = TypeVar("_Word", str, tuple)


def standard_factorization(w: _Word) -> tuple[_Word, _Word]:
    """Split a Lyndon word as u.v with v its smallest proper suffix.

    Works on strings and on tuples of letters alike (tuples compare
    lexicographically, like strings).
    """
    assert len(w) >= 2
    v = min(w[i:] for i in range(1, len(w)))
    return w[: len(w) - len(v)], v


def assoc_bracket(x: Mapping[_Word, Number], y: Mapping[_Word, Number]) -> dict[_Word, Number]:
    return accumulate(assoc_concat(x, y), ((w, -q) for w, q in assoc_concat(y, x).items()))


def expand_lyndon(w: _Word) -> dict[_Word, int]:
    """Word expansion of the standard bracketing of a Lyndon word, as a
    fresh dict on every call.

    The word is a string in x, y or a tuple of e-letters.  Triangular: the
    expansion is the word itself plus lexicographically larger
    rearrangements; asserted here.
    """
    if len(w) == 1:
        return {w: 1}
    u, v = standard_factorization(w)
    res = assoc_bracket(expand_lyndon(u), expand_lyndon(v))
    assert min(res) == w and res[w] == 1
    return res


# ---------------------------------------------------------------------------
# The derivations


def _apply_derivation(
    vec: Mapping[str, Number], values: Mapping[str, Mapping[str, Number]]
) -> Assoc:
    """Image of a word vector under the derivation with the given letter values.

    Leibniz rule: each letter of each word is replaced in turn by its value.
    """
    subs = {ch: tuple(val.items()) for ch, val in values.items()}
    out: Assoc = {}
    get = out.get
    for w, q in vec.items():
        for i, ch in enumerate(w):
            pre, post = w[:i], w[i + 1 :]
            for sub, qs in subs[ch]:
                ww = pre + sub + post
                out[ww] = get(ww, 0) + q * qs
    return {w: q for w, q in out.items() if q}


def _second_value(val: Mapping[str, Number], x: str, y: str) -> Assoc:
    """The value on y of the derivation D that kills [x, y] and has D(x) = val.

    D([x, y]) = 0 reads x.D(y) - D(y).x = r with r = [y, D(x)], and D(y) has
    no pure power of x.  So each word u = x^l v of r (v not starting with x)
    adds r_u to each of the words u[i:] x^(i-1), i = 1..l.  Under ad(x)
    their sum telescopes to u - v x^l, and the words v x^l cancel over r,
    because moving the leading x's of a word to its end sends x.w and w.x
    to the same word.  At degree 1 (D raises the degree by 0) D(y) is fixed
    only up to a multiple of x; there r = [y, c y] = 0 and the rule picks
    0, which is eps_0(y).
    """
    r = assoc_bracket({y: 1}, val)
    terms = (
        (u[i:] + x * (i - 1), q)
        for u, q in r.items()
        for i in range(1, len(u) - len(u.lstrip(x)) + 1)
    )
    return accumulate({}, terms)


class LieDerivation:
    """Derivation of the free associative algebra on x, y that kills [x, y],
    fixed by its value on x.

    Coefficients are whatever numbers the value carries; the eps_{2k} and
    their brackets have integer ones.
    """

    __slots__ = ("val_x", "val_y")

    def __init__(self, val_x: Assoc):
        self.val_x = val_x
        self.val_y = _second_value(val_x, "x", "y")

    def apply(self, elem: Mapping[str, Number]) -> Assoc:
        return _apply_derivation(elem, {"x": self.val_x, "y": self.val_y})

    def bracket_x(self, other: "LieDerivation") -> Assoc:
        """[self, other] on x: self(other(x)) - other(self(x))."""
        minus = ((w, -q) for w, q in other.apply(self.val_x).items())
        return accumulate(self.apply(other.val_x), minus)


def _eps_value(k2: int, x: str, y: str) -> dict[str, int]:
    """eps_{k2}(x) = ad^{k2}(x)(y) in the letters x, y."""
    if k2 < 0 or k2 % 2:
        raise ValueError("eps index must be even and nonnegative")
    return ad_expansion(k2, x, y)


def eps_derivation(k2: int) -> LieDerivation:
    """The derivation for the even index k2 = 2k."""
    return LieDerivation(_eps_value(k2, "x", "y"))


# ---------------------------------------------------------------------------
# Relations between bracket words of the derivations


class RelationSet(NamedTuple):
    weight: int
    depth: int
    candidates: tuple[str, ...]
    vectors: tuple[tuple[Fraction, ...], ...]

    def to_doc(self) -> dict:
        return {
            "schema": "emzv.lie-relations/1",
            "weight": self.weight,
            "depth": self.depth,
            "candidates": list(self.candidates),
            "kernel": [[str(q) for q in v] for v in self.vectors],
            "lie_degrees": "exact",  # evaluated on generators, no truncation
        }


def _eps_lyndon_candidates(weight: int, depth: int) -> list[tuple[int, ...]]:
    """Lyndon words over the even alphabet with given length and letter sum;
    the empty word is not one, so depth 0 has none."""
    if depth < 1:
        return []
    words = graded_words(depth, weight, step=2)
    return [w for w in words if all(w < w[i:] + w[:i] for i in range(1, len(w)))]


def _candidate_x_value(word: tuple[int, ...]) -> Assoc:
    """The value on x of the candidate's derivation.

    Each half of the standard factorization is the derivation fixed by its
    own value on x; the outer bracket is evaluated on x only.
    """
    if len(word) == 1:
        return _eps_value(word[0], "x", "y")
    left, right = standard_factorization(word)
    return LieDerivation(_candidate_x_value(left)).bracket_x(
        LieDerivation(_candidate_x_value(right))
    )


def candidate_label(word: tuple[int, ...]) -> str:
    if len(word) == 1:
        return f"eps{word[0]}"
    left, right = standard_factorization(word)
    return f"[{candidate_label(left)},{candidate_label(right)}]"


def find_lie_relations(
    weight: int,
    depth: int,
    candidates: Sequence[Sequence[int]] | None = None,
) -> RelationSet:
    """Kernel of the evaluation of formal bracket words in the derivations.

    The candidates default to every Lyndon word of (weight, depth).  A
    bracket word evaluates to a derivation D, and D vanishes if and only
    if it kills both generators, so a kernel computed from generator values
    is exact.  For weight >= 1 the value on x alone decides: every eps_{2k}
    kills [x, y], hence so does every bracket of them, and D raises the
    degree by the weight.  If D(x) = 0, then 0 = D([x, y]) = [x, D(y)], so
    the Lie element D(y) commutes with x and is a multiple of x; its degree
    is 1 + weight >= 2, so D(y) = 0.  The rows from the x-values therefore
    span the same row space as those from both values, and the kernel is
    the same.  At weight 0 every candidate is eps_0 or a bracket of eps_0
    with itself, so D = c * eps_0, and D(x) = c * y decides there too.
    """
    if candidates is None:
        candidates = _eps_lyndon_candidates(weight, depth)
    cand = [tuple(c) for c in candidates]
    for c in cand:
        if sum(c) != weight or len(c) != depth:
            raise ValueError(f"candidate {c} does not match (weight, depth)")
    # One row per word of the values on x.
    coords: dict[str, list[int]] = {}
    for j, c in enumerate(cand):
        for w, q in _candidate_x_value(c).items():
            coords.setdefault(w, [0] * len(cand))[j] = q
    flat = tuple(q for row in coords.values() for q in row)
    vectors = tuple(kernel_basis(RatMatrix(len(coords), len(cand), flat)))
    return RelationSet(
        weight=weight,
        depth=depth,
        candidates=tuple(candidate_label(c) for c in cand),
        vectors=vectors,
    )


_tensor_cache: dict[tuple[int, int], tuple[dict[EWord, Fraction], ...]] = {}


def relation_tensor_elements(weight: int, depth: int) -> tuple[dict[EWord, Fraction], ...]:
    """Relations expanded in the tensor algebra on the e-letters, expanded
    once per (weight, depth); the dicts are shared and must not be mutated."""

    def expand() -> tuple[dict[EWord, Fraction], ...]:
        cand = _eps_lyndon_candidates(weight, depth)
        out = []
        for vec in find_lie_relations(weight, depth, cand).vectors:
            terms = (
                (w, q * n) for c, q in zip(cand, vec) if q for w, n in expand_lyndon(c).items()
            )
            out.append(accumulate({}, terms))
        return tuple(out)

    return memoized(_tensor_cache, (weight, depth), expand)


def uu_dual_membership(x: EPoly) -> dict[tuple[int, int], bool]:
    """Per homogeneous component: does the functional kill the relation ideal?

    Components are indexed by (word length, letter sum).  The ideal is
    generated by the relations found among the bracket words of the
    derivations.
    """
    comps: dict[tuple[int, int], dict[EWord, CoeffElem]] = {}
    for w, c in x.items():
        comps.setdefault((len(w), sum(w)), {})[w] = c
    return {key: _kills_relation_ideal(comp, *key) for key, comp in comps.items()}


def _kills_relation_ideal(
    comp: Mapping[EWord, CoeffElem], length: int, letter_sum: int
) -> bool:
    """True iff comp vanishes on every u . rel . v of its (length, letter sum).

    Those products span I(r, s) = R(r, s) + sum_a e_a I(r-1, s-a) +
    sum_a I(r-1, s-a) e_a, with R(r, s) the relations of depth r and letter
    sum s, and I = 0 below length 2.  The right-hand sum is redundant: the
    relations are the whole kernel of a Lie map, so they form a Lie ideal
    ([e_a, k] lies in R(r, s) for k in R(r-1, s-a)), and k e_a =
    e_a k - [e_a, k] puts every I(r-1, s-a) e_a in R(r, s) +
    sum_b e_b I(r-1, s-b), by induction on the length (the tests check
    the Lie-ideal property by rank).  So comp kills I(r, s) iff each of its
    one-letter contractions (its words that start with the letter a, with
    that letter stripped) kills I(r-1, s-a), and comp kills R(r, s).  The
    shorter spans are checked first, and only the letters that occur.
    """
    if length < 2:
        return True
    contractions: dict[int, dict[EWord, CoeffElem]] = {}
    for w, c in comp.items():
        contractions.setdefault(w[0], {})[w[1:]] = c
    if not all(
        _kills_relation_ideal(sub, length - 1, letter_sum - a)
        for a, sub in contractions.items()
    ):
        return False
    for rel in relation_tensor_elements(letter_sum, length):
        acc = CoeffElem.zero()
        for w, q in rel.items():
            c = comp.get(w)
            if c is not None:
                acc = acc + c.scale(q)
        if not acc.is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# Fourier subspace


def to_E0_basis(x: EPoly) -> tuple[dict[EWord, CoeffElem], EPoly]:
    """Rewrite in E0 combinations; membership holds iff the residual vanishes.

    The combination maps a word ending in a nonzero letter 2k to the
    coefficient of E0(..., 2k) = e_...2k - B_{2k}/(4k) e_...0, and the empty
    word to the constant.  The residual collects what remains on words
    ending in the letter 0.
    """
    coeffs = x.coeffs  # read once: each read builds them
    combination = {w: c for w, c in coeffs.items() if not w or w[-1] != 0}
    corrections = (
        (w[:-1] + (0,), c.scale(bernoulli(w[-1]) / (2 * w[-1])))
        for w, c in combination.items()
        if w
    )
    residual = accumulate({w: c for w, c in coeffs.items() if w and w[-1] == 0}, corrections)
    return combination, EPoly(residual)


def fourier_membership(x: EPoly, order: int) -> bool:
    """True iff the q-expansion of x carries no T = log q terms."""
    return epoly_to_qexp(x, order).is_t_free()


# ---------------------------------------------------------------------------
# Derivations acting on the two-letter words of the constant-term data


class NCDerivation:
    """Derivation of the a, b word algebra that kills [a, b], fixed by its
    value on a.

    The eps_{2k} have integer values (:func:`eps_nc`); the annihilating
    derivation of :func:`build_D_derivation` has rational ones.  ``apply``
    maps a finite word -> number vector to its image and keeps every degree:
    callers truncate.
    """

    __slots__ = ("val_a", "val_b")

    def __init__(self, val_a: Mapping[str, Number]):
        self.val_a = dict(val_a)
        self.val_b = _second_value(self.val_a, "a", "b")

    def apply(self, vec: Mapping[str, Number]) -> dict[str, Number]:
        return _apply_derivation(vec, {"a": self.val_a, "b": self.val_b})


def eps_tilde_scale(k2: int) -> Fraction:
    """Normalisation of eps~_{2k} = scale * eps_{2k}: -1 for k = 0, else 2/(2k-2)!."""
    if k2 == 0:
        return Fraction(-1)
    return Fraction(2, math.factorial(k2 - 2))


_eps_nc_cache: dict[int, NCDerivation] = {}
_eps_word_cache: dict[tuple[int, str], tuple[tuple[str, int], ...]] = {}


def eps_nc(k2: int) -> NCDerivation:
    """eps_{2k} on a, b words, with integer generator values; built once per
    2k and shared, so it must not be mutated."""
    return memoized(_eps_nc_cache, k2, lambda: NCDerivation(_eps_value(k2, "a", "b")))


def eps_word_image(k2: int, word: str) -> tuple[tuple[str, int], ...]:
    """eps_{2k} of one a, b word, as (word, integer) pairs.

    Table-free, so memoized per (2k, word) for the whole process; a miss is
    one :meth:`NCDerivation.apply` of the memoized derivation.
    """
    return memoized(
        _eps_word_cache, (k2, word), lambda: tuple(eps_nc(k2).apply({word: 1}).items())
    )


def eps_apply(k2: int, vec: Mapping[str, int]) -> dict[str, int]:
    """eps_{2k} of an integer word vector: the sum of the memoized images of
    its words, zero entries dropped.  Equal to ``eps_nc(k2).apply(vec)``.

    Most words are hits, so a hit is read from the memo dict directly,
    without the two calls through :func:`eps_word_image`.
    """
    out: dict[str, int] = {}
    get, rows = out.get, _eps_word_cache
    for w, n in vec.items():
        row = rows.get((k2, w))
        for u, m in eps_word_image(k2, w) if row is None else row:
            out[u] = get(u, 0) + n * m
    return {u: n for u, n in out.items() if n}


def build_D_derivation(maxdeg: int) -> NCDerivation:
    """eps~_0 + sum_{k >= 1} B_{2k}/(4k) eps~_{2k}, for 2k + 1 <= maxdeg.

    Annihilates t = -[a, b], ytilde and the constant-term series up to
    degree maxdeg (see :func:`annihilates`).
    """
    val_a: dict[str, Fraction] = {}
    for k in range(max(1, (maxdeg + 1) // 2)):
        coeff = eps_tilde_scale(2 * k)
        if k:
            coeff *= bernoulli(2 * k) / (4 * k)
        accumulate(val_a, ((w, q * coeff) for w, q in ad_expansion(2 * k).items()))
    return NCDerivation(val_a)


def annihilates(der: NCDerivation, s: NCSeries) -> bool:
    """True iff der(s) vanishes up to the truncation degree of s.

    The derivation is Q-linear, so it kills s exactly when it kills the
    integer word vector of every coefficient monomial's slice.
    """
    return all(
        all(len(w) > s.maxdeg for w in der.apply({k: n for _, t in buckets for k, n in t}))
        for _, buckets in s.slices().values()
    )
