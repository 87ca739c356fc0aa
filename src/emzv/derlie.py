"""The derivation algebra on the free Lie algebra over x, y.

For every k >= 0 there is a derivation raising degree by 2k,

    eps_{2k}(x) = ad^{2k}(x)(y),
    eps_{2k}(y) = sum_{0 <= j < k} (-1)^j [ad^j(x)(y), ad^{2k-1-j}(x)(y)],

so eps_0 = y d/dx and eps_2 = -ad([x, y]).  Lie elements are written as
their word expansions in the free associative algebra (the standard
bracketings of Lyndon words, letters ordered x < y, span the free Lie
algebra).  A derivation is determined exactly by its generator values, so
relation discovery among bracket words of the eps's needs no truncation at
all.

The last part of the module deals with the image constraints on e-word
polynomials: the dual-ideal membership test against the discovered
relations, the change of basis into the combinations

    E0(w, 2k) = e_w e_{2k} - B_{2k}/(4k) * e_w e_0      (k != 0)

whose q-expansions are free of T terms, and the derivation annihilating the
constant-term data.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence, TypeVar

from .coeffring import CoeffElem, bernoulli
from .eisalg import EPoly, EWord, epoly_to_qexp
from .linalg import RatMatrix, kernel_basis
from .ncalg import NCSeries

Number = int | Fraction
Assoc = dict[str, Number]  # sparse free-associative element


# ---------------------------------------------------------------------------
# Lyndon words and the basis of the free Lie algebra


def lyndon_words(max_len: int, alphabet: str = "xy") -> list[str]:
    """All Lyndon words of length <= max_len (Duval's generation)."""
    k = len(alphabet)
    out: list[str] = []
    w = [0]
    while True:
        out.append("".join(alphabet[i] for i in w))
        m = len(w)
        w = [w[i % m] for i in range(max_len)]
        while w and w[-1] == k - 1:
            w.pop()
        if not w:
            break
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


def _assoc_add(
    acc: dict[_Word, Number], other: Mapping[_Word, Number], scale: Number = 1
) -> None:
    for w, q in other.items():
        s = acc.get(w, 0) + q * scale
        if s:
            acc[w] = s
        else:
            acc.pop(w, None)


def assoc_concat(x: Mapping[_Word, Number], y: Mapping[_Word, Number]) -> dict[_Word, Number]:
    out: dict[_Word, Number] = {}
    get = out.get
    for w1, q1 in x.items():
        for w2, q2 in y.items():
            w = w1 + w2
            out[w] = get(w, 0) + q1 * q2
    return {w: q for w, q in out.items() if q}


def assoc_bracket(x: Mapping[_Word, Number], y: Mapping[_Word, Number]) -> dict[_Word, Number]:
    out = assoc_concat(x, y)
    _assoc_add(out, assoc_concat(y, x), -1)
    return out


_expand_cache: dict[str, Assoc] = {}
_expand_lock = threading.Lock()


def expand_lyndon(w: str) -> Assoc:
    """Word expansion of the standard bracketing of a Lyndon word.

    Triangular: the expansion is the word itself plus lexicographically
    larger rearrangements; asserted here at build time.
    """
    hit = _expand_cache.get(w)
    if hit is not None:
        return hit
    if len(w) == 1:
        res: Assoc = {w: 1}
    else:
        u, v = standard_factorization(w)
        res = assoc_bracket(expand_lyndon(u), expand_lyndon(v))
        assert min(res) == w and res[w] == 1
    with _expand_lock:
        _expand_cache.setdefault(w, res)
    return res


# ---------------------------------------------------------------------------
# The derivations


def _ad_x_pow(k: int) -> Assoc:
    return {"x" * (k - j) + "y" + "x" * j: (-1) ** j * math.comb(k, j) for j in range(k + 1)}


class LieDerivation:
    """Derivation of the free associative algebra fixed by generator values.

    Coefficients are whatever numbers the generator values carry; the
    eps_{2k} and their brackets have integer ones.
    """

    __slots__ = ("val_x", "val_y", "degree_shift")

    def __init__(self, val_x: Assoc, val_y: Assoc, degree_shift: int):
        self.val_x = val_x
        self.val_y = val_y
        self.degree_shift = degree_shift

    def apply(self, elem: Mapping[str, Number]) -> Assoc:
        out: Assoc = {}
        get = out.get
        val_x, val_y = tuple(self.val_x.items()), tuple(self.val_y.items())
        for w, q in elem.items():
            for i, ch in enumerate(w):
                pre, post = w[:i], w[i + 1 :]
                for sub, qs in val_x if ch == "x" else val_y:
                    ww = pre + sub + post
                    out[ww] = get(ww, 0) + q * qs
        return {w: q for w, q in out.items() if q}

    def bracket(self, other: "LieDerivation") -> "LieDerivation":
        vx = self.apply(other.val_x)
        _assoc_add(vx, other.apply(self.val_x), -1)
        vy = self.apply(other.val_y)
        _assoc_add(vy, other.apply(self.val_y), -1)
        return LieDerivation(vx, vy, self.degree_shift + other.degree_shift)


def eps_derivation(k2: int) -> LieDerivation:
    """The derivation for the even index k2 = 2k."""
    if k2 < 0 or k2 % 2:
        raise ValueError("eps index must be even and nonnegative")
    k = k2 // 2
    val_x = _ad_x_pow(k2)
    val_y: Assoc = {}
    for j in range(k):
        term = assoc_bracket(_ad_x_pow(j), _ad_x_pow(k2 - 1 - j))
        _assoc_add(val_y, term, (-1) ** j)
    return LieDerivation(val_x, val_y, k2)


# ---------------------------------------------------------------------------
# Relations between bracket words of the derivations


@dataclass(frozen=True)
class RelationSet:
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
    """Lyndon words over the even alphabet with given length and letter sum."""
    letters = list(range(0, weight + 1, 2))

    def is_lyndon(w: tuple[int, ...]) -> bool:
        return all(w < w[i:] + w[:i] for i in range(1, len(w)))

    out = []

    def rec(prefix: tuple[int, ...], remaining: int) -> None:
        if len(prefix) == depth:
            if remaining == 0 and is_lyndon(prefix):
                out.append(prefix)
            return
        for l in letters:
            if l <= remaining:
                rec(prefix + (l,), remaining - l)

    rec((), weight)
    return out


def _candidate_derivation(word: tuple[int, ...]) -> LieDerivation:
    if len(word) == 1:
        return eps_derivation(word[0])
    left, right = standard_factorization(word)
    return _candidate_derivation(left).bracket(_candidate_derivation(right))


def candidate_label(word: tuple[int, ...]) -> str:
    if len(word) == 1:
        return f"eps{word[0]}"
    left, right = standard_factorization(word)
    return f"[{candidate_label(left)},{candidate_label(right)}]"


_relations_cache: dict[tuple, RelationSet] = {}
_relations_lock = threading.Lock()


def _primitive_row(row: list[int]) -> tuple[int, ...]:
    """The row divided by its gcd, signed so its first nonzero entry is positive."""
    g = math.gcd(*row)
    if next(x for x in row if x) < 0:
        g = -g
    return tuple(x // g for x in row)


def find_lie_relations(
    weight: int,
    depth: int,
    candidates: Sequence[Sequence[int]] | None = None,
) -> RelationSet:
    """Kernel of the evaluation of formal bracket words in the derivations.

    A bracket word evaluates to a derivation, and a derivation vanishes if
    and only if it kills both generators, so the kernel computed from the
    generator values is exact.
    """
    chosen = None if candidates is None else tuple(tuple(c) for c in candidates)
    key = (weight, depth, chosen)
    with _relations_lock:
        if key in _relations_cache:
            return _relations_cache[key]
    cand = _eps_lyndon_candidates(weight, depth) if chosen is None else chosen
    for c in cand:
        if sum(c) != weight or len(c) != depth:
            raise ValueError(f"candidate {c} does not match (weight, depth)")
    ders = [_candidate_derivation(c) for c in cand]
    coords: dict[tuple[int, str], list[int]] = {}
    for j, d in enumerate(ders):
        for g, side in ((0, d.val_x), (1, d.val_y)):
            for w, q in side.items():
                coords.setdefault((g, w), [0] * len(cand))[j] = q
    # The kernel depends only on the row space: keep each primitive row once.
    rows = sorted({_primitive_row(r) for r in coords.values() if any(r)})
    if not rows:
        rows = [(0,) * len(cand)]
    vectors = tuple(kernel_basis(RatMatrix.from_rows(rows)))
    rel = RelationSet(
        weight=weight,
        depth=depth,
        candidates=tuple(candidate_label(c) for c in cand),
        vectors=vectors,
    )
    with _relations_lock:
        _relations_cache.setdefault(key, rel)
    return rel


def relation_tensor_elements(weight: int, depth: int) -> list[dict[EWord, Fraction]]:
    """Relations expanded in the tensor algebra on the e-letters."""
    cand = _eps_lyndon_candidates(weight, depth)
    rel = find_lie_relations(weight, depth, candidates=cand)
    out = []
    for vec in rel.vectors:
        elem: dict[EWord, Fraction] = {}
        for c, q in zip(cand, vec):
            if q:
                _assoc_add(elem, _bracket_expansion(c), q)
        out.append(elem)
    return out


def _bracket_expansion(word: EWord) -> dict[EWord, int]:
    """Tensor-algebra expansion of the standard bracketing of a Lyndon e-word."""
    if len(word) == 1:
        return {word: 1}
    left, right = standard_factorization(word)
    return assoc_bracket(_bracket_expansion(left), _bracket_expansion(right))


def even_words(length: int, total: int) -> Iterator[EWord]:
    """All words over the even letters with given length and letter sum."""
    if length == 0:
        if total == 0:
            yield ()
        return
    for first in range(0, total + 1, 2):
        for rest in even_words(length - 1, total - first):
            yield (first,) + rest


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
    """True iff comp vanishes on every u . rel . v of its (length, letter sum)."""
    for depth in range(2, length + 1):
        for w_rel in range(0, letter_sum + 1, 2):
            rels = relation_tensor_elements(w_rel, depth)
            if not rels:
                continue
            rest_len = length - depth
            rest_sum = letter_sum - w_rel
            for len_u in range(rest_len + 1):
                for sum_u in range(0, rest_sum + 1, 2):
                    for u in even_words(len_u, sum_u):
                        for v in even_words(rest_len - len_u, rest_sum - sum_u):
                            for rel in rels:
                                acc = CoeffElem.zero()
                                for wr, q in rel.items():
                                    c = comp.get(u + wr + v)
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
    combination: dict[EWord, CoeffElem] = {}
    residual: dict[EWord, CoeffElem] = {}
    for w, c in x.items():
        if not w:
            combination[w] = c
        elif w[-1] != 0:
            combination[w] = c
        else:
            residual[w] = residual.get(w, CoeffElem.zero()) + c
    for w, c in combination.items():
        if not w:
            continue
        k2 = w[-1]
        corr = c.scale(-bernoulli(k2) / (2 * k2))
        w0 = w[:-1] + (0,)
        s = residual.get(w0, CoeffElem.zero()) - corr
        if s.is_zero():
            residual.pop(w0, None)
        else:
            residual[w0] = s
    return combination, EPoly(residual, x.table)


def fourier_membership(x: EPoly, order: int = 20) -> bool:
    """True iff the q-expansion of x carries no T = log q terms."""
    return epoly_to_qexp(x, order).is_t_free()


# ---------------------------------------------------------------------------
# Derivations acting on the two-letter words of the constant-term data


class NCDerivation:
    """Derivation of the a, b word algebra fixed by its generator values.

    The eps_{2k} have integer generator values (:func:`eps_nc`); the
    annihilating derivation of :func:`build_D_derivation` has rational ones.
    ``apply`` maps a finite word -> number vector to its image and keeps
    every degree: callers truncate.
    """

    __slots__ = ("val_a", "val_b")

    def __init__(self, val_a: Mapping[str, Number], val_b: Mapping[str, Number]):
        self.val_a = dict(val_a)
        self.val_b = dict(val_b)

    def apply(self, vec: Mapping[str, Number]) -> dict[str, Number]:
        out: dict[str, Number] = {}
        for w, q in vec.items():
            for i, ch in enumerate(w):
                val = self.val_a if ch == "a" else self.val_b
                pre, post = w[:i], w[i + 1 :]
                for sub, qs in val.items():
                    ww = pre + sub + post
                    s = out.get(ww, 0) + q * qs
                    if s:
                        out[ww] = s
                    else:
                        out.pop(ww, None)
        return out


def eps_tilde_scale(k2: int) -> Fraction:
    """Normalisation of eps~_{2k} = scale * eps_{2k}: -1 for k = 0, else 2/(2k-2)!."""
    if k2 == 0:
        return Fraction(-1)
    return Fraction(2, math.factorial(k2 - 2))


def eps_nc(k2: int) -> NCDerivation:
    """eps_{2k} on a, b words (x -> a, y -> b), with integer generator values."""
    der = eps_derivation(k2)
    val_a, val_b = (
        {w.replace("x", "a").replace("y", "b"): q for w, q in val.items()}
        for val in (der.val_x, der.val_y)
    )
    return NCDerivation(val_a, val_b)


def build_D_derivation(maxdeg: int) -> NCDerivation:
    """eps~_0 + sum_{k >= 1} B_{2k}/(4k) eps~_{2k}, for 2k + 1 <= maxdeg.

    Annihilates t = -[a, b], ytilde and the constant-term series up to
    degree maxdeg (see :func:`annihilates`).
    """
    val_a: dict[str, Fraction] = {}
    val_b: dict[str, Fraction] = {}
    for k in range(max(1, (maxdeg + 1) // 2)):
        coeff = eps_tilde_scale(2 * k)
        if k:
            coeff *= bernoulli(2 * k) / (4 * k)
        eps = eps_nc(2 * k)
        _assoc_add(val_a, eps.val_a, coeff)
        _assoc_add(val_b, eps.val_b, coeff)
    return NCDerivation(val_a, val_b)


def annihilates(der: NCDerivation, s: NCSeries) -> bool:
    """True iff der(s) vanishes up to the truncation degree of s.

    The derivation is Q-linear, so it kills s exactly when it kills the
    rational word vector of every coefficient monomial.
    """
    return all(
        all(len(w) > s.maxdeg for w in der.apply(piece))
        for piece in s.monomial_slices().values()
    )
