"""Eisenstein series, their iterated integrals, and the e-word shuffle algebra.

The Hecke-normalized Eisenstein series of weight 2k has q-expansion

    E_{2k} = -B_{2k}/(4k) + sum_{n>=1} sigma_{2k-1}(n) q^n      (k >= 1),

with the conventions E_0 = -1 and E_k = 0 for odd k.  The iterated integral
``iei_qexp((k_1, ..., k_n))`` is defined recursively as the zero-constant
primitive of -E_{k_1} times the tail integral, so that

    d/dT iei(k_1 w) = -E_{k_1} * iei(w),

and the empty word gives 1.  Words in the letters e_0, e_2, e_4, ... form a
shuffle algebra; :class:`EPoly` carries finite combinations of such words
with exact coefficients, computing on their integer slices (see
``coeffring``), and ``epoly_to_qexp`` realizes a word combination
as the corresponding combination of iterated integrals.  Words containing an
odd letter represent the zero function and are dropped at the boundary.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .coeffring import (
    MONOMIAL_ONE,
    CoeffElem,
    CoeffMap,
    MzvTable,
    Slices,
    accumulate,
    bernoulli,
    build_slices,
    coeff_mul,
    graded_slices,
    keep_grades,
    memoized,
    normalise,
    rational_lincomb,
    split_lincomb,
)
from .qseries import QTSeries, _q_power, qt_antider, qt_mul
from .words import deconcatenations, make_word, shuffle_multiset

EWord = tuple[int, ...]


def has_odd_letter(w: EWord) -> bool:
    return any(k % 2 for k in w)


def sigma(m: int, n: int) -> int:
    """Divisor power sum sum_{d | n} d^m."""
    return sum(d**m for d in range(1, n + 1) if n % d == 0)


_eisenstein_cache: dict[tuple[int, int], QTSeries] = {}


def eisenstein_qexp(k: int, order: int) -> QTSeries:
    """q-expansion of E_k to the given order (constant -1 for k = 0),
    memoized on (k, order): every miss of :func:`iei_qexp` reads it."""
    if order < 1:
        raise ValueError("order must be >= 1")

    def compute() -> QTSeries:
        if k == 0:
            return QTSeries.constant(-1, order)
        if k % 2:
            return QTSeries.zero(order)
        coeffs: dict[tuple[int, int], CoeffElem] = {
            (0, 0): CoeffElem.from_rational(-bernoulli(k) / (2 * k))
        }
        for n in range(1, order):
            coeffs[(n, 0)] = CoeffElem.from_rational(sigma(k - 1, n))
        return QTSeries(order, coeffs)

    return memoized(_eisenstein_cache, (k, order), compute)


_iei_cache: dict[tuple[EWord, int], QTSeries] = {}


def iei_qexp(w: Iterable[int], order: int) -> QTSeries:
    """Iterated Eisenstein integral of the word, as a QTSeries.

    Memoized on (word, order); a miss is the primitive of -E_k times the
    tail's integral, kept as slices, like the tail.  The coefficients are
    rational.
    """
    word = make_word(w)
    if order < 1:
        raise ValueError("order must be >= 1")

    def compute() -> QTSeries:
        if not word:
            return QTSeries.constant(1, order)
        if has_odd_letter(word):
            return QTSeries.zero(order)
        minus_e = -eisenstein_qexp(word[0], order)
        return qt_antider(qt_mul(minus_e, iei_qexp(word[1:], order)))

    return memoized(_iei_cache, (word, order), compute)


class EPoly(CoeffMap):
    """Finite CoeffElem-linear combination of even e-words (no truncation).

    Lives on integer slices graded by e-word length, like the truncated
    series, with the linear structure of :class:`CoeffMap`; :meth:`prepend`
    and :meth:`combination` compute on the slices too.
    """

    __slots__ = ()

    def __init__(self, coeffs: Mapping[EWord, CoeffElem] | None = None):
        super().__init__(None, coeffs)

    def _keep(self, coeffs: Mapping[EWord, CoeffElem]) -> dict[EWord, CoeffElem]:
        d: dict[EWord, CoeffElem] = {}
        for w, c in coeffs.items():
            word = make_word(w)
            if c and not has_odd_letter(word):
                d[word] = c
        return d

    def _slice(self, coeffs: dict[EWord, CoeffElem]) -> Slices:
        return graded_slices(coeffs.items(), len)  # graded by e-word length

    def _build(self) -> dict[EWord, CoeffElem]:
        return build_slices(self._sliced)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def word(w: Iterable[int], coeff: CoeffElem | Fraction | int = 1) -> "EPoly":
        if not isinstance(coeff, CoeffElem):
            coeff = CoeffElem.from_rational(coeff)
        return EPoly({make_word(w): coeff})

    @staticmethod
    def constant(c: CoeffElem | Fraction | int) -> "EPoly":
        return EPoly.word((), c)

    @staticmethod
    def combination(pairs: Iterable[tuple[Fraction | int, "EPoly"]]) -> "EPoly":
        """sum q * p over rational q: one :func:`coeffring.rational_lincomb`
        of the slices, which returns the sum's slices in one pass however
        many terms there are."""
        return EPoly._from_slices(None, rational_lincomb((q, p.slices()) for q, p in pairs))

    # -- queries ----------------------------------------------------------

    def coefficient(self, w: Iterable[int]) -> CoeffElem:
        return self.coeffs.get(make_word(w), CoeffElem.zero())

    def constant_term(self) -> CoeffElem:
        """The coefficient of the empty word, read from the grade-0 buckets."""
        grade0 = keep_grades(self._sliced, lambda g: g == 0)
        return CoeffElem._from_clean(
            {mono: Fraction(n, den) for mono, (den, [(_, [(_, n)])]) in grade0.items()}
        )

    def without_constant(self) -> "EPoly":
        """The words of positive length: the buckets of the slices above grade 0."""
        return EPoly._from_slices(None, keep_grades(self._sliced, lambda g: g > 0))

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def words(self) -> list[EWord]:
        return sorted(self.coeffs, key=lambda w: (len(w), w))

    def __str__(self) -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for w in sorted(coeffs, key=lambda w: (len(w), w)):
            name = "1" if not w else "".join(f"e{k}" for k in w)
            parts.append(f"({coeffs[w]}) {name}")
        return " + ".join(parts)

    # perfbench's tracer wraps EPoly.__add__ through the class's __dict__,
    # without touching the other containers' additions, so EPoly binds the
    # base's slice addition as an entry of its own.
    __add__ = CoeffMap.__add__

    def prepend(self, letter: int) -> "EPoly":
        """Left-concatenate one letter onto every word: the slices' keys
        mapped and each bucket moved up one grade.

        The letter is checked once (a negative one raises ValueError); an
        odd letter gives zero, and an even one keeps the key rule.
        """
        head = make_word((letter,))
        if head[0] % 2:
            return EPoly.zero()
        out: Slices = {
            mono: (den, [(g + 1, [(head + w, n) for w, n in terms]) for g, terms in buckets])
            for mono, (den, buckets) in self.slices().items()
        }
        return EPoly._from_slices(None, out)


def shuffle_words(u: Iterable[int], v: Iterable[int]) -> EPoly:
    """Shuffle product of two words, unit coefficients with multiplicity.

    Built as slices straight from the integer multiplicities: one monomial
    1 over denominator 1, bucketed by word length, with the key rule's
    drop of words that have an odd letter.
    """
    mults = shuffle_multiset(make_word(u), make_word(v))
    even = {w: n for w, n in mults.items() if not has_odd_letter(w)}
    return EPoly._from_slices(None, normalise({MONOMIAL_ONE: {1: even}}, len))


def epoly_mul(x: EPoly, y: EPoly, table: MzvTable | None = None) -> EPoly:
    """Bilinear extension of the shuffle product."""
    acc = EPoly.zero()
    y_terms = list(y.items())  # read once: each read builds them
    for wx, cx in x.items():
        for wy, cy in y_terms:
            c = coeff_mul(cx, cy, table)
            acc = acc + shuffle_words(wx, wy).scale(c)
    return acc


def epoly_to_qexp(x: EPoly, order: int) -> QTSeries:
    """Realize the word combination as a q-expansion to the given order.

    The polynomial's own slices are the scalars of the combination, already
    split by coefficient monomial, and the cached integrals enter on the
    slices they keep: no coefficient is built and nothing is sliced again.
    """
    scalars = {
        mono: (den, [t for _, terms in buckets for t in terms])
        for mono, (den, buckets) in x.slices().items()
    }
    integrals = {w: iei_qexp(w, order).slices() for _, terms in scalars.values() for w, _ in terms}
    # the integrals are rational, so no table is read
    cells = split_lincomb(scalars, integrals, order - 1, None)
    return QTSeries._from_slices(order, normalise(cells, _q_power))


def deconcat(x: EPoly) -> dict[tuple[EWord, EWord], CoeffElem]:
    """Deconcatenation coproduct: all splits of each word, coefficients kept.

    Public API: the coproduct that makes the e-words under the shuffle
    product a Hopf algebra, for library callers working with the coaction
    on the image; the package's own pipelines do not call it.
    """
    return accumulate({}, ((split, c) for w, c in x.items() for split in deconcatenations(w)))
