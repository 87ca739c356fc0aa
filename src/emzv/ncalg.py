"""Truncated noncommutative power series in two letters and associator data.

Series live in Q<...>-coefficients over the letters ``a`` and ``b``,
kept up to a fixed word degree.  This module builds the constant-term
machinery of the decomposition:

* ``t = -[a, b]`` and ``ytilde = -(ad(a) / (e^{ad(a)} - 1))(b)``,
* the associator ``Phi`` whose coefficients are shuffle-regularized zeta
  values read off the table,
* the limit series ``Ainf = e^{pi t / 2} Phi(ytilde, t) e^{pi ytilde}
  Phi(ytilde, t)^{-1}`` (recall ``pi`` denotes 2*pi*i),
* extraction of the constants gamma_{k_1..k_n} as coefficients of the
  monomials ad^{k_n}(a)(b) ... ad^{k_1}(a)(b).

Binary words over A, B index regularized iterated integrals from 0 to 1,
first letter integrated first, with A carrying dt/(1-t) and B carrying
dt/t; regularization sets both single letters to zero.  The two sign and
letter choices entering the associator coefficients are fixed by the
calibration constants below, which are pinned by the gamma anchor tests.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Mapping

from .coeffring import (
    MONOMIAL_ONE,
    CoeffElem,
    CoeffMap,
    MzvTable,
    Slices,
    accumulate,
    assoc_concat,
    bernoulli,
    build_coeffs,
    build_slices,
    coeff_mul,
    convolve,
    graded_slices,
    lincomb,
    memoized,
    normalise,
    rational_lincomb,
)
from .errors import (
    DegreeMismatch,
    ExtractionInconsistent,
    PreconditionViolated,
    TableOverflow,
)
from .words import graded_words, make_word, shuffle_multiset

NCWord = str  # over the alphabet {"a", "b"}
BinWord = str  # over the alphabet {"A", "B"}


class NCSeries(CoeffMap):
    """Series up to a word degree: finite map word -> CoeffElem, words within maxdeg."""

    __slots__ = ()
    maxdeg = CoeffMap.shape  # the truncation degree, stored in the base's slot

    def _keep(self, coeffs: Mapping[NCWord, CoeffElem]) -> dict[NCWord, CoeffElem]:
        D = self.maxdeg
        return {w: c for w, c in coeffs.items() if len(w) <= D and c}

    def _slice(self, coeffs: dict[NCWord, CoeffElem]) -> Slices:
        return graded_slices(coeffs.items(), len)  # graded by word degree

    def _build(self) -> dict[NCWord, CoeffElem]:
        return build_slices(self._sliced)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def one(maxdeg: int) -> "NCSeries":
        return NCSeries(maxdeg, {"": CoeffElem.one()})

    @staticmethod
    def letter(name: str, maxdeg: int) -> "NCSeries":
        return NCSeries(maxdeg, {name: CoeffElem.one()})

    # -- queries ----------------------------------------------------------

    def constant_term(self) -> CoeffElem:
        return self.coefficient("")

    def min_degree(self) -> int | None:
        return min((buckets[0][0] for _, buckets in self._sliced.values()), default=None)

    def component(self, d: int) -> dict[NCWord, CoeffElem]:
        return {w: c for w, c in self.coeffs.items() if len(w) == d}

    def __str__(self) -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for w in sorted(coeffs, key=lambda w: (len(w), w)):
            parts.append(f"({coeffs[w]}) {w or '1'}")
        return " + ".join(parts)


# The series 1 as slices: the empty word on the monomial 1.
_ONE: Slices = {MONOMIAL_ONE: (1, [(0, [("", 1)])])}


def _has_constant(slices: Slices) -> bool:
    return any(buckets[0][0] == 0 for _, buckets in slices.values())


def nc_mul(
    x: NCSeries, y: NCSeries, table: MzvTable | None = None, max_w: int | None = None
) -> NCSeries:
    """Concatenation product up to the common maxdeg: the convolution of
    the operands' slices graded by word degree, with the TableOverflow rule
    and the cut by coefficient weight max_w of :func:`coeffring.convolve`."""
    if x.maxdeg != y.maxdeg:
        raise DegreeMismatch(f"maxdeg {x.maxdeg} != {y.maxdeg}")
    cells = convolve(x.slices(), y.slices(), x.maxdeg, table, max_w)
    return NCSeries._from_slices(x.maxdeg, normalise(cells, len))


def nc_bracket(x: NCSeries, y: NCSeries, table: MzvTable | None = None) -> NCSeries:
    return nc_mul(x, y, table) - nc_mul(y, x, table)


def _power_sum(
    u: NCSeries, weight: Callable[[int], Fraction], table: MzvTable | None, max_w: int | None
) -> NCSeries:
    """sum weight(n) * u^n over n = 0..maxdeg, for u of zero constant term
    and rational weights with weight(0) = 1.  The powers are nc_mul
    products cut at max_w, born sliced, and the sum is one
    :func:`rational_lincomb` of their slices."""
    D = u.maxdeg
    terms = [(1, _ONE)]
    power = u
    for n in range(1, D + 1):
        if n > 1:
            power = nc_mul(power, u, table, max_w)
        if power.is_zero():
            break
        terms.append((weight(n), power.slices()))
    return NCSeries._from_slices(D, rational_lincomb(terms))


def nc_exp(x: NCSeries, table: MzvTable | None = None, max_w: int | None = None) -> NCSeries:
    """exp of a series with zero constant term: sum x^n / n!, powers cut at max_w."""
    if _has_constant(x.slices()):
        raise PreconditionViolated("nc_exp needs zero constant term")
    return _power_sum(x, lambda n: Fraction(1, math.factorial(n)), table, max_w)


def nc_inv(x: NCSeries, table: MzvTable | None = None, max_w: int | None = None) -> NCSeries:
    """Inverse of a series with constant term 1: sum (1 - x)^n, powers cut at max_w."""
    u = rational_lincomb([(1, _ONE), (-1, x.slices())])
    if _has_constant(u):  # 1 - x has zero constant term iff x has constant term 1
        raise PreconditionViolated("nc_inv needs constant term 1")
    return _power_sum(NCSeries._from_slices(x.maxdeg, u), lambda n: Fraction(1), table, max_w)


def ad_expansion(k: int, x: str = "a", y: str = "b") -> dict[str, int]:
    """Word expansion of ad^k(x)(y) = sum_j (-1)^j C(k, j) x^{k-j} y x^j."""
    return {x * (k - j) + y + x * j: (-1) ** j * math.comb(k, j) for j in range(k + 1)}


def ad_pow(k: int, maxdeg: int | None = None) -> NCSeries:
    """The element ad^k(a)(b) as a series."""
    if k < 0:
        raise ValueError("k must be >= 0")
    D = maxdeg if maxdeg is not None else k + 1
    coeffs = {w: CoeffElem.from_rational(q) for w, q in ad_expansion(k).items()}
    return NCSeries(D, coeffs)


def build_ytilde(maxdeg: int) -> NCSeries:
    """ytilde = -(ad(a) / (e^{ad(a)} - 1))(b) = -sum B_n/n! ad^n(a)(b),
    summed over n < maxdeg as one :func:`rational_lincomb` of the slices of
    the ad^n(a)(b)."""
    if maxdeg < 1:
        raise ValueError("maxdeg must be >= 1")
    terms = (
        (-bernoulli(n) / math.factorial(n), ad_pow(n, maxdeg).slices()) for n in range(maxdeg)
    )
    return NCSeries._from_slices(maxdeg, rational_lincomb(terms))


# ---------------------------------------------------------------------------
# Shuffle regularization of binary words


def bin_shuffle(u: BinWord, v: BinWord) -> dict[BinWord, int]:
    return {
        "".join(w): mult for w, mult in shuffle_multiset(tuple(u), tuple(v)).items()
    }


def is_admissible(w: BinWord) -> bool:
    return len(w) >= 2 and w[0] == "A" and w[-1] == "B"


def shuffle_regularize(w: BinWord, table: MzvTable) -> CoeffElem:
    """Regularized value of a binary word, single letters sent to zero.

    Divergent words are peeled: leading B's through B shuffle identities,
    trailing A's symmetrically, until only admissible words remain; those
    are read from the table.
    """
    if set(w) - {"A", "B"}:
        raise ValueError(f"bad letters in {w!r}")
    cache: dict[BinWord, CoeffElem] = table.caches.setdefault("reg", {})

    def reg(word: BinWord) -> CoeffElem:
        return memoized(cache, word, lambda: value(word))

    def value(word: BinWord) -> CoeffElem:
        if not word:
            return CoeffElem.one()
        if len(word) == 1:
            return CoeffElem.zero()
        if is_admissible(word):
            if len(word) > table.max_weight:
                raise TableOverflow(
                    f"regularized value at weight {len(word)} exceeds cap "
                    f"{table.max_weight}"
                )
            return table.convergent_words[word]
        if word[0] == "B":
            p = len(word) - len(word.lstrip("B"))
            shuffled = bin_shuffle("B", word[1:])  # B . B^(p-1) . tail
        else:  # starts with A, ends with A
            p = len(word) - len(word.rstrip("A"))
            shuffled = bin_shuffle(word[:-1], "A")  # head . A^(p-1) . A
        acc = CoeffElem.zero()
        for other, mult in shuffled.items():
            if other != word:  # the word itself appears with multiplicity p
                acc = acc + reg(other).scale(mult)
        return acc.scale(Fraction(-1, p))

    return reg(w)


# ---------------------------------------------------------------------------
# The associator
#
# Coefficient convention: the word x^(i1) y^(j1) ... in the two arguments is
# sent to the binary word with x -> B and y -> A, read right-to-left
# (regularized integrals here put the first letter nearest 0, Chen series
# put it nearest the endpoint), and the regularized value is weighted by
# (-1)^(number of y's).  These choices are pinned by the gamma anchors
# gamma_{2,0,0} = pi^3/72 and gamma_{0,1,0,0} = -3 pi z3.


def build_phi(
    x: NCSeries, y: NCSeries, maxdeg: int, table: MzvTable, max_b: int | None = None
) -> NCSeries:
    """Associator series evaluated at (x, y), up to degree maxdeg.

    The series is a walk over the words in the two arguments, each node
    weighted by the regularized value of its binary word.  With max_b the
    walk stops at words of max_b letters, so it reads no regularized value
    of a longer binary word.  When every word of x and of y has exactly one
    letter b (as for ytilde and t), a walk word of l letters contributes
    words with exactly l letters b, and the result is the series' words
    with at most max_b letters b.

    A word that survives the truncation but lies beyond the table's cap
    raises TableOverflow where its value is read, in
    :func:`shuffle_regularize`, naming the word's weight.
    """
    if _has_constant(x.slices()) or _has_constant(y.slices()):
        raise PreconditionViolated("associator arguments need zero constant term")

    D = maxdeg
    arg = {0: x.slices(), 1: y.slices()}
    mindeg = {0: x.min_degree() or D + 1, 1: y.min_degree() or D + 1}
    # The walk carries each node's word product as integer slices and
    # collects (regularized value, word product) pairs; Phi is their linear
    # combination, kept as slices.
    terms = [(CoeffElem.one(), _ONE)]

    def visit(word: tuple[int, ...], node: Slices, degree_floor: int) -> None:
        if word:
            c = shuffle_regularize("".join("BA"[l] for l in reversed(word)), table)
            if not c.is_zero():
                terms.append((-c if sum(word) % 2 else c, node))
        if len(word) == max_b:
            return
        for l in (0, 1):
            nd = degree_floor + mindeg[l]
            if nd > D:
                continue
            nxt = normalise(convolve(node, arg[l], D, table), len)
            if nxt:
                visit(word + (l,), nxt, nd)

    visit((), _ONE, 0)
    return NCSeries._from_slices(D, normalise(lincomb(terms, D, table), len))


def index_degree(idx: Iterable[int]) -> int:
    """Word degree of an index's monomial in the limit series: weight + length."""
    return sum(k + 1 for k in idx)


def required_table_weight(degree: int, length: int | None = None) -> int:
    """Table weight cap the limit series up to a degree d needs: d - 1, or
    min(d - 1, n) for its terms of at most n letters b, which by homogeneity
    (:func:`build_Ainf`) have coefficients of weight at most n.  So the
    constant of an index of length n needs min(d - 1, n), whatever its weight.
    """
    return degree - 1 if length is None else min(degree - 1, length)


def constant_cut(degree: int, length: int, table: MzvTable) -> int:
    """The max_b the constants of the block (degree, length) are built with
    (:func:`extract_gamma`): the whole series while the table serves it,
    else the block's length.  Cutting by length within the cap too would
    make shuffled requests build several series."""
    return degree if required_table_weight(degree) <= table.max_weight else length


def build_Ainf(maxdeg: int, table: MzvTable, max_b: int | None = None) -> NCSeries:
    """Limit of the generating series at the cusp, built from the associator.

    The series is homogeneous: a term's number of letters b is its
    coefficient monomial's weight.  Each word of t and of ytilde has one b
    (and one pi in the exponentials), a walk word of Phi(ytilde, t) with l
    letters a value of weight l on words with l b's, and products add both.
    With max_b, only the monomials of weight at most max_b are built: the
    walk of :func:`build_phi` stops at max_b letters, and ``nc_exp``,
    ``nc_inv`` and ``nc_mul`` skip the products above that weight (their
    ``max_w``).  The table guard is :func:`required_table_weight`.

    A pure function of (maxdeg, table, max_b): nothing is cached but the
    regularized values.  The constants keep their own memo
    (:func:`extract_gamma`).
    """
    if maxdeg < 1:
        raise ValueError("maxdeg must be >= 1")
    if max_b is not None:
        if max_b < 0:
            raise ValueError("max_b must be >= 0")
        if max_b >= maxdeg:  # no word of degree <= maxdeg has more b's
            max_b = None
    need = required_table_weight(maxdeg, max_b)
    if need > table.max_weight:
        raise TableOverflow(
            f"constant-term series at degree {maxdeg} needs a table of weight "
            f">= {need}, cap is {table.max_weight}"
        )
    D = maxdeg
    t = -nc_bracket(NCSeries.letter("a", D), NCSeries.letter("b", D))
    ytilde = build_ytilde(D)
    phi = build_phi(ytilde, t, D, table, max_b)
    # Phi and its inverse carry zeta symbols: their products need the table
    phi_inv = nc_inv(phi, table, max_b)
    half_pi = CoeffElem.pi_pow(1, Fraction(1, 2))  # pi*i = (2*pi*i)/2
    exp_pit = nc_exp(t.scale(half_pi), table, max_b)
    exp_piy = nc_exp(ytilde.scale(CoeffElem.pi_pow(1)), table, max_b)
    ainf = exp_pit
    for factor in (phi, exp_piy, phi_inv):
        ainf = nc_mul(ainf, factor, table, max_b)
    return ainf


# ---------------------------------------------------------------------------
# Coefficient extraction against the monomials ad^{k_n}(a)(b) ... ad^{k_1}(a)(b)

EmzvIndexTuple = tuple[int, ...]

# (word degree, number of letters b): an index's (degree, length)
Block = tuple[int, int]


def compositions_of(d: int) -> list[EmzvIndexTuple]:
    """All (k_1, ..., k_n) with sum (k_i + 1) = d; empty only for d = 0."""
    return [idx for n in range(d + 1) for idx in graded_words(n, d - n)]


def index_monomial(idx: EmzvIndexTuple) -> dict[NCWord, int]:
    """Word expansion of ad^{k_n}(a)(b) ... ad^{k_1}(a)(b)."""
    return functools.reduce(assoc_concat, map(ad_expansion, reversed(idx)), {"": 1})


def pure_word(idx: EmzvIndexTuple) -> NCWord:
    """Leading word of the index monomial (all adjoint terms leftmost)."""
    return "".join("a" * k + "b" for k in reversed(idx))


# The elimination plan of one block (degree, length): each composition in
# solve order with its pure word and the other terms of its index monomial,
# negated.
_Plan = tuple[tuple[EmzvIndexTuple, NCWord, tuple[tuple[NCWord, int], ...]], ...]

_plan_cache: dict[Block, _Plan] = {}


def _solve_plan(degree: int, length: int) -> _Plan:
    """The compositions of the degree with the given length in decreasing
    reversed-lexicographic order, against which their index monomials are
    unitriangular: each has coefficient 1 on its own pure word.  Every word
    of such a monomial has exactly ``length`` letters b, so the plans of the
    lengths of a degree are independent blocks of one elimination.
    Table-free, built once per block."""

    def build() -> _Plan:
        comps = sorted(
            graded_words(length, degree - length), key=lambda j: tuple(reversed(j)), reverse=True
        )
        words: dict[NCWord, NCWord] = {}  # one string per word of the block
        plan = []
        for j in comps:
            pure = pure_word(j)
            rest = tuple(
                (words.setdefault(w, w), -q) for w, q in index_monomial(j).items() if w != pure
            )
            plan.append((j, words.setdefault(pure, pure), rest))
        return tuple(plan)

    return memoized(_plan_cache, (degree, length), build)


# A sparse integer vector: column -> nonzero int.  The columns are the
# coefficient monomials in extract_gamma and (monomial, denominator, e-word)
# in gseries_decompose; the solve never looks inside a column.
IntVector = dict[Any, int]


def triangular_index_solve(
    component: Mapping[NCWord, IntVector], degree: int, length: int
) -> dict[EmzvIndexTuple, IntVector]:
    """Solve component = sum_j x_j * monomial(j) over the compositions j of
    the block (degree, length), on sparse integer vectors.

    Each word's value is a vector column -> nonzero int, and so is each
    x_j; the monomials are integral, so an integer vector solves in
    integers, column by column.  The walk follows the block's plan once:
    each word collects its (q, x_j) contributions and combines them with its
    own vector once, in plain integer arithmetic, when the walk reaches it.
    A pivot's vector is returned as it is when nothing was pushed onto it.
    The final residuals, any word outside the block included, must vanish,
    otherwise ExtractionInconsistent is raised.  Only the nonzero x_j are
    returned.
    """
    work = dict(component)
    pending: dict[NCWord, list[tuple[int, IntVector]]] = {}  # word -> its (q, x_j)

    def settle(w: NCWord) -> IntVector | None:
        x, terms = work.pop(w, None), pending.pop(w, None)
        if not terms:
            return x
        acc = dict(x) if x else {}
        get = acc.get
        for q, xj in terms:
            for col, n in xj.items():
                acc[col] = get(col, 0) + q * n
        return {col: n for col, n in acc.items() if n}

    out: dict[EmzvIndexTuple, IntVector] = {}
    for j, pure, rest in _solve_plan(degree, length):
        x = settle(pure)
        if not x:
            continue
        out[j] = x
        for w, q in rest:
            pending.setdefault(w, []).append((q, x))
    leftovers = [w for w in set(work) | set(pending) if settle(w)]
    if leftovers:
        raise ExtractionInconsistent(
            f"degree-{degree} residual outside the span of the length-{length} "
            f"index monomials on words {sorted(leftovers)[:4]}"
        )
    return out


def extract_gamma(idx: Iterable[int], table: MzvTable) -> CoeffElem:
    """Constant gamma_{k_1..k_n}: coefficient extraction from the limit series.

    The constants are memoized on the table, one entry per block (degree,
    length).  A block (d, n) not yet solved builds the limit series at
    degree d, whole while the table serves it and else cut at max_b = n;
    every block of that build not yet solved is solved from it and stored,
    as a component does not depend on the build's degree.  By homogeneity
    the degree-g bucket of a monomial's slice has w letters b on a monomial
    of weight w, so it belongs to the block (g, w).  Each block is gathered
    across the monomials as word -> {monomial: numerator} and solved once,
    in integers (:func:`triangular_index_solve`); each constant is built
    once from Fraction(numerator, the monomial's denominator).
    """
    index = make_word(idx)
    d, n = index_degree(index), len(index)
    solved: dict[Block, dict[EmzvIndexTuple, CoeffElem]] = table.caches.setdefault("solve", {})
    if (d, n) not in solved:
        D = max(d, 1)
        B = constant_cut(D, n, table)
        series = build_Ainf(D, table, max_b=B).slices()
        blocks: dict[Block, dict[NCWord, IntVector]] = {}
        for mono, (_, buckets) in series.items():
            w = mono.weight(table.symbols)
            for g, terms in buckets:
                if (g, w) not in solved:
                    block = blocks.setdefault((g, w), {})
                    for word, num in terms:
                        block.setdefault(word, {})[mono] = num
        cells = {
            (g, w): {
                j: {mono: Fraction(num, series[mono][0]) for mono, num in x.items()}
                for j, x in triangular_index_solve(block, g, w).items()
            }
            for (g, w), block in blocks.items()
        }
        for g in range(D + 1):
            for w in range(min(g, B) + 1):
                memoized(solved, (g, w), functools.partial(build_coeffs, cells.get((g, w), {})))
    x = solved[d, n].get(index)
    if not x:
        return CoeffElem.zero()
    return x if len(index) % 2 == 0 else -x


# ---------------------------------------------------------------------------
# Coproduct with primitive letters (used for the group-likeness check)


def nc_coproduct(s: NCSeries) -> dict[tuple[NCWord, NCWord], CoeffElem]:
    """Both letters primitive: words split over all position subsets."""
    def splits(w: NCWord) -> Iterator[tuple[NCWord, NCWord]]:
        n = len(w)
        for mask in range(1 << n):
            left = "".join(w[i] for i in range(n) if mask >> i & 1)
            right = "".join(w[i] for i in range(n) if not mask >> i & 1)
            yield left, right

    return accumulate({}, ((key, c) for w, c in s.items() for key in splits(w)))


def is_grouplike(s: NCSeries, table: MzvTable | None = None) -> bool:
    """Delta(s) == s (x) s up to the truncation degree."""
    terms = list(s.items())  # read once: each read builds them
    rhs = accumulate(
        {},
        (
            ((w1, w2), coeff_mul(c1, c2, table))
            for w1, c1 in terms
            for w2, c2 in terms
            if len(w1) + len(w2) <= s.maxdeg
        ),
    )
    return nc_coproduct(s) == rhs
