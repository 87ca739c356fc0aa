"""The decomposition engine.

A nonnegative index (k_1, ..., k_n) labels a holomorphic function on the
upper half-plane whose normalized tau-derivative satisfies a recursion in
the length: it is a finite combination of terms

    alpha * E_w(tau) * (length n-1 index),

with alpha_0 = -1, alpha_1 = 0 and alpha_m = 2/(m-2)! for m >= 2, produced
by :func:`diffeq_expand`.  Integrating against the zero-constant-term
primitive turns each term into a one-letter prepend on e-words, and the
constant of integration is the coefficient extraction from the limit
series; :func:`decompose` assembles the value of the decomposition map as
an :class:`~emzv.eisalg.EPoly`.

:func:`gseries_decompose` recomputes the same data along an independent
route: it applies the normalized derivation words to the limit series and
re-extracts index coefficients, exercising the derivation algebra and the
associator instead of the length recursion.  It makes one pass over the
pieces of the series, one per coefficient monomial and word degree; the
series is homogeneous, so a piece's words have as many letters b as its
monomial's weight.  Each piece is pushed through the integer derivations
only toward the (degree, length) blocks of the requested indices, into their cells.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .coeffring import (
    Cells,
    CoeffElem,
    MzvMonomial,
    MzvTable,
    accumulate,
    bernoulli,
    memoized,
    normalise,
    parse_coeff,
    rational_lincomb,
    render_coeff,
)
from .derlie import eps_apply, eps_tilde_scale
from .eisalg import EPoly, EWord, eisenstein_qexp, epoly_to_qexp, has_odd_letter
from .errors import ParseError
from .linalg import RatMatrix, kernel_basis
from .ncalg import (
    Block,
    IntVector,
    NCSeries,
    build_Ainf,
    extract_gamma,
    index_degree,
    triangular_index_solve,
)
from .qseries import QTSeries, qt_mul
from .words import graded_words, make_word

EmzvIndex = tuple[int, ...]


def parse_index(text: str) -> EmzvIndex:
    text = text.strip()
    if not text:
        return ()
    try:
        return make_word(text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad index {text!r}") from exc


def format_index(idx: EmzvIndex) -> str:
    return ",".join(str(k) for k in idx)


def indices_upto(max_len: int, max_wt: int) -> list[EmzvIndex]:
    """All indices with length <= max_len and weight <= max_wt."""
    return [
        idx
        for length in range(max_len + 1)
        for weight in range(max_wt + 1)
        for idx in graded_words(length, weight)
    ]


# ---------------------------------------------------------------------------
# The differential recursion


class DiffTerm(NamedTuple):
    eis_weight: int
    sub_index: EmzvIndex
    coeff: Fraction


def _alpha_scaled(weight: int) -> tuple[int, list[int]]:
    """The common denominator L = (weight - 1)! of the alpha_m an index of
    the weight meets (m <= weight + 1), and the integers L * alpha_m."""
    L = math.factorial(max(weight - 1, 0))
    return L, [-L, 0] + [2 * L // math.factorial(j) for j in range(weight)]


def _binom(n: int, k: int) -> int:
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k)
    return (-1) ** k * math.comb(k - n - 1, k)


def diffeq_expand(idx: Iterable[int]) -> list[DiffTerm]:
    """Terms of the normalized tau-derivative, like terms combined.

    Terms with vanishing alpha coefficient or an odd Eisenstein weight are
    dropped; weight-0 factors are kept as explicit bookkeeping (the weight-0
    series is the constant -1).
    """
    k = make_word(idx)
    n = len(k)
    if n < 1:
        raise ValueError("the recursion needs length >= 1")
    # every alpha is an integer over L; each coefficient is built once
    L, alpha = _alpha_scaled(sum(k))

    def terms() -> Iterator[tuple[tuple[int, EmzvIndex], int]]:
        yield (k[0] + 1, k[1:]), alpha[k[0] + 1]
        yield (k[-1] + 1, k[:-1]), -alpha[k[-1] + 1]
        for i in range(2, n + 1):  # position of k_i, 1-based as in the recursion
            prev, cur = k[i - 2], k[i - 1]
            head, tail = k[: i - 2], k[i:]
            yield (prev + cur + 1, head + (0,) + tail), (-1) ** cur * alpha[prev + cur + 1]
            for m in range(prev + 2):
                q = _binom(cur + m - 1, m) * alpha[prev - m + 1]
                yield (prev - m + 1, head + (m + cur,) + tail), -q
            for m in range(cur + 2):
                q = _binom(prev + m - 1, m) * alpha[cur - m + 1]
                yield (cur - m + 1, head + (m + prev,) + tail), q

    acc = accumulate({}, terms())
    return [
        DiffTerm(eis, sub, Fraction(q, L))
        for (eis, sub), q in sorted(acc.items())
        if eis % 2 == 0
    ]


# ---------------------------------------------------------------------------
# Decomposition


class Decomposition(NamedTuple):
    """Image of an index under the decomposition map."""

    index: EmzvIndex
    epoly: EPoly

    @property
    def gamma(self) -> CoeffElem:
        """The constant gamma of the index: psi's constant term."""
        return self.epoly.constant_term()

    @property
    def nc_degree(self) -> int:
        """The limit-series degree the constant is read at: the index's
        degree for length >= 2, and 0 for the closed-form lengths 0 and 1."""
        return index_degree(self.index) if len(self.index) >= 2 else 0

    def to_doc(self) -> dict:
        return {
            "schema": "emzv.decomposition/1",
            "index": list(self.index),
            "gamma": render_coeff(self.gamma),
            "terms": [
                [format_index(w), render_coeff(c)]
                for w, c in sorted(self.epoly.items(), key=lambda t: (len(t[0]), t[0]))
            ],
            "params": {"nc_degree": self.nc_degree},
        }

    @staticmethod
    def from_doc(doc: Mapping, table: MzvTable) -> "Decomposition":
        """The decomposition a document records; ParseError names the field
        of a missing, malformed or inconsistent one (a repeated or odd word
        in ``terms``, a ``gamma`` that is not their constant term, a
        ``params.nc_degree`` other than the index's)."""
        if doc.get("schema") != "emzv.decomposition/1":
            raise ParseError(f"unsupported schema {doc.get('schema')!r}")

        def parse_terms(terms) -> EPoly:
            coeffs: dict[EWord, CoeffElem] = {}
            for pair in terms:
                if len(pair) != 2:
                    raise ParseError(f"{pair!r} is not a [word, coefficient] pair")
                w, c = pair
                word = parse_index(w)
                if word in coeffs:
                    raise ParseError(f"word {w!r} given twice")
                if has_odd_letter(word):
                    raise ParseError(f"word {w!r} has an odd letter")
                coeffs[word] = parse_coeff(c, table.symbols)
            return EPoly(coeffs)

        def field(name: str, parse, value):
            try:
                return parse(value)
            except (ParseError, TypeError, ValueError, AttributeError) as exc:
                raise ParseError(f"{name}: {exc}") from None

        def required(key: str):
            if key not in doc:
                raise ParseError(f"{key}: missing")
            return doc[key]

        index = field("index", make_word, required("index"))
        epoly = field("terms", parse_terms, required("terms"))
        gamma = field("gamma", lambda text: parse_coeff(text, table.symbols), required("gamma"))
        dec = Decomposition(index, epoly)
        if gamma != dec.gamma:
            raise ParseError("gamma: not the constant term of terms")
        params = doc.get("params", {})
        nc_degree = field("params.nc_degree", lambda p: int(p.get("nc_degree", 0)), params)
        if nc_degree != dec.nc_degree:
            raise ParseError(
                f"params.nc_degree: {nc_degree}, index {list(index)} needs {dec.nc_degree}"
            )
        return dec


def decompose(idx: Iterable[int], table: MzvTable) -> Decomposition:
    """Value of the decomposition map on the index, with its constant term.

    Lengths 0 and 1 are closed-form; longer indices integrate the
    differential recursion, the constant of integration coming from the
    limit series at word degree weight + length.
    """
    index = make_word(idx)
    return memoized(
        table.caches.setdefault("decomp", {}), index, lambda: _decompose(index, table)
    )


def _decompose(index: EmzvIndex, table: MzvTable) -> Decomposition:
    n = len(index)
    if n == 0:
        return Decomposition((), EPoly.constant(1))
    if n == 1:
        k = index[0]
        if k % 2:
            gamma = CoeffElem.zero()
        else:
            gamma = CoeffElem.pi_pow(1, bernoulli(k) / math.factorial(k))
        return Decomposition(index, EPoly.constant(gamma))
    # psi(I) = gamma_I + the integrated recursion: each term's sub-index
    # image with the Eisenstein letter prepended, times -alpha, summed as one
    # integer combination of slices
    gamma = extract_gamma(index, table)
    recursion = EPoly.combination(
        (-term.coeff, decompose(term.sub_index, table).epoly.prepend(term.eis_weight))
        for term in diffeq_expand(index)
    )
    return Decomposition(index, EPoly.constant(gamma) + recursion)


def emzv_qexp(idx: Iterable[int], order: int, table: MzvTable) -> QTSeries:
    """Fourier expansion of the index; raises FourierViolation on T terms."""
    dec = decompose(idx, table)
    return epoly_to_qexp(dec.epoly, order).require_t_free()


def diffeq_rhs_qexp(idx: Iterable[int], order: int, table: MzvTable) -> QTSeries:
    """q-expansion of the right side of the recursion, assembled termwise
    as one :func:`coeffring.rational_lincomb` of the products' slices."""
    terms = (
        (
            term.coeff,
            qt_mul(
                eisenstein_qexp(term.eis_weight, order), emzv_qexp(term.sub_index, order, table)
            ).slices(),
        )
        for term in diffeq_expand(idx)
    )
    return QTSeries._from_slices(order, rational_lincomb(terms))


# ---------------------------------------------------------------------------
# Generating-series route


def gseries_decompose(
    max_len: int, max_wt: int, table: MzvTable
) -> dict[EmzvIndex, EPoly]:
    """Decompositions of all indices in range along the derivation route.

    Computes sum_w e_w (x) eps~_w(limit series) and solves it for the index
    coefficients; entirely independent of diffeq_expand and of the
    per-index constant extraction, so it serves as a cross-check of the
    length recursion.

    The system splits into independent blocks (index degree d, index
    length n): every word of an index monomial of length n has n letters
    b, a limit-series term has as many b's as its monomial's weight, and
    every eps_{2k} adds exactly one b.  Only the blocks of the range's
    indices are computed and solved, each along its own elimination plan
    and against the unchanged residual check; a block no requested index
    reads is not built, so it is not checked either (``extract_gamma``
    still checks every degree of the limit series).  The limit series is
    built only up to the range's longest length in monomial weight
    (``build_Ainf``'s ``max_b``).  Each block's integer vectors
    (:func:`_eps_word_cells`) are solved as they are, in integers; each
    index's polynomial is then built once, one part per coefficient
    monomial (born sliced by ``normalise``), the parts summed with ``+``.
    """
    by_block: dict[Block, list[EmzvIndex]] = {}
    for idx in indices_upto(max_len, max_wt):
        if idx:
            by_block.setdefault((index_degree(idx), len(idx)), []).append(idx)
    out: dict[EmzvIndex, EPoly] = {(): EPoly.constant(1)}
    if not by_block:
        return out
    # a monomial heavier than the longest index reaches no block
    ainf = build_Ainf(max(d for d, _ in by_block), table, max_b=max(n for _, n in by_block))
    cells = _eps_word_cells(ainf, by_block, table)
    for (d, n), indices in sorted(by_block.items()):
        solved = triangular_index_solve(cells.pop((d, n)), d, n)
        sign = 1 if n % 2 == 0 else -1
        for idx in indices:
            by_mono: dict[MzvMonomial, Cells] = {}
            for (mono, b, eword), num in solved.get(idx, {}).items():
                by_mono.setdefault(mono, {}).setdefault(b, {})[eword] = sign * num
            # disjoint monomials: each sum keeps the slices it adds
            out[idx] = sum(
                (
                    EPoly._from_slices(None, normalise({mono: c}, len))
                    for mono, c in by_mono.items()
                ),
                EPoly.zero(),
            )
    return out


def _reachable(blocks: Collection[Block]) -> set[Block]:
    """The (degree, b's) states from which the eps_{2k} (one b and 2k >= 0
    degrees each) reach a block (d, n): itself and (d - 2i, n - j), j >= 1."""
    out = set(blocks)
    for d, n in blocks:
        out.update((d - 2 * i, n - j) for j in range(1, n + 1) for i in range(d // 2 + 1))
    return out


def _eps_word_cells(
    ainf: NCSeries, blocks: Collection[Block], table: MzvTable
) -> dict[Block, dict[str, IntVector]]:
    """Every eps~_w applied to the pieces of the limit series, written into
    the requested block it lands in: word -> {(monomial, denominator,
    e-word): numerator}, the integer vectors of
    :func:`ncalg.triangular_index_solve`.

    A piece is one degree bucket of the series' slice on a monomial mu, at
    (its degree, mu's weight in b's); it is pushed through the eps_{2k}
    (:func:`derlie.eps_apply`) while its state reaches some block.  With
    the eps~ normalisation and the slice's denominator as one factor a / b,
    an image v puts a * v[w] on (mu, b, e-word) for each word w: once per
    block, so no entry sums."""
    top = max(d for d, _ in blocks)
    ops = [(k2, eps_tilde_scale(k2)) for k2 in range(0, top, 2)]
    reach = _reachable(blocks)
    cells: dict[Block, dict[str, IntVector]] = {block: {} for block in blocks}
    for mono, (den, buckets) in ainf.slices().items():
        weight = mono.weight(table.symbols)
        for m, terms in buckets:
            # every derivation kills the constant 1
            if m == 0 or (m, weight) not in reach:
                continue
            stack = [(m, weight, (), Fraction(1, den), dict(terms))]
            while stack:
                deg, nb, eword, factor, v = stack.pop()
                block = cells.get((deg, nb))
                if block is not None:
                    a, b = factor.as_integer_ratio()
                    col = (mono, b, eword)
                    for w, n in v.items():
                        block.setdefault(w, {})[col] = a * n
                for k2, norm in ops:
                    if (deg + k2, nb + 1) not in reach:
                        continue
                    image = eps_apply(k2, v)
                    if image:
                        # the newest application is outermost: it leads the word
                        stack.append((deg + k2, nb + 1, (k2,) + eword, factor * norm, image))
    return cells


# ---------------------------------------------------------------------------
# Relation discovery


def find_emzv_relations(
    indices: Sequence[Iterable[int]], table: MzvTable
) -> list[tuple[Fraction, ...]]:
    """Kernel of the decompositions in common (word, monomial) coordinates."""
    polys = [decompose(i, table).epoly for i in indices]
    rows: dict[tuple[EWord, MzvMonomial], list[Fraction | int]] = {}
    for j, p in enumerate(polys):
        # the entries are read from the slices, so no coefficient is built
        for mono, (den, buckets) in p.slices().items():
            for _, terms in buckets:
                for w, n in terms:
                    rows.setdefault((w, mono), [0] * len(polys))[j] = Fraction(n, den)
    mat = RatMatrix(len(rows), len(polys), tuple(q for row in rows.values() for q in row))
    return kernel_basis(mat)
