"""Exact coefficient arithmetic.

The coefficient ring is a polynomial ring over Q in one formal symbol ``pi``
together with a finite list of multiple-zeta generators supplied by a data
table.  Throughout the package ``pi`` denotes 2*pi*i, so that for even s

    zeta(s) = -B_s / (2 * s!) * pi**s,

and even single zetas never appear as generators: they are eliminated in
favor of powers of ``pi``.  Odd zeta values and irreducible higher-depth
zetas are opaque symbols (``z3``, ``z5``, ``z7``, ``z35``, ...) whose
products are free; the table names this basis up to its weight cap and
records the reduction of every convergent iterated-integral word into it.

A :class:`CoeffElem` is a finite Q-linear combination of monomials
``pi**a * z3**b * ...``.  Addition is table-free; every product of
monomials goes through :func:`monomial_mul`, which enforces the weight cap
of the table whenever two symbol-bearing monomials meet.

Table documents are versioned structured text; the grammar is the comment
above ``FORMAT_NAME``.
"""

from __future__ import annotations

import math
import os
import threading
from fractions import Fraction
from typing import (
    IO,
    Any,
    Callable,
    Collection,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Sequence,
    TypeVar,
)

from .errors import ConsistencyError, DegreeMismatch, ParseError, TableOverflow

PI_SYMBOL = "pi"

K = TypeVar("K")
V = TypeVar("V")


def accumulate(acc: dict[K, V], pairs: Iterable[tuple[K, V]]) -> dict[K, V]:
    """Add each (key, value) into acc, dropping keys whose sum is zero.

    The sparse kernel of every container in the package: values may be of
    any type with + whose zero is falsy (int, Fraction, CoeffElem, EPoly).
    Returns acc.
    """
    get = acc.get
    for key, value in pairs:
        cur = get(key)
        s = value if cur is None else cur + value
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)
    return acc


def assoc_concat(x: Mapping[K, V], y: Mapping[K, V]) -> dict[K, V]:
    """Concatenation product of two sparse word vectors (str or tuple words)."""
    out: dict = {}
    get = out.get
    for w1, q1 in x.items():
        for w2, q2 in y.items():
            w = w1 + w2
            out[w] = get(w, 0) + q1 * q2
    return {w: q for w, q in out.items() if q}


# The one lock of the package's memo policy: every cache stores under it.
MEMO_LOCK = threading.Lock()


def memoized(cache: dict[K, V], key: K, compute: Callable[[], V]) -> V:
    """cache[key], computing and storing it on a miss.

    compute runs outside the lock (it may recurse into memoized itself);
    the store is a setdefault under MEMO_LOCK, and the stored value is
    returned, so concurrent callers all get the first writer's object.
    Values must not be None.
    """
    hit = cache.get(key)
    if hit is not None:
        return hit
    value = compute()
    with MEMO_LOCK:
        return cache.setdefault(key, value)


_bernoulli_cache: list[Fraction] = [Fraction(1)]


def bernoulli(m: int) -> Fraction:
    """Return B_m for the generating function t/(e^t - 1), so B_1 = -1/2.

    Memoized as a growing prefix.  A miss extends a snapshot of the prefix
    outside the lock, then publishes the new entries under MEMO_LOCK if the
    stored prefix is still shorter, so the first writer wins.
    """
    if m < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if m >= len(_bernoulli_cache):
        prefix = list(_bernoulli_cache)
        while len(prefix) <= m:
            n = len(prefix)
            acc = Fraction(0)
            for j in range(n):
                acc += math.comb(n + 1, j) * prefix[j]
            prefix.append(-acc / (n + 1))
        with MEMO_LOCK:
            have = len(_bernoulli_cache)
            if have < len(prefix):
                _bernoulli_cache.extend(prefix[have:])
    return _bernoulli_cache[m]


class MzvMonomial(NamedTuple):
    """Commutative monomial pi**pi_power * (product of basis symbols).

    ``symbols`` is sorted and may contain repeats (powers).
    """

    pi_power: int
    symbols: tuple[str, ...]

    def weight(self, symbol_weights: Mapping[str, int]) -> int:
        return self.pi_power + sum(symbol_weights[s] for s in self.symbols)

    def symbol_weight(self, symbol_weights: Mapping[str, int]) -> int:
        return sum(symbol_weights[s] for s in self.symbols)


MONOMIAL_ONE = MzvMonomial(0, ())


class CoeffElem:
    """Finite map MzvMonomial -> Fraction with no zero values stored."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[MzvMonomial, Fraction] | None = None):
        d: dict[MzvMonomial, Fraction] = {}
        if terms:
            for mono, q in terms.items():
                if q:
                    d[mono] = Fraction(q)
        self._terms = d

    # -- constructors -------------------------------------------------

    @staticmethod
    def _from_clean(terms: dict[MzvMonomial, Fraction]) -> "CoeffElem":
        """Adopt a dict of monomials to nonzero Fractions as it is."""
        out = CoeffElem()
        out._terms = terms
        return out

    @staticmethod
    def zero() -> "CoeffElem":
        return CoeffElem()

    @staticmethod
    def one() -> "CoeffElem":
        return CoeffElem({MONOMIAL_ONE: Fraction(1)})

    @staticmethod
    def from_rational(q: Fraction | int) -> "CoeffElem":
        return CoeffElem({MONOMIAL_ONE: Fraction(q)})

    @staticmethod
    def pi_pow(k: int, coeff: Fraction | int = 1) -> "CoeffElem":
        return CoeffElem({MzvMonomial(k, ()): Fraction(coeff)})

    @staticmethod
    def symbol(name: str, coeff: Fraction | int = 1) -> "CoeffElem":
        return CoeffElem({MzvMonomial(0, (name,)): Fraction(coeff)})

    # -- queries ------------------------------------------------------

    def items(self) -> Iterator[tuple[MzvMonomial, Fraction]]:
        return iter(self._terms.items())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, mono: MzvMonomial) -> Fraction:
        return self._terms.get(mono, Fraction(0))

    def is_rational(self) -> bool:
        return all(m == MONOMIAL_ONE for m in self._terms)

    def rational_part(self) -> Fraction:
        return self._terms.get(MONOMIAL_ONE, Fraction(0))

    def weights(self, symbol_weights: Mapping[str, int]) -> set[int]:
        return {m.weight(symbol_weights) for m in self._terms}

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "CoeffElem") -> "CoeffElem":
        if not isinstance(other, CoeffElem):
            return NotImplemented
        out = CoeffElem()
        out._terms = accumulate(dict(self._terms), other._terms.items())
        return out

    def __neg__(self) -> "CoeffElem":
        out = CoeffElem()
        out._terms = {m: -q for m, q in self._terms.items()}
        return out

    def __sub__(self, other: "CoeffElem") -> "CoeffElem":
        if not isinstance(other, CoeffElem):
            return NotImplemented
        return self + (-other)

    def scale(self, q: Fraction | int) -> "CoeffElem":
        q = Fraction(q)
        if not q:
            return CoeffElem()
        out = CoeffElem()
        out._terms = {m: c * q for m, c in self._terms.items()}
        return out

    def mul_pi(self, k: int) -> "CoeffElem":
        """Multiply by pi**k (always within bounds: pi is a free variable)."""
        out = CoeffElem()
        out._terms = {
            MzvMonomial(m.pi_power + k, m.symbols): q for m, q in self._terms.items()
        }
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoeffElem):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"CoeffElem({render_coeff(self)!r})"

    def __str__(self) -> str:
        return render_coeff(self)


def reduce_even_zeta(s: int) -> CoeffElem:
    """zeta(s) for even s >= 2 as a rational multiple of pi**s."""
    if s < 2 or s % 2:
        raise ValueError("reduce_even_zeta needs an even integer >= 2")
    return CoeffElem.pi_pow(s, -bernoulli(s) / (2 * math.factorial(s)))


# ---------------------------------------------------------------------------
# The reduction table


class MzvTable:
    """Certified zeta data up to a weight cap.

    ``symbols`` maps each generator of the free polynomial basis to its
    weight.  ``convergent_words`` maps every admissible word over the
    letters A, B (first letter integrated first, A carrying dt/(1-t), B
    carrying dt/t, admissible = starts with A and ends with B) to its value
    in the basis; the depth-one word A B^(s-1) is zeta(s), and ``pi``
    denotes 2*pi*i, hence AB = -1/24 * pi^2.

    ``caches`` holds the memos computed from this table; each table has its
    own, and equality ignores them.
    """

    __slots__ = ("max_weight", "symbols", "convergent_words", "caches")

    def __init__(
        self, max_weight: int, symbols: dict[str, int], convergent_words: dict[str, CoeffElem]
    ):
        self.max_weight = max_weight
        self.symbols = symbols
        self.convergent_words = convergent_words
        self.caches: dict = {}

    def __eq__(self, other: object) -> bool:
        if type(other) is not MzvTable:
            return NotImplemented
        return (self.max_weight, self.symbols, self.convergent_words) == (
            other.max_weight, other.symbols, other.convergent_words
        )


def monomial_mul(mu: MzvMonomial, nu: MzvMonomial, table: MzvTable | None) -> MzvMonomial:
    """Product of two unit monomials; pi powers add, symbols multiply freely.

    Raises TableOverflow when both carry symbols and their symbol weights
    sum beyond the table's cap (or when there is no table at all): beyond
    the cap the data cannot certify that the basis stays free.
    """
    if mu.symbols and nu.symbols:
        if table is None:
            raise TableOverflow(f"symbol product requires a table: {mu.symbols} * {nu.symbols}")
        sw = mu.symbol_weight(table.symbols) + nu.symbol_weight(table.symbols)
        if sw > table.max_weight:
            raise TableOverflow(
                f"symbol product of weight {sw} exceeds table cap {table.max_weight}"
            )
        return MzvMonomial(mu.pi_power + nu.pi_power, tuple(sorted(mu.symbols + nu.symbols)))
    return MzvMonomial(mu.pi_power + nu.pi_power, mu.symbols or nu.symbols)


def coeff_mul(x: CoeffElem, y: CoeffElem, table: MzvTable | None) -> CoeffElem:
    """Bilinear product: :func:`monomial_mul` on each pair of monomials."""
    terms = (
        (monomial_mul(mx, my, table), qx * qy) for mx, qx in x.items() for my, qy in y.items()
    )
    return CoeffElem._from_clean(accumulate({}, terms))


class CoeffMap:
    """Finite map key -> nonzero CoeffElem: the linear structure of the
    sparse containers (``NCSeries``, ``EPoly``, ``QTSeries``).

    ``shape`` is the truncation (a word degree, a q order, or None) and is
    part of the value: ``+`` or ``-`` of two maps of different shapes
    raises DegreeMismatch.  A subclass supplies its key rule as ``_keep``,
    which filters a whole dict of terms at once, its grading as ``_slice``
    and the inverse as ``_build``.

    A value holds only its integer slices (below).  The constructor keeps
    the terms that obey the key rule and slices them at once; a kernel's
    result is adopted as slices (:meth:`_from_slices`).  Each read of
    ``coeffs`` builds a fresh dict from the slices, which the value does
    not keep, so a reader that needs them more than once reads them once
    into a local, and writing into the dict leaves the value as it was.
    ``+``, ``-`` and ``scale`` compute on the slices, and ``==`` compares
    canonical slices.
    """

    __slots__ = ("shape", "_sliced")

    def __init__(self, shape: int | None, coeffs: Mapping | None = None):
        self.shape = shape
        self._sliced = self._slice(self._keep(coeffs)) if coeffs else {}

    def _keep(self, coeffs: Mapping) -> dict:
        """The terms of coeffs that obey the key rule, zero coefficients dropped."""
        raise NotImplementedError

    def _slice(self, coeffs: dict) -> Slices:
        """The graded integer slices (:func:`graded_slices`) of kept terms."""
        raise NotImplementedError

    def _build(self) -> dict:
        """The coefficients of the kept slices, the inverse of ``_slice``."""
        raise NotImplementedError

    @classmethod
    def _from_slices(cls, shape: int | None, slices: Slices):
        """Adopt slices that obey the key rule and hold no zero numerator and
        no empty monomial."""
        out = object.__new__(cls)
        out.shape = shape
        out._sliced = slices
        return out

    @property
    def coeffs(self) -> dict:
        """The coefficients, built anew from the slices on each read."""
        return self._build()

    @classmethod
    def zero(cls, shape: int | None = None):
        return cls._from_slices(shape, {})

    # -- queries ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._sliced)

    def is_zero(self) -> bool:
        return not self._sliced

    def items(self) -> Iterator[tuple]:
        return iter(self.coeffs.items())

    def coefficient(self, key) -> CoeffElem:
        return self.coeffs.get(key, CoeffElem.zero())

    def slices(self) -> Slices:
        """The value's graded integer slices."""
        return self._sliced

    def __eq__(self, other: object) -> bool:
        """Equal shapes and canonical slices."""
        if type(other) is not type(self):
            return NotImplemented
        return self.shape == other.shape and (
            canonical_slices(self._sliced) == canonical_slices(other._sliced)
        )

    def __repr__(self) -> str:
        shape = "" if self.shape is None else f"{self.shape}, "
        return f"{type(self).__name__}({shape}{self})"

    # -- linear structure on slices -----------------------------------

    def __add__(self, other):
        return self._plus(1, other)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self._plus(-1, other)

    def _plus(self, q: int, other):
        """self + q * other, one :func:`rational_lincomb` of the slices."""
        if self.shape != other.shape:
            raise DegreeMismatch(f"truncation {self.shape} != {other.shape}")
        pairs = [(1, self._sliced), (q, other._sliced)]
        return self._from_slices(self.shape, rational_lincomb(pairs))

    def scale(self, c: CoeffElem | Fraction | int, table: MzvTable | None = None):
        """Every coefficient times c.

        A rational c (a number, or a CoeffElem whose only monomial is 1) is
        a one-term :func:`rational_lincomb`; any other CoeffElem multiplies
        each coefficient through :func:`coeff_mul` with the table, and the
        products are sliced again.  The coefficient ring has no zero
        divisors, so a nonzero c keeps every term.
        """
        if isinstance(c, CoeffElem):
            if not c.is_rational():
                d = {k: coeff_mul(v, c, table) for k, v in self.coeffs.items()}
                return self._from_slices(self.shape, self._slice(d))
            c = c.rational_part()
        return self._from_slices(self.shape, rational_lincomb([(c, self._sliced)]))


def build_coeffs(cells: Mapping[K, dict[MzvMonomial, Fraction]]) -> dict[K, CoeffElem]:
    """Key -> monomial -> nonzero rational cells, each nonempty, as coefficients.

    The one place the integer kernels build their output coefficients, each
    once: :func:`build_slices` for the values of the slice engine, and
    ``extract_gamma`` directly.  The cells are adopted as they are.
    """
    return {key: CoeffElem._from_clean(cell) for key, cell in cells.items()}


# (key, coefficient) pairs split by coefficient monomial: monomial ->
# (common denominator, [(key, n)]) with integer n.
SplitScalars = dict[MzvMonomial, tuple[int, list[tuple[Any, int]]]]


def integer_slices(terms: Iterable[tuple[Any, CoeffElem]]) -> SplitScalars:
    """Split (key, coefficient) pairs by coefficient monomial.

    Each monomial gets (common denominator, [(key, n)]) with integer n, so
    that its part of the combination is the sum of n / denominator * key.
    """
    raw: dict[MzvMonomial, list[tuple[K, tuple[int, int]]]] = {}
    for key, c in terms:
        for mono, q in c.items():
            raw.setdefault(mono, []).append((key, q.as_integer_ratio()))
    out = {}
    for mono, pairs in raw.items():
        den = math.lcm(*(d for _, (_, d) in pairs))
        out[mono] = (den, [(key, n * (den // d)) for key, (n, d) in pairs])
    return out


# ---------------------------------------------------------------------------
# The integer slice engine
#
# The containers (two-letter series, q/T expansions, e-word polynomials)
# compute on graded integer slices: coefficient monomial -> (common
# denominator, buckets), the buckets [(grade, [(key, n)])] in increasing
# grade with integer n, standing for sum n / denominator * key.  In the
# truncated product algebras keys multiply by + (words concatenate; q/T
# terms travel as an additive integer code, see qseries) and grades add.
# Products and combinations with zeta-valued scalars add integer
# numerators into cells, which are brought over one denominator per
# monomial at the end, into slices again (:func:`normalise`); a combination
# with rational scalars goes from slices to slices in one pass
# (:func:`rational_lincomb`).  A value computed this way keeps those
# slices, and its coefficients are built (:func:`build_slices`) each time
# something reads them.

Slices = dict[MzvMonomial, tuple[int, list[tuple[int, list[tuple[Any, int]]]]]]

# Integer numerators under construction: monomial -> denominator -> key -> n.
Cells = dict[MzvMonomial, dict[int, dict[Any, int]]]


def _graded(terms: Iterable[tuple[K, int]], grade: Callable[[K], int]) -> list:
    buckets: dict[int, list[tuple[K, int]]] = {}
    for key, n in terms:
        if n:
            buckets.setdefault(grade(key), []).append((key, n))
    return sorted(buckets.items())


def graded_slices(terms: Iterable[tuple[K, CoeffElem]], grade: Callable[[K], int]) -> Slices:
    """The slices of (key, coefficient) pairs, each bucketed by grade(key)."""
    return {mono: (den, _graded(t, grade)) for mono, (den, t) in integer_slices(terms).items()}


def convolve(
    x: Slices, y: Slices, bound: int, table: MzvTable | None, max_w: int | None = None
) -> Cells:
    """The product of two slices: every (k1 + k2, n1 * n2), grades within bound.

    A pair of monomials is multiplied once, through :func:`monomial_mul`,
    and only if its slices meet within the bound and its weights (read from
    the table) sum to at most max_w; so TableOverflow is raised exactly when
    some pair of terms whose product survives carries an overflowing product.
    """
    cells: Cells = {}
    for mu, (den_x, buckets_x) in x.items():
        for nu, (den_y, buckets_y) in y.items():
            low = buckets_y[0][0]
            if buckets_x[0][0] + low > bound:
                continue
            if max_w is not None and mu.weight(table.symbols) + nu.weight(table.symbols) > max_w:
                continue
            rho = monomial_mul(mu, nu, table)
            cell = cells.setdefault(rho, {}).setdefault(den_x * den_y, {})
            get = cell.get
            for g1, terms_x in buckets_x:
                room = bound - g1
                if low > room:
                    break
                for g2, terms_y in buckets_y:
                    if g2 > room:
                        break
                    for k1, n1 in terms_x:
                        for k2, n2 in terms_y:
                            k = k1 + k2
                            cell[k] = get(k, 0) + n1 * n2
    return cells


def lincomb(pairs: Iterable[tuple[CoeffElem, Slices]], bound: int, table: MzvTable | None) -> Cells:
    """The linear combination sum c_i * f_i of slices with scalars that may
    carry zeta symbols (``build_phi``'s regularized values), grades within
    bound: :func:`split_lincomb` on the scalars split by
    :func:`integer_slices`.  Rational scalars go to :func:`rational_lincomb`."""
    pairs = list(pairs)
    scalars = integer_slices(enumerate(c for c, _ in pairs))
    return split_lincomb(scalars, [f for _, f in pairs], bound, table)


def split_lincomb(
    scalars: SplitScalars,
    series: Mapping[Any, Slices] | Sequence[Slices],
    bound: int,
    table: MzvTable | None,
) -> Cells:
    """sum c_k * series[k], grades within bound, with the scalars c_k given
    split by coefficient monomial, as :func:`integer_slices` returns them.

    A pair of monomials is multiplied once, through :func:`monomial_mul`,
    when the slice has a term within the bound.
    """
    cells: Cells = {}
    for mu, (den_c, scal) in scalars.items():
        for i, a in scal:
            for nu, (den_f, buckets) in series[i].items():
                if buckets[0][0] > bound:
                    continue
                rho = monomial_mul(mu, nu, table)
                cell = cells.setdefault(rho, {}).setdefault(den_c * den_f, {})
                get = cell.get
                for g, terms in buckets:
                    if g > bound:
                        break
                    for k, n in terms:
                        cell[k] = get(k, 0) + a * n
    return cells


def rational_lincomb(pairs: Iterable[tuple[Fraction | int, Slices]]) -> Slices:
    """The linear combination sum q_i * f_i of slices with rational q_i,
    untruncated, as slices in one pass: the kernel of every rational
    combination (``+``, ``-`` and rational ``scale`` of the containers,
    ``EPoly.combination``, the power sums of ``nc_exp`` and ``nc_inv``).

    A monomial that exactly one pair carries with q = 1 keeps that pair's
    slice as it is.  Any other monomial is brought over the lcm of den * b
    over the pairs a / b that carry it, each numerator lifted as it is
    added; the sums stay in their input bucket's grade, zeros are dropped
    and the monomial is reduced by its gcd once.  No table is involved: a
    scalar keeps the slice's own monomial.
    """
    carried: dict[MzvMonomial, list] = {}  # monomial -> [(a, b, its slice)]
    for q, slices in pairs:
        a, b = q.as_integer_ratio()
        if a:
            for mono, sl in slices.items():
                carried.setdefault(mono, []).append((a, b, sl))
    out: Slices = {}
    for mono, parts in carried.items():
        if len(parts) == 1 and parts[0][:2] == (1, 1):
            out[mono] = parts[0][2]
            continue
        common = math.lcm(*(den * b for _, b, (den, _) in parts))
        by_grade: dict[int, dict[Any, int]] = {}
        for a, b, (den, buckets) in parts:
            lift = a * (common // (den * b))
            for g, terms in buckets:
                cell = by_grade.setdefault(g, {})
                get = cell.get
                for k, n in terms:
                    cell[k] = get(k, 0) + n * lift
        buckets = []
        for g in sorted(by_grade):
            terms = [(k, n) for k, n in by_grade[g].items() if n]
            if terms:
                buckets.append((g, terms))
        if buckets:
            out[mono] = _reduced(common, buckets)
    return out


def _reduced(den: int, buckets: list) -> tuple[int, list]:
    """Buckets of nonzero numerators over den, reduced by their gcd."""
    g = math.gcd(den, *(n for _, terms in buckets for _, n in terms))
    if g == 1:
        return den, buckets
    return den // g, [(grade, [(k, n // g) for k, n in terms]) for grade, terms in buckets]


def keep_grades(slices: Slices, keep: Callable[[int], bool]) -> Slices:
    """The buckets whose grade passes keep, each kept as it is; a monomial
    left with none is dropped (the rest need not be gcd-reduced)."""
    out: Slices = {}
    for mono, (den, buckets) in slices.items():
        kept = [b for b in buckets if keep(b[0])]
        if kept:
            out[mono] = (den, kept)
    return out


def _over_common(cells: Cells) -> Iterator[tuple[MzvMonomial, int, dict]]:
    """Each monomial's numerators over one common denominator, the lcm."""
    for rho, by_den in cells.items():
        if len(by_den) == 1:
            [(common, sums)] = by_den.items()
        else:
            common = math.lcm(*by_den)
            sums = {}
            get = sums.get
            for den, cell in by_den.items():
                lift = common // den
                for k, n in cell.items():
                    sums[k] = get(k, 0) + n * lift
        yield rho, common, sums


def normalise(cells: Cells, grade: Callable[[Any], int]) -> Slices:
    """Cells as slices, bucketed by grade(key); zero numerators dropped, and
    each monomial's numerators and denominator reduced by their gcd, so the
    slices of a value are those :func:`graded_slices` gives its coefficients
    (up to the order of the terms in a bucket)."""
    out: Slices = {}
    for rho, den, sums in _over_common(cells):
        g = math.gcd(den, *sums.values())
        if g > 1:
            den //= g
            sums = {k: n // g for k, n in sums.items()}
        buckets = _graded(sums.items(), grade)
        if buckets:
            out[rho] = (den, buckets)
    return out


def build_slices(slices: Slices) -> dict[Any, CoeffElem]:
    """Slices as key -> coefficient, each coefficient built once."""
    out: dict[Any, dict[MzvMonomial, Fraction]] = {}
    for rho, (den, buckets) in slices.items():
        for _, terms in buckets:
            for k, n in terms:
                out.setdefault(k, {})[rho] = Fraction(n, den)
    return build_coeffs(out)


def canonical_slices(slices: Slices) -> dict[MzvMonomial, tuple[int, dict[Any, int]]]:
    """The form in which two slices are equal exactly when their values are:
    each monomial's numerators and denominator reduced by their gcd, and its
    terms as one key -> numerator map."""
    out = {}
    for mono, (den, buckets) in slices.items():
        terms = {k: n for _, t in buckets for k, n in t}
        g = math.gcd(den, *terms.values())
        out[mono] = (den // g, {k: n // g for k, n in terms.items()}) if g > 1 else (den, terms)
    return out


# ---------------------------------------------------------------------------
# Rendering and parsing of coefficient expressions
#
# coeff     := "0" | term (" + " term)*
# term      := rational " * " monomial
# monomial  := "1" | factor (" " factor)*
# factor    := name | name "^" posint          (name is "pi" or a symbol)
# rational  := ["-"] int ["/" posint]
#
# int is a run of ASCII digits and posint one whose value is at least 1; the
# parser accepts nothing else (no decimal point, exponent or "_").


def render_monomial(mono: MzvMonomial) -> str:
    factors: list[str] = []
    if mono.pi_power:
        factors.append(
            PI_SYMBOL if mono.pi_power == 1 else f"{PI_SYMBOL}^{mono.pi_power}"
        )
    run: list[str] = list(mono.symbols)
    i = 0
    while i < len(run):
        j = i
        while j < len(run) and run[j] == run[i]:
            j += 1
        factors.append(run[i] if j - i == 1 else f"{run[i]}^{j - i}")
        i = j
    return " ".join(factors) if factors else "1"


def render_coeff(c: CoeffElem) -> str:
    if c.is_zero():
        return "0"
    terms = sorted(c.items(), key=lambda kv: (kv[0].symbols, kv[0].pi_power))
    return " + ".join(f"{q} * {render_monomial(m)}" for m, q in terms)


def _is_int(text: str) -> bool:
    """True if text is a nonempty run of ASCII digits."""
    return text.isdigit() and text.isascii()


def _parse_rational(text: str) -> Fraction:
    """rational := ["-"] int ["/" posint], read by an integer split."""
    num, slash, den = text.partition("/")
    if _is_int(num[1:] if num.startswith("-") else num):
        if not slash:
            return Fraction(int(num))
        if _is_int(den) and int(den):
            return Fraction(int(num), int(den))
    raise ParseError(f"bad rational {text!r}")


def _parse_monomial(text: str, known: Collection[str]) -> MzvMonomial:
    if text == "1":
        return MONOMIAL_ONE
    pi_power = 0
    syms: list[str] = []
    for factor in text.split():
        # name: an ASCII letter, then ASCII letters or digits
        name, caret, digits = factor.partition("^")
        exp = (int(digits) if _is_int(digits) else 0) if caret else 1
        if not (exp and name[:1].isalpha() and name.isalnum() and name.isascii()):
            raise ParseError(f"bad monomial factor {factor!r}")
        if name == PI_SYMBOL:
            pi_power += exp
        elif name in known:
            syms.extend([name] * exp)
        else:
            raise ParseError(f"unknown symbol {name!r}")
    return MzvMonomial(pi_power, tuple(sorted(syms)))


def parse_coeff(text: str, known_symbols: Collection[str]) -> CoeffElem:
    """Inverse of render_coeff over the given symbol alphabet, by the
    grammar above; anything else raises ParseError."""
    return _parse_coeff(text, known_symbols, {})


def _parse_coeff(
    text: str, known: Collection[str], monomials: dict[str, MzvMonomial]
) -> CoeffElem:
    """parse_coeff in one pass: each rational is read by an integer split, and
    the coefficient is built once, like monomials summed.  ``monomials``
    memoizes monomial text -> MzvMonomial over the calls of one table load;
    only successful parses are stored, and the alphabet only grows."""
    text = text.strip()
    if text == "0":
        return CoeffElem.zero()
    terms: dict[MzvMonomial, Fraction] = {}
    for chunk in text.split("+"):
        qs, star, ms = chunk.partition("*")
        if not star:
            raise ParseError(f"term without '*': {chunk.strip()!r}")
        q = _parse_rational(qs.strip())
        ms = ms.strip()
        mono = monomials.get(ms)
        if mono is None:
            mono = monomials[ms] = _parse_monomial(ms, known)
        cur = terms.get(mono)
        terms[mono] = q if cur is None else cur + q
    return CoeffElem._from_clean({m: q for m, q in terms.items() if q})


# ---------------------------------------------------------------------------
# Table documents
#
# Line-based, '#' comments, blank lines ignored.  Format 2 has four
# directives:
#
#   format emzv-mzv-table 2
#   max_weight 8
#   symbol z3 3                      (a generator and its weight)
#   convergent AB = -1/24 * pi^2     (the value of an admissible word)
#
# Format 1 also had ``single_zeta`` and ``product`` lines, which carried
# nothing the others do not (zeta(s) is the value of the word A B^(s-1), and
# a product must be the free one).  It is no longer read: its format line is
# the ParseError "unsupported version 1".

FORMAT_NAME = "emzv-mzv-table"
FORMAT_VERSION = 2


def admissible_words(weight: int) -> list[str]:
    """All A...B words of the given length (the convergent words)."""
    if weight < 2:
        return []
    return ["A" + "".join(mid) + "B" for mid in _all_ab(weight - 2)]


def _all_ab(n: int) -> Iterator[tuple[str, ...]]:
    if n == 0:
        yield ()
        return
    for rest in _all_ab(n - 1):
        yield ("A",) + rest
        yield ("B",) + rest


def load_mzv_table(source: IO[str] | IO[bytes]) -> MzvTable:
    """Parse and validate a table document from a readable stream."""
    data = source.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return loads_mzv_table(data)


def loads_mzv_table(text: str) -> MzvTable:
    """Parse and validate a table document of format 2.

    A malformed line raises ParseError naming the line; a document that
    parses but breaks a structural invariant raises ConsistencyError.  Each
    coefficient is built once, as its line is read.
    """
    version: int | None = None
    max_weight: int | None = None
    symbols: dict[str, int] = {}
    convergent: dict[str, CoeffElem] = {}
    monomials: dict[str, MzvMonomial] = {}

    def integer(text: str, what: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise ParseError(f"bad {what} {text!r}") from None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if head == "format":
                if version is not None:
                    raise ParseError("duplicate format line")
                parts = rest.split()
                if len(parts) != 2 or parts[0] != FORMAT_NAME:
                    raise ParseError("unrecognized format line")
                version = integer(parts[1], "format version")
                if version != FORMAT_VERSION:
                    raise ParseError(f"unsupported version {parts[1]}")
            elif head == "max_weight":
                if max_weight is not None:
                    raise ParseError("duplicate max_weight line")
                max_weight = integer(rest, "max_weight")
            elif head == "symbol":
                parts = rest.split()
                if len(parts) != 2:
                    raise ParseError("expected 'symbol NAME WEIGHT'")
                name, w = parts[0], integer(parts[1], "symbol weight")
                if name == PI_SYMBOL or name in symbols:
                    raise ParseError(f"bad or duplicate symbol {name!r}")
                symbols[name] = w
            elif head == "convergent":
                lhs, eq, rhs = rest.partition("=")
                if not eq:
                    raise ParseError("missing '='")
                lhs = lhs.strip()
                if not lhs or set(lhs) - {"A", "B"}:
                    raise ParseError(f"bad word {lhs!r}")
                if lhs in convergent:
                    raise ParseError(f"duplicate word {lhs!r}")
                convergent[lhs] = _parse_coeff(rhs, symbols, monomials)
            else:
                raise ParseError(f"unknown directive {head!r}")
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None

    if version is None:
        raise ParseError("missing format line")
    if max_weight is None:
        raise ParseError("missing max_weight")

    table = MzvTable(max_weight=max_weight, symbols=symbols, convergent_words=convergent)
    _validate_table(table)
    return table


def _validate_table(t: MzvTable) -> None:
    for name, w in t.symbols.items():
        if not 1 <= w <= t.max_weight:
            raise ConsistencyError(f"symbol {name} has weight {w} outside 1..cap")

    for w, c in t.convergent_words.items():
        if not (w.startswith("A") and w.endswith("B")):
            raise ConsistencyError(f"word {w!r} is not admissible")
        if len(w) > t.max_weight:
            raise ConsistencyError(f"word {w!r} exceeds the weight cap")
        ws = c.weights(t.symbols)
        if ws and ws != {len(w)}:
            raise ConsistencyError(f"convergent {w}: weight {ws} != {len(w)}")
    for weight in range(2, t.max_weight + 1):
        for w in admissible_words(weight):
            if w not in t.convergent_words:
                raise ConsistencyError(f"missing convergent word {w}")

    for s in range(2, t.max_weight + 1, 2):
        word = "A" + "B" * (s - 1)
        if t.convergent_words[word] != reduce_even_zeta(s):
            raise ConsistencyError(
                f"convergent {word} = zeta({s}) must equal the Bernoulli value "
                f"{render_coeff(reduce_even_zeta(s))}"
            )
    # checked last, so a document with symbols or words fails on those first
    if t.max_weight < 0:
        raise ConsistencyError(f"max_weight {t.max_weight} is negative")


def dump_mzv_table(t: MzvTable) -> str:
    lines = [
        "# zeta reduction table; pi denotes 2*pi*i",
        f"format {FORMAT_NAME} {FORMAT_VERSION}",
        f"max_weight {t.max_weight}",
    ]
    for name in sorted(t.symbols, key=lambda n: (t.symbols[n], n)):
        lines.append(f"symbol {name} {t.symbols[name]}")
    for w in sorted(t.convergent_words, key=lambda w: (len(w), w)):
        lines.append(f"convergent {w} = {render_coeff(t.convergent_words[w])}")
    return "\n".join(lines) + "\n"


_shipped: dict[str, MzvTable] = {}

SHIPPED_TABLE_RESOURCE = "mzv_table_w8.txt"


def shipped_table() -> MzvTable:
    """The table packaged with the distribution (weight cap 8)."""

    def load() -> MzvTable:
        # The package's own loader reads the file, from a directory or a zip
        # archive alike, without importing importlib.resources (which pulls
        # in zipfile, tempfile and pathlib).
        path = os.path.join(os.path.dirname(__file__), "data", SHIPPED_TABLE_RESOURCE)
        return loads_mzv_table(__spec__.loader.get_data(path).decode("utf-8"))

    return memoized(_shipped, SHIPPED_TABLE_RESOURCE, load)
