"""Truncated expansions in q with polynomial dependence on T = log q.

A :class:`QTSeries` models a holomorphic function near the cusp as

    sum_{m < order, j >= 0}  c_{m,j} * q^m * T^j,

with exact coefficients.  Since q = e^T, the derivative d/dT (which is the
normalized tau-derivative) acts by

    d/dT (q^m T^j) = m q^m T^j + j q^m T^{j-1},

and :func:`qt_antider` inverts it under the normalization that the primitive
has zero (q^0, T^0) coefficient.  That normalization is the regularization
convention used everywhere in this package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .coeffring import (
    CoeffElem,
    CoeffMap,
    MzvMonomial,
    MzvTable,
    accumulate,
    build_coeffs,
    integer_slices,
    monomial_mul,
)
from .errors import FourierViolation


class QTSeries(CoeffMap):
    """Coefficients live on keys (m, j): the q^m T^j term, with m < order."""

    __slots__ = ()
    order = CoeffMap.shape  # the q truncation, stored in the base's slot

    def _keep(
        self, coeffs: Mapping[tuple[int, int], CoeffElem]
    ) -> dict[tuple[int, int], CoeffElem]:
        order = self.order
        return {k: c for k, c in coeffs.items() if k[0] < order and c}

    @staticmethod
    def constant(c: CoeffElem | Fraction | int, order: int) -> "QTSeries":
        if not isinstance(c, CoeffElem):
            c = CoeffElem.from_rational(c)
        return QTSeries(order, {(0, 0): c})

    # -- queries ------------------------------------------------------

    def coefficient(self, m: int, j: int) -> CoeffElem:
        return self.coeffs.get((m, j), CoeffElem.zero())

    def is_t_free(self) -> bool:
        return all(j == 0 for (_, j) in self.coeffs)

    def terms(self) -> Iterator[tuple[int, int, CoeffElem]]:
        for (m, j) in sorted(self.coeffs):
            yield m, j, self.coeffs[(m, j)]

    def require_t_free(self) -> "QTSeries":
        if not self.is_t_free():
            bad = sorted(k for k in self.coeffs if k[1] > 0)[0]
            raise FourierViolation(f"T term survives at q^{bad[0]} T^{bad[1]}")
        return self

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for m, j, c in self.terms():
            mono = "".join(
                [f"q^{m}" if m > 1 else "q" * m, f" T^{j}" if j > 1 else " T" * j]
            ).strip()
            parts.append(f"({c})" + (f" {mono}" if mono else ""))
        return " + ".join(parts)


# Integer slices of a series: coefficient monomial -> (common denominator,
# [((m, j), numerator)] sorted by m).
Slices = dict[MzvMonomial, tuple[int, list[tuple[tuple[int, int], int]]]]


def qt_slices(f: QTSeries, order: int) -> Slices:
    """Integer slices of the terms below the order, each sorted by m."""
    out = integer_slices((k, c) for k, c in f.coeffs.items() if k[0] < order)
    for _, terms in out.values():
        terms.sort(key=lambda t: t[0][0])
    return out


# Integer numerators of a sum under construction: product monomial ->
# denominator -> (m, j) -> numerator.
_Cells = dict[MzvMonomial, dict[int, dict[tuple[int, int], int]]]


def _build(acc: _Cells, order: int) -> QTSeries:
    """Bring each product monomial's numerators over one common denominator
    and build every output coefficient once."""
    out: dict[tuple[int, int], dict[MzvMonomial, Fraction]] = {}
    for rho, by_den in acc.items():
        common = math.lcm(*by_den)
        sums: dict[tuple[int, int], int] = {}
        get = sums.get
        for den, cell in by_den.items():
            lift = common // den
            for k, n in cell.items():
                sums[k] = get(k, 0) + n * lift
        for k, n in sums.items():
            if n:
                out.setdefault(k, {})[rho] = Fraction(n, common)
    return QTSeries._from_clean(order, build_coeffs(out))


def qt_mul(f: QTSeries, g: QTSeries, table: MzvTable | None = None) -> QTSeries:
    """Product truncated at the smaller order; T degrees add.

    Works one pair of coefficient monomials at a time: the two integer
    slices are convolved, and the monomials are multiplied once, through
    :func:`monomial_mul`, only if the slices meet below the order.  So
    TableOverflow is raised exactly when some pair of terms whose product
    survives the truncation carries an overflowing symbol product.
    """
    order = min(f.order, g.order)
    g_slices = qt_slices(g, order)
    acc: _Cells = {}
    for mu, (den_f, terms_f) in qt_slices(f, order).items():
        for nu, (den_g, terms_g) in g_slices.items():
            if terms_f[0][0][0] + terms_g[0][0][0] >= order:
                continue
            rho = monomial_mul(mu, nu, table)
            conv = acc.setdefault(rho, {}).setdefault(den_f * den_g, {})
            get = conv.get
            for (m1, j1), n1 in terms_f:
                room = order - m1
                for (m2, j2), n2 in terms_g:
                    if m2 >= room:
                        break
                    k = (m1 + m2, j1 + j2)
                    conv[k] = get(k, 0) + n1 * n2
    return _build(acc, order)


def qt_lincomb(
    pairs: Iterable[tuple[CoeffElem, QTSeries]],
    order: int,
    table: MzvTable | None = None,
) -> QTSeries:
    """The linear combination sum c_i * f_i, truncated at the order.

    Slices each series (:func:`qt_slices`) and sums with
    :func:`qt_lincomb_slices`.
    """
    return qt_lincomb_slices(((c, qt_slices(f, order)) for c, f in pairs), order, table)


def qt_lincomb_slices(
    pairs: Iterable[tuple[CoeffElem, Slices]],
    order: int,
    table: MzvTable | None = None,
) -> QTSeries:
    """The linear combination sum c_i * f_i of series given by their integer
    slices below the order.

    Each scalar is split by coefficient monomial too; a pair's monomials are
    multiplied once, through :func:`monomial_mul`, so TableOverflow is raised
    exactly when some scalar term meets a series term below the order with an
    overflowing symbol product.  The integer numerators are added per (m, j)
    and product monomial, and each output coefficient is built once.
    """
    pairs = list(pairs)
    acc: _Cells = {}
    for mu, (den_c, scalars) in integer_slices(enumerate(c for c, _ in pairs)).items():
        for i, a in scalars:
            for nu, (den_f, terms) in pairs[i][1].items():
                rho = monomial_mul(mu, nu, table)
                cell = acc.setdefault(rho, {}).setdefault(den_c * den_f, {})
                get = cell.get
                for k, n in terms:
                    cell[k] = get(k, 0) + a * n
    return _build(acc, order)


def qt_ddT(f: QTSeries) -> QTSeries:
    """Exact derivative d/dT, same truncation order."""
    terms = [((m, j), c.scale(m)) for (m, j), c in f.coeffs.items() if m]
    terms += [((m, j - 1), c.scale(j)) for (m, j), c in f.coeffs.items() if j]
    return QTSeries._from_clean(f.order, accumulate({}, terms))


def qt_antider(f: QTSeries) -> QTSeries:
    """The unique primitive with zero (q^0, T^0) coefficient.

    For m = 0 the T-profile integrates termwise; for m >= 1 the triangular
    system m p_j + (j+1) p_{j+1} = f_j is solved by back-substitution from
    the top T degree.  Both run on the integer slices of f: if one
    coefficient monomial carries f_j = n_j / den, then

        P_j = n_j * m^(top-j) - (j+1) * P_{j+1}

    is an integer and p_j = P_j / (den * m^(top-j+1)).  Each output
    coefficient is built once.
    """
    out: dict[tuple[int, int], dict[MzvMonomial, Fraction]] = {}
    for mu, (den, terms) in integer_slices(f.coeffs.items()).items():
        by_m: dict[int, dict[int, int]] = {}
        for (m, j), n in terms:
            by_m.setdefault(m, {})[j] = n
        for m, prof in by_m.items():
            if m == 0:
                for j, n in prof.items():
                    out.setdefault((0, j + 1), {})[mu] = Fraction(n, den * (j + 1))
                continue
            big = 0  # P_{j+1} during the descent
            power = 1  # m^(top-j)
            for j in range(max(prof), -1, -1):
                big = prof.get(j, 0) * power - (j + 1) * big
                if big:
                    out.setdefault((m, j), {})[mu] = Fraction(big, den * power * m)
                power *= m
    return QTSeries._from_clean(f.order, build_coeffs(out))
