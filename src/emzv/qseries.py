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

from fractions import Fraction
from typing import Iterator, Mapping

from .coeffring import (
    Cells,
    CoeffElem,
    CoeffMap,
    MzvTable,
    Slices,
    accumulate,
    build_slices,
    convolve,
    graded_slices,
    normalise,
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

    def _slice(self, coeffs: dict[tuple[int, int], CoeffElem]) -> Slices:
        # graded by the q power, on the coded keys below
        return graded_slices(((m << _SHIFT | j, c) for (m, j), c in coeffs.items()), _q_power)

    def _build(self) -> dict[tuple[int, int], CoeffElem]:
        return {(k >> _SHIFT, k & _T_MASK): c for k, c in build_slices(self._sliced).items()}

    @staticmethod
    def constant(c: CoeffElem | Fraction | int, order: int) -> "QTSeries":
        if not isinstance(c, CoeffElem):
            c = CoeffElem.from_rational(c)
        return QTSeries(order, {(0, 0): c})

    # -- queries ------------------------------------------------------

    def coefficient(self, m: int, j: int) -> CoeffElem:
        return self.coeffs.get((m, j), CoeffElem.zero())

    def _t_keys(self) -> list[int]:
        """The coded keys (below) of the terms with a T power, read from the slices."""
        return [k for _, b in self._sliced.values() for _, t in b for k, _ in t if k & _T_MASK]

    def is_t_free(self) -> bool:
        return not self._t_keys()

    def terms(self) -> Iterator[tuple[int, int, CoeffElem]]:
        coeffs = self.coeffs  # read once: each read builds them
        for (m, j) in sorted(coeffs):
            yield m, j, coeffs[(m, j)]

    def require_t_free(self) -> "QTSeries":
        bad = self._t_keys()
        if bad:
            k = min(bad)
            raise FourierViolation(f"T term survives at q^{k >> _SHIFT} T^{k & _T_MASK}")
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


# A term q^m T^j travels through the slice engine as the key m << 32 | j:
# the product of two terms is the sum of their keys, and the grade is m.
_SHIFT = 32
_T_MASK = (1 << _SHIFT) - 1


def _q_power(key: int) -> int:
    return key >> _SHIFT


def qt_mul(f: QTSeries, g: QTSeries, table: MzvTable | None = None) -> QTSeries:
    """Product truncated at the smaller order; T degrees add.  The
    convolution of the operands' slices below the order, with the
    TableOverflow rule of :func:`coeffring.convolve`."""
    order = min(f.order, g.order)
    cells = convolve(f.slices(), g.slices(), order - 1, table)
    return QTSeries._from_slices(order, normalise(cells, _q_power))


def qt_ddT(f: QTSeries) -> QTSeries:
    """Exact derivative d/dT, same truncation order."""
    coeffs = f.coeffs  # read once: each read builds them
    terms = [((m, j), c.scale(m)) for (m, j), c in coeffs.items() if m]
    terms += [((m, j - 1), c.scale(j)) for (m, j), c in coeffs.items() if j]
    return QTSeries(f.order, accumulate({}, terms))


def qt_antider(f: QTSeries) -> QTSeries:
    """The unique primitive with zero (q^0, T^0) coefficient.

    For m = 0 the T-profile integrates termwise; for m >= 1 the triangular
    system m p_j + (j+1) p_{j+1} = f_j is solved by back-substitution from
    the top T degree.  Both run on the integer slices of f: if one
    coefficient monomial carries f_j = n_j / den, then

        P_j = n_j * m^(top-j) - (j+1) * P_{j+1}

    is an integer and p_j = P_j / (den * m^(top-j+1)).  Each numerator goes
    into a cell under its own denominator, and the primitive is the cells'
    slices.
    """
    cells: Cells = {}
    for mu, (den, buckets) in f.slices().items():
        by_den = cells.setdefault(mu, {})
        for m, terms in buckets:
            prof = {k & _T_MASK: n for k, n in terms}
            if m == 0:
                for j, n in prof.items():
                    by_den.setdefault(den * (j + 1), {})[j + 1] = n  # the key of q^0 T^(j+1)
                continue
            big = 0  # P_{j+1} during the descent
            power = 1  # m^(top-j)
            for j in range(max(prof), -1, -1):
                big = prof.get(j, 0) * power - (j + 1) * big
                if big:
                    by_den.setdefault(den * power * m, {})[m << _SHIFT | j] = big
                power *= m
    return QTSeries._from_slices(f.order, normalise(cells, _q_power))
