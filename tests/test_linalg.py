from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emzv.errors import DimensionMismatch
from emzv.linalg import RatMatrix, _int_rows, _primitive_row, kernel_basis, rref, solve

F = Fraction


def test_rref_identity():
    m = RatMatrix.identity(3)
    red, pivots, rank = rref(m)
    assert red == m
    assert pivots == [0, 1, 2]
    assert rank == 3


def test_rref_rank_one():
    m = RatMatrix.from_rows([[1, 2], [2, 4]])
    red, pivots, rank = rref(m)
    assert red == RatMatrix.from_rows([[1, 2], [0, 0]])
    assert rank == 1


def test_rref_swap():
    m = RatMatrix.from_rows([[0, 1], [1, 0]])
    red, pivots, rank = rref(m)
    assert red == RatMatrix.identity(2)
    assert pivots == [0, 1]


def test_kernel_examples():
    # no rows, or only zero rows: every column is free
    units = [(F(1), F(0)), (F(0), F(1))]
    assert kernel_basis(RatMatrix(0, 2, ())) == units
    assert kernel_basis(RatMatrix.from_rows([[0, 0], [0, 0]])) == units
    # repeated and scaled rows span the row space of one
    rows = [[2, -4], [F(-1, 3), F(2, 3)], [1, -2]]
    assert kernel_basis(RatMatrix.from_rows(rows)) == [(F(2), F(1))]
    k = kernel_basis(RatMatrix.from_rows([[1, 1]]))
    assert len(k) == 1
    a, b = k[0]
    assert a + b == 0 and (a, b) != (0, 0)

    assert kernel_basis(RatMatrix.identity(4)) == []

    k = kernel_basis(RatMatrix.from_rows([[1, -3]]))
    assert len(k) == 1
    a, b = k[0]
    assert a == 3 * b and b != 0


def test_solve_examples():
    assert solve(RatMatrix.identity(2), [5, 7]) == (F(5), F(7))
    assert solve(RatMatrix.from_rows([[1, 1]]), [2]) == (F(2), F(0))
    assert solve(RatMatrix.from_rows([[1], [1]]), [1, 2]) is None
    with pytest.raises(DimensionMismatch):
        solve(RatMatrix.identity(2), [1])


small_fracs = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@st.composite
def matrices(draw, max_dim=5):
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    rows = draw(
        st.lists(st.lists(small_fracs, min_size=c, max_size=c), min_size=r, max_size=r)
    )
    return RatMatrix.from_rows(rows)


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_rank_nullity_and_kernel(m):
    red, pivots, rank = rref(m)
    kern = kernel_basis(m)
    assert rank + len(kern) == m.cols
    for v in kern:
        for i in range(m.rows):
            assert sum(m.at(i, j) * v[j] for j in range(m.cols)) == 0
    # pivot list strictly increasing, pivot entries are unit columns
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        for k in range(rank):
            assert red.at(k, c) == (1 if k == i else 0)


@settings(max_examples=80, deadline=None)
@given(matrices(), st.data())
def test_solve_substitution(m, data):
    x = data.draw(
        st.lists(small_fracs, min_size=m.cols, max_size=m.cols)
    )
    rhs = [sum(m.at(i, j) * x[j] for j in range(m.cols)) for i in range(m.rows)]
    got = solve(m, rhs)
    assert got is not None
    for i in range(m.rows):
        assert sum(m.at(i, j) * got[j] for j in range(m.cols)) == rhs[i]


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_agrees_with_plain_gauss(m):
    # Independent oracle: naive fraction Gauss-Jordan.
    rows = [list(m.row(i)) for i in range(m.rows)]
    nr, nc = m.rows, m.cols
    piv = []
    r = 0
    for c in range(nc):
        sel = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        piv.append(c)
        r += 1
        if r == nr:
            break
    red, pivots, rank = rref(m)
    assert pivots == piv
    assert red == RatMatrix.from_rows(rows)


def test_primitive_rows():
    assert _primitive_row([0, -4, 6, 0]) == (0, 2, -3, 0)
    assert _primitive_row([6, -4]) == (3, -2) == _primitive_row([-3, 2])
    assert _primitive_row([-7]) == (1,)


# ---------------------------------------------------------------------------
# Differential test: the integer back-substitution of rref against the
# Fraction back-substitution it replaced.


def reference_rref(m):
    rows = _int_rows(m)
    nr, nc = m.rows, m.cols
    pivots = []
    prev_pivot = 1
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        for i in range(r + 1, nr):
            xi = rows[i][c]
            rows[i] = [(pv * rows[i][j] - xi * rows[r][j]) // prev_pivot for j in range(nc)]
        prev_pivot = pv
        pivots.append(c)
        r += 1
        if r == nr:
            break
    rank = len(pivots)
    frac_rows = [[Fraction(x) for x in rows[i]] for i in range(rank)]
    for i in range(rank - 1, -1, -1):
        c = pivots[i]
        pivval = frac_rows[i][c]
        frac_rows[i] = [x / pivval for x in frac_rows[i]]
        for k in range(i):
            f = frac_rows[k][c]
            if f:
                frac_rows[k] = [a - f * b for a, b in zip(frac_rows[k], frac_rows[i])]
    full = frac_rows + [[Fraction(0)] * nc for _ in range(nr - rank)]
    return RatMatrix(nr, nc, tuple(x for row in full for x in row)), pivots, rank


def reference_kernel_basis(m):
    rows = sorted({_primitive_row(r) for r in _int_rows(m) if any(r)})
    red, pivots, _ = reference_rref(RatMatrix(len(rows), m.cols, tuple(x for r in rows for x in r)))
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red.at(i, fc)
        basis.append(tuple(v))
    return basis


@st.composite
def structured_matrices(draw):
    """Integer (kept as ints) or rational matrices of any shape up to 8 x 8,
    wide or tall, whose rows are new, zero, duplicates of earlier rows or
    combinations of two earlier rows (so often rank-deficient)."""
    nr = draw(st.integers(1, 8))
    nc = draw(st.integers(1, 8))
    integral = draw(st.booleans())
    entry = st.integers(-12, 12) if integral else small_fracs
    rows = []
    for _ in range(nr):
        kind = draw(st.sampled_from(("new", "zero", "duplicate", "combination")))
        if kind == "zero":
            rows.append([0] * nc)
        elif kind == "new" or not rows:
            rows.append(draw(st.lists(entry, min_size=nc, max_size=nc)))
        elif kind == "duplicate":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            p, q = draw(entry), draw(entry)
            rows.append([p * a + q * b for a, b in zip(u, v)])
    return RatMatrix(nr, nc, tuple(x for row in rows for x in row))


@settings(max_examples=300, deadline=None)
@given(structured_matrices())
def test_rref_and_kernel_match_fraction_back_substitution(m):
    red, pivots, rank = rref(m)
    assert (red, pivots, rank) == reference_rref(m)
    assert all(type(x) is Fraction for x in red.entries)
    assert kernel_basis(m) == reference_kernel_basis(m)
