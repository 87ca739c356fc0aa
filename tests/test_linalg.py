from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emzv.errors import DimensionMismatch
from emzv.linalg import RatMatrix, _primitive_row, kernel_basis, rref, solve

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
    assert red.to_rows() == [[1, 2], [0, 0]]
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
    assert red.to_rows() == rows


def test_primitive_rows():
    assert _primitive_row([0, -4, 6, 0]) == (0, 2, -3, 0)
    assert _primitive_row([6, -4]) == (3, -2) == _primitive_row([-3, 2])
    assert _primitive_row([-7]) == (1,)
