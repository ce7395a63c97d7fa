"""Exact linear algebra: rank against a naive oracle, kernel and solve laws."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnalg.errors import InputError
from rnalg.exactlin import (Matrix, basis_matrix, from_cols, kernel_basis,
                            kron, kron_sum, parse_q, qstr, rank, rref, solve)


def _naive_rank(rows: list[list[Fraction]]) -> int:
    """Plain fraction Gaussian elimination, written independently of rref."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


_small_q = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def _matrix_strategy(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(st.lists(_small_q, min_size=c, max_size=c),
                               min_size=r, max_size=r)))


@settings(max_examples=60, deadline=None)
@given(_matrix_strategy())
def test_rank_matches_naive_gaussian_oracle(rows):
    m = Matrix.from_rows([[Fraction(x) for x in r] for r in rows])
    assert rank(m) == _naive_rank(m.to_rows())


@settings(max_examples=60, deadline=None)
@given(_matrix_strategy())
def test_kernel_vectors_annihilate_and_count_nullity(rows):
    m = Matrix.from_rows([[Fraction(x) for x in r] for r in rows])
    kernel = kernel_basis(m)
    for v in kernel:
        assert all(x == 0 for x in m.apply(v))
    assert rank(m) + len(kernel) == m.cols


@settings(max_examples=60, deadline=None)
@given(_matrix_strategy())
def test_solve_returns_exact_preimage_or_detects_insolvability(rows):
    m = Matrix.from_rows([[Fraction(x) for x in r] for r in rows])
    rng = random.Random(7)
    x = [Fraction(rng.randint(-3, 3)) for _ in range(m.cols)]
    b = m.apply(x)
    got = solve(m, b)
    assert got is not None
    assert m.apply(got) == b


def test_solve_reports_none_outside_column_space():
    m = Matrix.from_rows([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    assert solve(m, [Fraction(0), Fraction(1)]) is None


def test_kernel_canonical_form_for_rank_one_matrix():
    m = Matrix.from_rows([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    assert kernel_basis(m) == [[Fraction(-2), Fraction(1)]]


def test_rref_is_idempotent_on_seeded_matrices():
    rng = random.Random(2024)
    for _ in range(25):
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)]
                for _ in range(3)]
        once_rows, once_pivots = rref(Matrix.from_rows(rows))
        again_rows, again_pivots = rref(Matrix.from_rows(once_rows))
        assert again_rows == once_rows
        assert again_pivots == once_pivots


def test_matrix_algebra_basics():
    a = Matrix.from_rows([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])
    b = Matrix.identity(2)
    assert a.mul(b).eq(a)
    assert a.sub(a).is_zero()
    assert a.add(a).eq(a.scale(2))
    assert a.transpose().transpose().eq(a)
    assert a.apply([Fraction(1), Fraction(0)]) == [Fraction(1), Fraction(3)]


def test_hstack_vstack_shapes_and_entries():
    a = Matrix.identity(2)
    z = Matrix.zeros(2, 1)
    wide = a.hstack(z)
    assert (wide.rows, wide.cols) == (2, 3)
    tall = a.vstack(Matrix.zeros(1, 2))
    assert (tall.rows, tall.cols) == (3, 2)
    assert wide.at(0, 0) == 1 and wide.at(0, 2) == 0


def test_kron_dimensions_and_identity_product():
    a = Matrix.identity(2)
    b = Matrix.identity(3)
    k = kron([a, b])
    assert (k.rows, k.cols) == (6, 6)
    assert k.eq(Matrix.identity(6))


def test_kron_mixed_product_rule():
    # (A kron B)(C kron D) = AC kron BD on a fixed instance
    a = Matrix.from_rows([[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]])
    b = Matrix.from_rows([[Fraction(2)]])
    c = Matrix.from_rows([[Fraction(1), Fraction(0)], [Fraction(3), Fraction(1)]])
    d = Matrix.from_rows([[Fraction(5)]])
    assert kron([a, b]).mul(kron([c, d])).eq(kron([a.mul(c), b.mul(d)]))


def test_kron_sum_is_the_sum_of_separate_krons():
    a = Matrix.from_rows([[1, 2, 0], [0, -1, 3]])
    b = Matrix.from_rows([[0, Fraction(1, 2)], [4, 0]])
    c = Matrix.from_rows([[1, 0, 0], [0, 0, 1]])
    d = Matrix.from_rows([[Fraction(-2, 3), 1], [1, 1]])
    # row-major nesting: entry (i*br + k, j*bc + l) of A kron B is A[i][j] B[k][l]
    ab = kron([a, b])
    for i, j, k, l in itertools.product(range(2), range(3), range(2), range(2)):
        assert ab.at(i * 2 + k, j * 2 + l) == a.at(i, j) * b.at(k, l)
    terms = [(1, [a, b]), (-2, [c, d]), (Fraction(1, 3), [a, Matrix.identity(2)])]
    expected = ab.sub(kron([c, d]).scale(2)).add(kron([a, Matrix.identity(2)]).scale(Fraction(1, 3)))
    assert kron_sum(terms).eq(expected)
    assert kron_sum([(1, [b, a, d])]).eq(kron([b, a, d]))
    with pytest.raises(InputError):
        kron_sum([(1, [a]), (1, [b])])


def test_from_cols_and_basis_matrix_layout():
    cols = [[Fraction(1), Fraction(0)], [Fraction(2), Fraction(3)]]
    m = from_cols(cols)
    assert m.col_list(0) == cols[0]
    assert m.col_list(1) == cols[1]
    bm = basis_matrix(cols, 2)
    assert bm.eq(m)


@settings(max_examples=80, deadline=None)
@given(st.fractions(max_denominator=1000))
def test_rational_string_round_trip(x):
    assert parse_q(qstr(x)) == x


def test_parse_q_rejects_garbage():
    with pytest.raises(InputError):
        parse_q("3/0")
    with pytest.raises(InputError):
        parse_q("one half")
