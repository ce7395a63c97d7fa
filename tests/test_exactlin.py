"""Exact linear algebra: sparse storage and RREF against naive dense oracles,
kernel and solve laws."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnalg.errors import InputError
from rnalg.exactlin import (Matrix, _echelon, from_cols, kernel_basis,
                            kron, kron_sum, parse_q, qstr, rank, rref, solve)


def _naive_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Plain dense Gauss-Jordan elimination, written independently of rref.

    Returns every row (the zero rows last) and the pivot columns.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
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
        pivots.append(c)
    return m, pivots


_small_q = st.fractions(min_value=-4, max_value=4, max_denominator=3)
# mostly zero, like the differentials of the combined complex
_sparse_q = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), st.just(Fraction(0)), _small_q)


def _matrix_strategy(max_dim=4, max_rows=None, entries=_small_q):
    return st.integers(1, max_rows or max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(st.lists(entries, min_size=c, max_size=c),
                               min_size=r, max_size=r)))


@settings(max_examples=60, deadline=None)
@given(_matrix_strategy())
def test_rank_matches_naive_gaussian_oracle(rows):
    m = Matrix.from_rows([[Fraction(x) for x in r] for r in rows])
    assert rank(m) == len(_naive_rref(m.to_rows())[1])


# integers up to 10^12 and fractions with large parts, beside zeros and small values
_wide_q = st.one_of(st.just(Fraction(0)), _small_q, st.integers(-10 ** 12, 10 ** 12).map(Fraction),
                    st.fractions(min_value=-10 ** 12, max_value=10 ** 12, max_denominator=10 ** 6))


def _low_rank(draw_rows):
    """Rows that are combinations of a few drawn rows, so elimination has to cancel."""
    return st.tuples(draw_rows, st.lists(st.lists(_wide_q, min_size=1, max_size=4),
                                         min_size=1, max_size=9)).map(
        lambda t: [[sum((c * t[0][k][j] for k, c in enumerate(coeffs[:len(t[0])])), Fraction(0))
                    for j in range(len(t[0][0]))] for coeffs in t[1]])


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    _matrix_strategy(4, max_rows=9, entries=_wide_q),               # tall
    _matrix_strategy(9, max_rows=4, entries=_wide_q),               # wide
    _matrix_strategy(6, max_rows=6, entries=_sparse_q),             # empty rows
    _matrix_strategy(5, entries=st.just(Fraction(0))),              # all zero
    _matrix_strategy(5, entries=st.fractions(max_denominator=97)),  # rational-heavy
    _low_rank(_matrix_strategy(7, max_rows=3, entries=_wide_q))))
def test_fraction_free_rank_equals_the_echelon_pivot_count(rows):
    m = Matrix.from_rows(rows)
    assert rank(m) == len(_echelon(m)) == rank(m.transpose())


@settings(max_examples=80, deadline=None)
@given(st.one_of(_matrix_strategy(), _matrix_strategy(5, max_rows=12, entries=_sparse_q)))
def test_rref_equals_naive_gauss_jordan(rows):
    # kernel_basis reads these rows, and rno_basis, d(n) and every
    # cohomology result read kernel_basis, so the canonical form is pinned
    m = Matrix.from_rows(rows)
    assert rref(m) == _naive_rref(rows)


@settings(max_examples=60, deadline=None)
@given(_matrix_strategy())
def test_kernel_vectors_annihilate_and_count_nullity(rows):
    m = Matrix.from_rows([[Fraction(x) for x in r] for r in rows])
    kernel = kernel_basis(m)
    assert kernel.rows == m.cols
    for j in range(kernel.cols):
        assert all(x == 0 for x in m.apply(kernel.col_list(j)))
    assert rank(m) + kernel.cols == m.cols
    # canonical: column k is e_f minus the f-entries of the reduced rows,
    # f the k-th free column of the naive RREF
    reduced, pivots = _naive_rref(m.to_rows())
    expected = []
    for f in (f for f in range(m.cols) if f not in pivots):
        vec = [Fraction(f == j) for j in range(m.cols)]
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][f]
        expected.append(vec)
    assert kernel == (from_cols(expected) if expected else Matrix.zeros(m.cols, 0))


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
    assert kernel_basis(m) == from_cols([[Fraction(-2), Fraction(1)]])


def test_rref_is_idempotent_on_seeded_matrices():
    rng = random.Random(2024)
    for _ in range(25):
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)]
                for _ in range(3)]
        once_rows, once_pivots = rref(Matrix.from_rows(rows))
        again_rows, again_pivots = rref(Matrix.from_rows(once_rows))
        assert again_rows == once_rows
        assert again_pivots == once_pivots


def _d_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]) if b else 0)] for i in range(len(a))]


def _d_kron(a, b):
    return [[a[i][j] * b[k][l] for j in range(len(a[0])) for l in range(len(b[0]))]
            for i in range(len(a)) for k in range(len(b))]


def _canonical(x) -> bool:
    """The one stored form: a nonzero int (not a bool), or a Fraction that is not integral."""
    return (type(x) is int and x != 0) or (type(x) is Fraction and x.denominator > 1)


def _assert_sparse(m: Matrix) -> None:
    assert all(_canonical(x) for x in m.entries.values())
    assert all(0 <= i < m.rows and 0 <= j < m.cols for i, j in m.entries)


_three_dims = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))


def _rows_of(r, c):
    return st.lists(st.lists(_sparse_q, min_size=c, max_size=c), min_size=r, max_size=r)


@settings(max_examples=60, deadline=None)
@given(_three_dims.flatmap(lambda s: st.tuples(
    _rows_of(s[0], s[1]), _rows_of(s[0], s[1]), _rows_of(s[1], s[2]), _rows_of(s[2], s[1]),
    st.lists(_small_q, min_size=s[1], max_size=s[1]), _small_q)))
def test_sparse_operations_equal_dense_oracle(data):
    ra, rb, rc, rd, vec, c = data
    a, b, cm, dm = (Matrix.from_rows(r) for r in (ra, rb, rc, rd))
    n, k = len(ra), len(ra[0])
    cases = [
        (a.mul(cm), _d_mul(ra, rc)),
        (a.add(b), [[x + y for x, y in zip(u, v)] for u, v in zip(ra, rb)]),
        (a.sub(b), [[x - y for x, y in zip(u, v)] for u, v in zip(ra, rb)]),
        (a.scale(c), [[c * x for x in u] for u in ra]),
        (a.transpose(), [[ra[i][j] for i in range(n)] for j in range(k)]),
        (a.hstack(b), [u + v for u, v in zip(ra, rb)]),
        (a.vstack(dm), ra + rd),
        (kron([a, dm]), _d_kron(ra, rd)),
        (kron_sum([(c, [a, dm]), (-1, [b, dm])]),
         [[c * x - y for x, y in zip(u, v)] for u, v in zip(_d_kron(ra, rd), _d_kron(rb, rd))]),
    ]
    for got, want in cases:
        assert got.to_rows() == want
        _assert_sparse(got)
    assert a.apply(vec) == [sum((x * y for x, y in zip(u, vec)), Fraction(0)) for u in ra]
    # no zero is ever stored
    assert a.sub(a).entries == {}
    assert a.scale(0).is_zero()
    # equal matrices are eq and hash equal, whatever their insertion order
    again = Matrix(a.rows, a.cols, dict(reversed(list(a.entries.items()))))
    assert again.eq(a) and again == a and hash(again) == hash(a)
    assert a.transpose().transpose() == a and hash(a.transpose().transpose()) == hash(a)


@settings(max_examples=80, deadline=None)
@given(_three_dims.flatmap(lambda s: st.tuples(
    _rows_of(s[0], s[1]), _rows_of(s[0], s[1]), _rows_of(s[1], s[2]), _rows_of(s[1], s[2]),
    _small_q.filter(bool))))
def test_product_cancellation_stores_no_zero_and_no_integral_fraction(data):
    # [X | cX | Z] times [Y; -Y/c; W] is ZW: every XY term cancels, and the
    # Fraction partial sums of rational terms may come out integral
    x, z, y, w, c = data
    left = Matrix.from_rows([u + [c * e for e in u] + v for u, v in zip(x, z)])
    right = Matrix.from_rows(y + [[-e / c for e in u] for u in y] + w)
    got = left.mul(right)
    assert got.to_rows() == _d_mul(left.to_rows(), right.to_rows()) == _d_mul(z, w)
    _assert_sparse(got)


# non-unit pivots: 1 / lead on an int lead would be a float
_pivot_q = st.sampled_from([Fraction(0), Fraction(0), Fraction(2), Fraction(-3),
                            Fraction(1, 2), Fraction(1), Fraction(-1)])


def _all_fractions(values) -> bool:
    return all(type(x) is Fraction for x in values)


@settings(max_examples=80, deadline=None)
@given(_matrix_strategy(5, max_rows=6, entries=_pivot_q), st.randoms(use_true_random=False))
def test_integral_storage_keeps_fraction_boundary_and_no_float(rows, rng):
    m = Matrix.from_rows(rows)
    _assert_sparse(m)
    assert m.to_rows() == rows
    x = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(m.cols)]
    b = m.apply(x)
    reduced, pivots = rref(m)
    got = solve(m, b)
    kernel = kernel_basis(m)
    _assert_sparse(kernel)
    # the echelon rows are the private working storage of every solver
    assert not any(isinstance(v, float) for row in _echelon(m).values() for v in row.values())
    assert rank(m) == len(pivots)
    assert (reduced, pivots) == _naive_rref(rows)
    assert got is not None and m.apply(got) == b
    for values in (b, got, [m.at(i, j) for i in range(m.rows) for j in range(m.cols)],
                   *m.to_rows(), *reduced, *(m.row_list(i) for i in range(m.rows)),
                   *(m.col_list(j) for j in range(m.cols)),
                   *(kernel.col_list(j) for j in range(kernel.cols))):
        assert _all_fractions(values)


def test_constructor_stores_each_value_in_one_form():
    m = Matrix(2, 3, {(0, 0): Fraction(4, 2), (0, 1): Fraction(3, 3), (0, 2): Fraction(1, 3),
                      (1, 0): Fraction(2, 4), (1, 1): "-6/3", (1, 2): Fraction(0)})
    assert m.entries == {(0, 0): 2, (0, 1): 1, (0, 2): Fraction(1, 3),
                         (1, 0): Fraction(1, 2), (1, 1): -2}
    _assert_sparse(m)
    assert m == Matrix.from_rows([[2, 1, Fraction(1, 3)], [Fraction(1, 2), -2, 0]])
    assert _all_fractions(m.row_list(0)) and type(m.at(0, 0)) is Fraction
    # a product of non-integral entries that is integral is stored as an int
    half = Matrix.from_rows([[Fraction(1, 2)]])
    assert half.scale(2).entries == {(0, 0): 1} and half.mul(half.scale(4)).entries == {(0, 0): 1}
    _assert_sparse(kron_sum([(Fraction(2, 3), [half, Matrix.identity(2)]),
                             (Fraction(2, 3), [half, Matrix.identity(2)])]))


def test_constructor_refuses_floats_and_bools():
    # a float is not an exact value, and 0.1 would be stored as 3602879701896397/36028797018963968
    for x in (0.1, 0.5, 2.0, 0.0, True, False):
        with pytest.raises(InputError, match="not an exact rational"):
            Matrix(1, 1, {(0, 0): x})
    with pytest.raises(InputError):
        Matrix.identity(2).scale(0.5)


def test_constructor_refuses_bad_shapes_and_keys():
    for rows, cols, entries in ((-1, 2, {}), (2, -1, {}), (2, 2, {(2, 0): Fraction(1)}),
                                (2, 2, {(0, 2): Fraction(1)}), (2, 2, {(-1, 0): Fraction(1)})):
        with pytest.raises(InputError):
            Matrix(rows, cols, entries)
    assert Matrix(2, 2, {(0, 1): Fraction(0)}).entries == {}


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


def test_from_cols_layout():
    cols = [[Fraction(1), Fraction(0)], [Fraction(2), Fraction(3)]]
    m = from_cols(cols)
    assert m.col_list(0) == cols[0]
    assert m.col_list(1) == cols[1]


@settings(max_examples=80, deadline=None)
@given(st.fractions(max_denominator=1000))
def test_rational_string_round_trip(x):
    assert parse_q(qstr(x)) == x


def test_parse_q_rejects_garbage():
    with pytest.raises(InputError):
        parse_q("3/0")
    with pytest.raises(InputError):
        parse_q("one half")
    # exponent notation is refused: its value can be exponentially larger than its text
    for text in ("1e3", "2E-1", "1.5e2"):
        with pytest.raises(InputError, match="no exponent"):
            parse_q(text)
    assert parse_q("0.5") == Fraction(1, 2)
