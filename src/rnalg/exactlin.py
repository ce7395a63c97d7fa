"""Exact rational linear algebra over fractions.Fraction.

Matrices are dense, row-major, immutable by convention.  Rank is first
tested for fullness mod a large prime, which can only certify full rank;
otherwise fraction-free (Bareiss) elimination on an integer-scaled copy
gives the exact rank.  Kernel bases and solutions come from reduced row
echelon form and are canonical: each kernel vector carries a 1 in "its"
free coordinate and 0 in the other free coordinates.  kron_sum adds
Kronecker products built from the nonzeros of their factors only.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from .errors import InputError

# a prime just above 2**31; the filter only ever certifies full rank,
# so any single prime is sound
_FILTER_PRIME = 2147483659


def qstr(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_q(text) -> Fraction:
    if isinstance(text, bool):
        raise InputError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if isinstance(text, str):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational: {text!r}") from exc
    raise InputError(f"not a rational: {text!r}")


class Matrix:
    """Dense rational matrix; entries stored row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: list[Fraction]):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise InputError(f"entry count {len(entries)} != {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, data) -> "Matrix":
        data = [list(r) for r in data]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        flat: list[Fraction] = []
        for r in data:
            if len(r) != cols:
                raise InputError("ragged rows")
            flat.extend(Fraction(x) for x in r)
        return cls(rows, cols, flat)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        e = [Fraction(0)] * (n * n)
        for i in range(n):
            e[i * n + i] = Fraction(1)
        return cls(n, n, e)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row_list(self, i: int) -> list[Fraction]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col_list(self, j: int) -> list[Fraction]:
        return self.entries[j :: self.cols] if self.cols else []

    def to_rows(self) -> list[list[Fraction]]:
        return [self.row_list(i) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        out = [Fraction(0)] * (self.rows * self.cols)
        for i in range(self.rows):
            base = i * self.cols
            for j in range(self.cols):
                out[j * self.rows + i] = self.entries[base + j]
        return Matrix(self.cols, self.rows, out)

    def add(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.rows, self.cols,
                      [a + b for a, b in zip(self.entries, other.entries)])

    def sub(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.rows, self.cols,
                      [a - b for a, b in zip(self.entries, other.entries)])

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        return Matrix(self.rows, self.cols, [c * a for a in self.entries])

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise InputError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = [Fraction(0)] * (self.rows * other.cols)
        oc = other.cols
        for i in range(self.rows):
            base = i * self.cols
            tbase = i * oc
            for k in range(self.cols):
                a = self.entries[base + k]
                if a:
                    obase = k * oc
                    for j in range(oc):
                        b = other.entries[obase + j]
                        if b:
                            out[tbase + j] += a * b
        return Matrix(self.rows, oc, out)

    def apply(self, vec: list[Fraction]) -> list[Fraction]:
        if len(vec) != self.cols:
            raise InputError(f"vector length {len(vec)} != {self.cols} columns")
        out = [Fraction(0)] * self.rows
        for j, x in enumerate(vec):
            if x:
                for i in range(self.rows):
                    a = self.entries[i * self.cols + j]
                    if a:
                        out[i] += a * x
        return out

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise InputError("row count mismatch in hstack")
        flat: list[Fraction] = []
        for i in range(self.rows):
            flat.extend(self.row_list(i))
            flat.extend(other.row_list(i))
        return Matrix(self.rows, self.cols + other.cols, flat)

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise InputError("column count mismatch in vstack")
        return Matrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def eq(self, other: "Matrix") -> bool:
        return (self.rows, self.cols) == (other.rows, other.cols) and self.entries == other.entries

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.eq(other)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.entries)))

    def __repr__(self):
        return f"Matrix({self.to_rows()!r})"

    def _same_shape(self, other: "Matrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError(f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")


def from_cols(cols: list[list[Fraction]]) -> Matrix:
    if not cols:
        return Matrix.zeros(0, 0)
    n = len(cols[0])
    flat = [Fraction(0)] * (n * len(cols))
    for j, c in enumerate(cols):
        if len(c) != n:
            raise InputError("ragged columns")
        for i, x in enumerate(c):
            flat[i * len(cols) + j] = Fraction(x)
    return Matrix(n, len(cols), flat)


def kron(mats: list[Matrix]) -> Matrix:
    """Kronecker product, leftmost factor most significant (row-major nesting)."""
    return kron_sum([(1, mats)])


def kron_sum(terms) -> Matrix:
    """Sum of c * (M1 kron ... kron Mk) over the (c, [M1, ..., Mk]) terms.

    All terms have one shape; each product is expanded from the nonzeros
    of its factors only.
    """
    shapes = {(prod(m.rows for m in mats), prod(m.cols for m in mats)) for _, mats in terms}
    if len(shapes) != 1:
        raise InputError(f"kron_sum needs terms of one shape, got {sorted(shapes)}")
    rows, cols = shapes.pop()
    flat = [Fraction(0)] * (rows * cols)
    for c, mats in terms:
        products = [(0, 0, Fraction(c))]
        for m in mats:
            nonzeros = [(k, l, b) for k, row in enumerate(m.to_rows())
                        for l, b in enumerate(row) if b]
            products = [(i * m.rows + k, j * m.cols + l, a * b)
                        for i, j, a in products for k, l, b in nonzeros]
        for i, j, v in products:
            flat[i * cols + j] += v
    return Matrix(rows, cols, flat)


def _int_rows(m: Matrix) -> list[list[int]]:
    # scale each row by the lcm of denominators; rank is unchanged
    out = []
    for i in range(m.rows):
        row = m.row_list(i)
        mult = lcm(*(x.denominator for x in row)) if row else 1
        out.append([int(x * mult) for x in row])
    return out


def _rank_mod(rows: list[list[int]], p: int) -> int:
    work = [[x % p for x in r] for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    rank = 0
    col = 0
    while rank < nrows and col < ncols:
        piv = next((r for r in range(rank, nrows) if work[r][col]), None)
        if piv is None:
            col += 1
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], -1, p)
        prow = [(inv * x) % p for x in work[rank]]
        work[rank] = prow
        for r in range(rank + 1, nrows):
            f = work[r][col]
            if f:
                work[r] = [(x - f * y) % p for x, y in zip(work[r], prow)]
        rank += 1
        col += 1
    return rank


def _rank_bareiss(rows: list[list[int]]) -> int:
    work = [r[:] for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    rank = 0
    col = 0
    prev = 1
    while rank < nrows and col < ncols:
        piv = next((r for r in range(rank, nrows) if work[r][col]), None)
        if piv is None:
            col += 1
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pv = work[rank][col]
        for r in range(rank + 1, nrows):
            fr = work[r][col]
            row = work[r]
            top = work[rank]
            for c in range(col, ncols):
                row[c] = (row[c] * pv - fr * top[c]) // prev
        prev = pv
        rank += 1
        col += 1
    return rank


def rank(m: Matrix) -> int:
    """Exact rank; a mod-p full-rank certificate may short-circuit Bareiss."""
    if m.rows == 0 or m.cols == 0:
        return 0
    rows = _int_rows(m)
    bound = min(m.rows, m.cols)
    if _rank_mod(rows, _FILTER_PRIME) == bound:
        return bound
    return _rank_bareiss(rows)


def rref(m: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    work = m.to_rows()
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][col]
        work[r] = [inv * x for x in work[r]]
        for i in range(nrows):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return work, pivots


def kernel_basis(m: Matrix) -> list[list[Fraction]]:
    """Canonical null-space basis from the RREF, one vector per free column."""
    work, pivots = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -work[r][f]
        basis.append(v)
    return basis


def solve(m: Matrix, b: list[Fraction]) -> list[Fraction] | None:
    """One exact solution of m x = b with free variables set to 0, else None."""
    if len(b) != m.rows:
        raise InputError(f"rhs length {len(b)} != {m.rows} rows")
    aug = m.hstack(Matrix(m.rows, 1, [Fraction(x) for x in b]))
    work, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = work[r][m.cols]
    return x


def basis_matrix(vectors: list[list[Fraction]], length: int) -> Matrix:
    """Matrix whose columns are the given vectors (identity-free if empty)."""
    if not vectors:
        return Matrix.zeros(length, 0)
    return from_cols(vectors)
