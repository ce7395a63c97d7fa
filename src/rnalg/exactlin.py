"""Exact rational linear algebra over fractions.Fraction.

A Matrix stores only its nonzero entries, in a dict from (row, col) to
an int if the entry is integral and else a Fraction, so products,
Kronecker sums and eliminations of integral matrices run on ints.
Fraction is the public boundary: at, row_list, col_list, to_rows, apply,
rref and solve return Fractions.  A Matrix is immutable by convention;
from_rows, to_rows, row_list and col_list are the dense boundary.  One
sparse row echelon serves rref, kernel_basis and solve: it pivots each
row on its leftmost nonzero column and keeps every pivot row fully
reduced, so its rows are the unique reduced row echelon form.  Kernel
bases and solutions read those rows and are canonical: the kernel is a
sparse matrix with one column per free coordinate, carrying a 1 there
and 0 in the other free coordinates.  rank needs no canonical form: it
eliminates forward only, fraction-free on primitive integer rows, over
the shorter side.  kron_sum adds Kronecker products built from the
nonzeros of their factors only, and mul sums into one accumulator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm, prod

from .errors import InputError

_ZERO = Fraction(0)
Entry = int | Fraction  # a stored value: an int, or a Fraction with denominator > 1


def _q(x) -> Fraction:
    """A stored value (or any rational) as a Fraction."""
    return x if x.__class__ is Fraction else Fraction(x)


def _canon(x) -> Entry:
    """x in stored form: an int if it is integral, else a Fraction.  Refuses floats and bools."""
    if x.__class__ is int:
        return x
    if x.__class__ is not Fraction:
        if isinstance(x, (float, bool)):
            raise InputError(f"not an exact rational: {x!r}")
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


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
        # "1e10000000" is ten characters for a 33-million-bit numerator
        if "e" in text or "E" in text:
            raise InputError(f"not a rational: {text!r} (write p/q or a decimal, no exponent)")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational: {text!r}") from exc
    raise InputError(f"not a rational: {text!r}")


class Matrix:
    """Sparse rational matrix: entries maps (i, j) to a nonzero Entry, one form per value."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: dict[tuple[int, int], Entry]):
        if rows < 0 or cols < 0:
            raise InputError(f"negative shape {rows}x{cols}")
        canon = {}
        for ij, x in entries.items():
            i, j = ij
            if not (0 <= i < rows and 0 <= j < cols):
                raise InputError(f"entry index outside {rows}x{cols}")
            x = x if x.__class__ is int else _canon(x)
            if x:
                canon[ij] = x
        self.rows, self.cols, self.entries = rows, cols, canon

    @classmethod
    def from_rows(cls, data) -> "Matrix":
        data = [list(r) for r in data]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for i, r in enumerate(data):
            if len(r) != cols:
                raise InputError("ragged rows")
            entries.update(((i, j), x) for j, x in enumerate(r) if x)
        return cls(rows, cols, entries)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, {})

    def at(self, i: int, j: int) -> Fraction:
        return _q(self.entries.get((i, j), _ZERO))

    def row_list(self, i: int) -> list[Fraction]:
        return [_q(self.entries.get((i, j), _ZERO)) for j in range(self.cols)]

    def col_list(self, j: int) -> list[Fraction]:
        return [_q(self.entries.get((i, j), _ZERO)) for i in range(self.rows)]

    def to_rows(self) -> list[list[Fraction]]:
        return [self.row_list(i) for i in range(self.rows)]

    def _row_dicts(self) -> dict[int, dict[int, Entry]]:
        """Row index -> {col: stored value} for the rows that have a nonzero."""
        out: dict[int, dict[int, Entry]] = {}
        for (i, j), x in self.entries.items():
            out.setdefault(i, {})[j] = x
        return out

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, {(j, i): x for (i, j), x in self.entries.items()})

    def add(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1)

    def sub(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1)

    def _combine(self, other: "Matrix", sign: int) -> "Matrix":
        self._same_shape(other)
        out = dict(self.entries)
        for ij, x in other.entries.items():
            out[ij] = out.get(ij, 0) + sign * x
        return Matrix(self.rows, self.cols, out)

    def scale(self, c) -> "Matrix":
        c = _canon(c)
        return Matrix(self.rows, self.cols, {ij: c * x for ij, x in self.entries.items()})

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise InputError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        right = other._row_dicts()
        out: dict[tuple[int, int], Entry] = {}
        for (i, k), a in self.entries.items():
            for j, b in right.get(k, {}).items():
                out[i, j] = out.get((i, j), 0) + a * b
        return Matrix(self.rows, other.cols, out)

    def apply(self, vec: list[Fraction]) -> list[Fraction]:
        if len(vec) != self.cols:
            raise InputError(f"vector length {len(vec)} != {self.cols} columns")
        out = [_ZERO] * self.rows
        for (i, j), a in self.entries.items():
            x = vec[j]
            if x:
                out[i] += a * x
        return out

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise InputError("row count mismatch in hstack")
        out = dict(self.entries)
        out.update(((i, self.cols + j), x) for (i, j), x in other.entries.items())
        return Matrix(self.rows, self.cols + other.cols, out)

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise InputError("column count mismatch in vstack")
        out = dict(self.entries)
        out.update(((self.rows + i, j), x) for (i, j), x in other.entries.items())
        return Matrix(self.rows + other.rows, self.cols, out)

    def is_zero(self) -> bool:
        return not self.entries

    def eq(self, other: "Matrix") -> bool:
        return (self.rows, self.cols) == (other.rows, other.cols) and self.entries == other.entries

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.eq(other)

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self):
        return f"Matrix({self.to_rows()!r})"

    def _same_shape(self, other: "Matrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError(f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")


def from_cols(cols: list[list[Fraction]]) -> Matrix:
    if not cols:
        return Matrix.zeros(0, 0)
    n = len(cols[0])
    entries = {}
    for j, c in enumerate(cols):
        if len(c) != n:
            raise InputError("ragged columns")
        entries.update(((i, j), x) for i, x in enumerate(c) if x)
    return Matrix(n, len(cols), entries)


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
    out = {}
    for c, mats in terms:
        products = [(0, 0, _canon(c))]
        for m in mats:
            products = [(i * m.rows + k, j * m.cols + l, a * b)
                        for i, j, a in products for (k, l), b in m.entries.items()]
        for i, j, x in products:
            out[i, j] = out.get((i, j), 0) + x
    return Matrix(rows, cols, out)


def _subtract(row: dict[int, Entry], f: Entry, pivot_row: dict[int, Entry]) -> None:
    """row -= f * pivot_row, in place, storing no zero."""
    for j, x in pivot_row.items():
        y = row.get(j, 0) - f * x
        if y:
            row[j] = y
        else:
            del row[j]


def _echelon(m: Matrix) -> dict[int, dict[int, Entry]]:
    """Reduced row echelon form of m as {pivot column: reduced row}.

    Each row of m is reduced by the pivot rows found so far; if anything
    is left, it is scaled to a leading 1 in its leftmost column and that
    column is cleared from the earlier pivot rows.  Every pivot row is
    therefore zero in every other pivot column, and the pivot rows are
    the nonzero rows of the unique RREF.
    """
    pivots: dict[int, dict[int, Entry]] = {}
    for _, row in sorted(m._row_dicts().items()):
        # a pivot row is zero in the other pivot columns, so subtracting it
        # leaves the other pivot entries of row as they were
        for j in [j for j in row if j in pivots]:
            _subtract(row, row[j], pivots[j])
        if not row:
            continue
        lead = min(row)
        inv = _canon(Fraction(1, row[lead]))
        row = {j: _canon(inv * x) for j, x in row.items()}
        for other in pivots.values():
            f = other.get(lead)
            if f:
                _subtract(other, f, row)
        pivots[lead] = row
        if len(pivots) == m.cols:
            break
    return pivots


def rank(m: Matrix) -> int:
    """Exact rank by fraction-free forward elimination over the shorter side.

    The rows (the columns of a tall m) are cleared of denominators, kept
    primitive (content divided out) and taken sparsest first.  A row whose
    leading column has a pivot row becomes a*row - b*pivot, a and b the two
    leads over their gcd (compare Bareiss 1968); else it is that column's
    pivot row.  There is no back-substitution.
    """
    tall = m.rows > m.cols
    lines: dict[int, dict[int, Entry]] = {}
    for (i, j), x in m.entries.items():
        lines.setdefault(j if tall else i, {})[i if tall else j] = x
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted(lines.values(), key=len):
        den = 1
        for x in row.values():
            if x.__class__ is Fraction:
                den = lcm(den, x.denominator)
        if den != 1:
            row = {j: (x * den).numerator for j, x in row.items()}
        while row:
            g = reduce(gcd, row.values())  # gcd(*values) retains memory per call on CPython 3.11
            if g != 1:
                row = {j: x // g for j, x in row.items()}
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            g = gcd(row[lead], pivot[lead])
            a, b = pivot[lead] // g, row[lead] // g
            if a < 0:
                a, b = -a, -b
            if a != 1:
                row = {j: a * x for j, x in row.items()}
            _subtract(row, b, pivot)
    return len(pivots)


def rref(m: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    pivots = _echelon(m)
    order = sorted(pivots)
    rows = [[_q(pivots[p].get(j, _ZERO)) for j in range(m.cols)] for p in order]
    rows += [[_ZERO] * m.cols for _ in range(m.rows - len(order))]
    return rows, order


def kernel_basis(m: Matrix) -> Matrix:
    """Canonical null-space basis from the RREF, one column per free column of m.

    The column of free column f has a 1 in row f, 0 in the other free rows
    and minus the reduced rows' f-entries in the pivot rows.
    """
    pivots = _echelon(m)
    free = [f for f in range(m.cols) if f not in pivots]
    col_of = {f: k for k, f in enumerate(free)}
    entries = {(f, k): 1 for f, k in col_of.items()}
    # off its pivot, a reduced row is nonzero only in free columns
    for p, row in pivots.items():
        for f, x in row.items():
            if f != p:
                entries[p, col_of[f]] = -x
    return Matrix(m.cols, len(free), entries)


def solve(m: Matrix, b: list[Fraction]) -> list[Fraction] | None:
    """One exact solution of m x = b with free variables set to 0, else None."""
    if len(b) != m.rows:
        raise InputError(f"rhs length {len(b)} != {m.rows} rows")
    pivots = _echelon(m.hstack(from_cols([b])))
    if m.cols in pivots:
        return None
    x = [_ZERO] * m.cols
    for p, row in pivots.items():
        x[p] = _q(row.get(m.cols, _ZERO))
    return x

