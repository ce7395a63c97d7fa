"""Cochain complexes attached to an operator-compatible bimodule.

A cochain is a Matrix; its coordinates are its stacked columns.  An
n-cochain f: A^n -> V is the dimV x dimA^n Matrix whose column offset(I)
holds f(e_i1, ..., e_in), with multi-indices ordered lexicographically,
i1 most significant: offset(I) = ((i1 * dimA + i2) * dimA + ...).  The
algebra's product mu is the 2-cochain of A with values in A.
exactlin.flatten stacks the columns into one vector of length dimV * dimA^n,
so the flat position of (I, v) is offset(I) * dimV + v, and
exactlin.unflatten inverts it.

The Hochschild differential delta and the restricted differential share
one formula; the restricted one acts on the constrained subspace whose
members satisfy f(P(a1), a2, ...) = xi f(a1, ..., an) (first slot only).
The twist map is

  psi_n(f)(a1..an) = f(Pa1..Pan) - sum_i xi f(Pa1,..,ai,..,Pan) + xi^2 f(a1..an)

with slot i left unreplaced in the i-th subtracted term and psi_0 = Id.
The combined differential on C^n_A (+) C^(n-1)_RNO is

  d_n(f, g) = (delta_n f, -partial_(n-1) g - psi_n f),      d_0 f = (delta_0 f, -f).

delta_n, psi_n and the constraint are each one sum of Kronecker products.
With mu^T the algebra's product matrix a.mu transposed, (dimA)^2 x dimA
with row (p, q), column t holding the e_t coordinate of e_p e_q, e_i the
i-th dimA x 1 basis column and Id^k the identity on k tensor factors of A,

  delta_n = sum_i e_i (x) Id^n (x) l_i + sum_s (-1)^s Id^(s-1) (x) mu^T (x) Id^(n-s) (x) Id_V
            + (-1)^(n+1) Id^n (x) [r_0; ...; r_(dimA-1)]      (right actions stacked).

A complex is built only on a bimodule over an associative algebra
(representation._require_bimodule refuses anything else, naming the first
failed axiom), so by Hochschild's theorem (Ann. Math. 46, 1945)
delta_(n+1) delta_n = 0 and its blocks below are zero matrices, never built.

With R_n the constrained basis (one vector per column) the combined complex is
assembled from blocks (d_ambient(n) is d_n without the factor R_(n-1)):

  d_n = [[delta_n, 0], [-psi_n, -partial_(n-1) R_(n-1)]],     d_0 = [[delta_0], [-psi_0]],
  d_(n+1) d_n = [[delta_(n+1) delta_n, 0], [-Psi_n, partial_n partial_(n-1) R_(n-1)]],
  d_1 d_0 = [[delta_1 delta_0], [-Psi_0]],  Psi_n = psi_(n+1) delta_n - partial_n psi_n.

Nothing here assumes the combined complex squares to zero: Psi_n is
computed exactly, outputs stay in ambient coordinates, and non-closure of
the constrained subspace under partial/psi is reported, never projected
away.  Quotient dimensions are refused wherever the residuals do not
vanish.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

from .algebra import Algebra
from .errors import DEFAULT_BUDGET, BudgetError, InputError, resolve_budget
from .exactlin import Matrix, kernel_basis, kron_sum, rank
from .representation import Bimodule, _operator_module, _require_bimodule


def _blocks(top_left: Matrix, bottom_left: Matrix,
            bottom_right: Matrix | None) -> Matrix:
    """[[top_left, 0], [-bottom_left, -bottom_right]] written into one dict, negated as copied;
    no second column if bottom_right is None."""
    top, left = top_left.rows, top_left.cols
    out = dict(top_left.entries)
    out.update(((top + i, j), -x) for (i, j), x in bottom_left.entries.items())
    if bottom_right is not None:
        out.update(((top + i, left + j), -x) for (i, j), x in bottom_right.entries.items())
        left += bottom_right.cols
    return Matrix(top + bottom_left.rows, left, out)


class ComplexBuilder:
    """Caches the matrices of one (algebra, operator, bimodule) complex."""

    def __init__(self, a: Algebra, p: Matrix, m: Bimodule, budget: int | None = None,
                 guard_to: int = -1):
        _operator_module(a, p, m)
        self.a = a
        self.p = p
        self.m = m
        self.budget = resolve_budget(budget)
        for n in range(guard_to + 1):  # before the unbudgeted axiom checks below
            self._guard(n)
        _require_bimodule(a, m)
        self._delta: dict[int, Matrix] = {}
        self._psi: dict[int, Matrix] = {}
        self._rno: dict[int, Matrix] = {}
        self._d: dict[int, Matrix] = {}

    def amb(self, n: int) -> int:
        return self.m.dim_v * self.a.dim ** n

    def _guard(self, n: int) -> None:
        # a fixed cap first, so dimA^n is never formed past it: delta_n and psi_n are sums of
        # about n Kronecker products of n + 2 factors, so on a dim-1 algebra, whose coordinates
        # stay at dimV, the work grows as n^3; at dimA >= 2 it binds only at budgets >= 2^223
        if (n + 1) ** 2 > DEFAULT_BUDGET:
            raise BudgetError(f"cochain stage: degree {n} needs {(n + 1) ** 2} Kronecker factor "
                              f"products, cap {DEFAULT_BUDGET}")
        if self.amb(n) > self.budget:
            raise BudgetError(f"cochain stage: degree {n} needs {self.amb(n)} coordinates, "
                              f"budget {self.budget}")

    def delta(self, n: int) -> Matrix:
        """Hochschild differential C^n -> C^(n+1) on ambient coordinates."""
        if n in self._delta:
            return self._delta[n]
        if n < 0:
            raise InputError("degree must be >= 0")
        self._guard(n + 1)
        da, dv = self.a.dim, self.m.dim_v
        ida, idv = Matrix.identity(da), Matrix.identity(dv)
        mu_t = self.a.mu.transpose()
        right = functools.reduce(Matrix.vstack, self.m.right)
        self._delta[n] = kron_sum(
            [(1, [Matrix(da, 1, {(i, 0): 1}), *[ida] * n, lm]) for i, lm in enumerate(self.m.left)]
            + [((-1) ** s, [*[ida] * (s - 1), mu_t, *[ida] * (n - s), idv])
               for s in range(1, n + 1)]
            + [((-1) ** (n + 1), [*[ida] * n, right])])
        return self._delta[n]

    def psi(self, n: int) -> Matrix:
        if n not in self._psi:
            self._guard(n)
            dv_id = Matrix.identity(self.m.dim_v)
            if n == 0:
                self._psi[n] = dv_id
            else:
                pt, xi, da_id = self.p.transpose(), self.m.xi, Matrix.identity(self.a.dim)
                self._psi[n] = kron_sum(
                    [(1, [pt] * n + [dv_id]), (1, [da_id] * n + [xi.mul(xi)])]
                    + [(-1, [pt] * i + [da_id] + [pt] * (n - 1 - i) + [xi]) for i in range(n)])
        return self._psi[n]

    def rno_constraint(self, n: int) -> Matrix:
        """Operator whose kernel is the first-slot constrained subspace."""
        self._guard(n)
        if n == 0:
            return Matrix.zeros(0, self.amb(0))
        da_id = Matrix.identity(self.a.dim)
        return kron_sum([(1, [self.p.transpose()] + [da_id] * (n - 1)
                          + [Matrix.identity(self.m.dim_v)]),
                         (-1, [da_id] * n + [self.m.xi])])

    def rno_basis(self, n: int) -> Matrix:
        """Canonical basis of the constrained subspace, one vector per column."""
        if n not in self._rno:
            self._rno[n] = kernel_basis(self.rno_constraint(n))
        return self._rno[n]

    def d_ambient(self, n: int) -> Matrix:
        """Combined differential on ambient (+) ambient coordinates."""
        return _blocks(self.delta(n), self.psi(n), self.delta(n - 1) if n else None)

    def d(self, n: int) -> Matrix:
        """Combined differential restricted to its stated domain.

        Columns are ambient C^n_A coordinates followed by coefficients in
        the canonical basis of the degree n-1 constrained subspace; rows
        stay ambient so non-closure remains visible.
        """
        if n not in self._d:
            self._d[n] = _blocks(self.delta(n), self.psi(n),
                                 self.delta(n - 1).mul(self.rno_basis(n - 1)) if n else None)
        return self._d[n]

    def domain_dim(self, n: int) -> int:
        return self.amb(n) + (self.rno_basis(n - 1).cols if n else 0)

    def psi_delta_residual(self, n: int) -> Matrix:
        """psi_(n+1) delta_n - partial_n psi_n on ambient C^n."""
        return self.psi(n + 1).mul(self.delta(n)).sub(self.delta(n).mul(self.psi(n)))

    def d_square_residual(self, n: int) -> Matrix:
        """d_(n+1) . d_n on the restricted domain, in ambient output coordinates.

        Zero but for its -Psi_n block at row offset amb(n + 2), which is how
        cohomology_dims reads it without building it; the tests hold that
        reading to this matrix.
        """
        self._guard(n + 2)  # the delta^2 blocks are zero, but their rows index C^(n+2)
        return _blocks(Matrix.zeros(self.amb(n + 2), self.amb(n)), self.psi_delta_residual(n),
                       Matrix.zeros(self.amb(n + 1), self.rno_basis(n - 1).cols)
                       if n else None)

    def image_closed(self, n: int) -> bool:
        """Does the image of d_n land back in C^(n+1)_A (+) C^n_RNO?"""
        # the constrained subspace is the kernel of rno_constraint(n), so the
        # lower rows of d_n land in it iff the constraint annihilates them
        constraint = self.rno_constraint(n)
        lower = Matrix.zeros(constraint.rows, self.amb(n + 1)).hstack(constraint)
        return lower.mul(self.d(n)).is_zero()


class ResidualWitness(NamedTuple):
    row: int
    col: int
    value: Fraction


class DegreeReport(NamedTuple):
    degree: int
    dim_space: int
    dim_z: int
    dim_b: int
    dim_h: int | None
    consistent: bool
    residual_zero: dict
    witnesses: dict


class CohomologyResult(NamedTuple):
    max_degree: int
    degrees: tuple[DegreeReport, ...]

    def at(self, n: int) -> DegreeReport:
        return self.degrees[n]


def _first_nonzero(m: Matrix) -> ResidualWitness | None:
    """The nonzero entry that comes first in row-major order."""
    if m.is_zero():
        return None
    i, j = min(m.entries)
    return ResidualWitness(i, j, m.at(i, j))


def cohomology_dims(a: Algebra, p: Matrix, m: Bimodule, max_n: int,
                    budget: int | None = None) -> CohomologyResult:
    """Kernel/image/quotient dimensions of the combined complex per degree.

    H^n is reported only when the composite into degree n vanishes, the
    image of d_(n-1) closes inside the stated codomain, and the composite
    leaving degree n vanishes as well; otherwise the raw kernel and image
    dimensions are kept and the degree is flagged inconsistent.  The
    delta2 and partial2 flags read true by Hochschild's theorem.  Residual
    flags at degree n cover the composites leaving degree n, whose codomain
    is indexed at degree n + 2, so the budget must admit the cochain space
    at degree max_n + 2.  Every degree up to max_n + 2 is guarded before
    the associativity and bimodule checks and before any rank is taken.

    d_(n+1) d_n is zero but for its -Psi_n block at row offset amb(n + 2)
    (see d_square_residual), so its flag is Psi_n = 0 and its witness is
    Psi_n's first nonzero moved down by amb(n + 2) and negated.
    """
    if max_n < 1:
        raise InputError("max degree must be >= 1")
    # refuse before any axiom check or rank, at the degree a build would stop
    b = ComplexBuilder(a, p, m, budget, guard_to=max_n + 2)
    degrees = range(max_n + 1)
    ranks = {n: rank(b.d(n)) for n in degrees}
    psi_delta = {n: b.psi_delta_residual(n) for n in degrees}
    reports = []
    for n in degrees:
        dim_space = b.domain_dim(n)
        dim_z = dim_space - ranks[n]
        dim_b = ranks[n - 1] if n >= 1 else 0
        zero = psi_delta[n].is_zero()
        residual_zero = {"delta2": True, "partial2": True, "psi_delta": zero, "d2": zero}
        consistent = zero and (n == 0 or (psi_delta[n - 1].is_zero() and b.image_closed(n - 1)))
        w = _first_nonzero(psi_delta[n])
        witnesses = {} if zero else {"psi_delta": w, "d2": w._replace(row=w.row + b.amb(n + 2),
                                                                      value=-w.value)}
        dim_h = dim_z - dim_b if consistent else None
        reports.append(DegreeReport(n, dim_space, dim_z, dim_b, dim_h,
                                    consistent, residual_zero, witnesses))
    return CohomologyResult(max_n, tuple(reports))
