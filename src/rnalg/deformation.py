"""Truncated formal deformations of an operator-equipped algebra.

A deformation of order N is a pair of polynomial families

  nu_t = nu_0 + nu_1 t + ... + nu_N t^N     (bilinear maps A x A -> A)
  P_t  = P_0  + P_1 t + ... + P_N t^N       (linear maps A -> A)

with nu_0 the base multiplication and P_0 the base operator.  Each nu_k is
stored as Algebra.mu is: the dim x dim^2 Matrix whose column i dim + j
holds nu_k(e_i, e_j), and each P_k is a dim x dim Matrix.  A series is its
coefficient list, truncated at t^N: maps compose by convolution, and
nu_t(f, g) is nu convolved with the sums of f_k (x) g_l.  The three
equations are associativity of nu_t and the Nijenhuis ("twisted
compatibility") and Reynolds ("averaged compatibility") identities of P_t,
each one series of cochains evaluated on A through the inclusion
iota = (Id, 0, ..., 0), whose t^n coefficient is the order-n equation.
Coefficients whose indices sum to n land in t^n, so truncating at N is
exact for every reported order.  Over Q[t] the Reynolds term
P_t(nu_t(P_t a, P_t b)) is the quartic sum over all splits i+j+k+l = n,
the reading every order report records.

Order 0 of the three equations is exactly the base structure check, so a
valid deformation certifies its own base.  A formal isomorphism
Id + phi_1 t + ... is a series of operators too.  A convolution takes
O(N^2) products of dim-sized matrices; the fixed cap of loading an algebra
file bounds that work before it starts, on the dimension dim (N + 1) of
A[t]/(t^(N+1)), which its message names.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial, reduce
from typing import NamedTuple

from .algebra import NIJENHUIS, REYNOLDS, Algebra, _nonzero_columns, identity_residual
from .errors import DEFAULT_BUDGET, BudgetError, InputError
from .exactlin import Matrix, flatten, from_cols, kron_sum, solve, unflatten
# cohomology and representation are imported where they run: check and equiv load neither

CONVENTION_NOTE = ("averaged-compatibility tail: the subtracted quartic sum "
                   "runs over all index splits i+j+k+l = n")

EQ_ASSOCIATIVITY = "associativity"
EQ_TWISTED = "twisted-compatibility"
EQ_AVERAGED = "averaged-compatibility"


class Series(tuple):
    """Coefficients c_0 .. c_N of sum c_k t^k, truncated at t^N; add and sub act coefficientwise."""

    def add(self, other: "Series") -> "Series":
        return Series(x.add(y) for x, y in zip(self, other))

    def sub(self, other: "Series") -> "Series":
        return Series(x.sub(y) for x, y in zip(self, other))


def _convolve(f, g) -> Series:
    """The composite series: coefficient n is sum_{k+l=n} f_k g_l, truncated at the lower order."""
    return Series(reduce(Matrix.add, (f[k].mul(g[n - k]) for k in range(n + 1)))
                  for n in range(min(len(f), len(g))))


def _product(nu, f, g) -> Series:
    """nu_t(f, g), whose column i g.cols + j is nu_t(f e_i, g e_j).

    It is nu convolved with sum_{k+l=j} f_k (x) g_l at t^j, up to the lowest of the three orders.
    """
    return _convolve(nu, [kron_sum([(1, [f[k], g[j - k]]) for k in range(j + 1)])
                          for j in range(min(len(nu), len(f), len(g)))])


def _padded(coefficients, order: int) -> tuple:
    """The coefficients, then zero ones through t^order."""
    zero = Matrix.zeros(coefficients[0].rows, coefficients[0].cols)
    return tuple(coefficients) + (zero,) * (order + 1 - len(coefficients))


def _require_series_cap(dim: int, order: int) -> None:
    """The fixed cap of loading an algebra file, on the dimension of A[t]/(t^(order+1))."""
    size = dim * (order + 1)
    if size ** 3 > DEFAULT_BUDGET:
        raise BudgetError(f"deformation series stage: dim {dim} at order {order} makes a dimension-"
                          f"{size} algebra, which needs {size ** 3} structure constants, "
                          f"cap {DEFAULT_BUDGET}")


class TruncatedDeformation:
    """Coefficient matrices nu[k] (dim x dim^2, laid out as Algebra.mu) and p[k], k = 0..order."""

    def __init__(self, order: int, nu: list[Matrix], p: list[Matrix]):
        if order < 0:
            raise InputError("deformation order must be >= 0")
        if len(nu) != order + 1 or len(p) != order + 1:
            raise InputError("need order+1 coefficient entries for nu and p")
        dim = nu[0].rows
        if dim < 1:
            raise InputError("dimension must be >= 1")
        for mat in nu:
            if mat.rows != dim or mat.cols != dim * dim:
                raise InputError("nu coefficients must be dim x dim^2 matrices")
        for mat in p:
            if mat.rows != dim or mat.cols != dim:
                raise InputError("p coefficients must be dim x dim matrices")
        self.order = order
        self.dim = dim
        self.nu = tuple(nu)
        self.p = tuple(p)

    @classmethod
    def constant(cls, a: Algebra, p: Matrix, order: int) -> "TruncatedDeformation":
        """The deformation with all higher coefficients zero."""
        return cls(order, _padded([a.mu], order), _padded([p], order))

    def with_coefficient(self, k: int, nu_k: Matrix | None = None,
                         p_k: Matrix | None = None) -> "TruncatedDeformation":
        """Copy with the order-k coefficient replaced."""
        nu, ps = list(self.nu), list(self.p)
        if nu_k is not None:
            nu[k] = nu_k
        if p_k is not None:
            ps[k] = p_k
        return TruncatedDeformation(self.order, nu, ps)


class EqViolation(NamedTuple):
    equation: str
    order: int
    args: tuple
    residual: tuple


class OrderReport(NamedTuple):
    order: int
    violations: tuple[EqViolation, ...]
    convention_note: str = CONVENTION_NOTE

    @property
    def ok(self) -> bool:
        return not self.violations


class DeformationReport(NamedTuple):
    order: int
    orders: tuple[OrderReport, ...]
    convention_note: str = CONVENTION_NOTE

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.orders)

    def first_violation(self) -> EqViolation | None:
        for r in self.orders:
            if r.violations:
                return r.violations[0]
        return None


def _at_order(groups, n: int, dim: int) -> tuple[EqViolation, ...]:
    """The nonzero columns of each residual's t^n coefficient, as order-n violations.

    groups holds (arity, [(equation, residual), ...]); the residuals of a group
    share one layout, whose column a_1 ... a_arity in base dim is that basis tuple.
    """
    return tuple(EqViolation(eq, n, idx, res)
                 for arity, group in groups for idx, eq, (res,) in _nonzero_columns(
                     [(eq, residual[n]) for eq, residual in group], dim, arity))


def _residual_series(d: TruncatedDeformation):
    """(arity, [(equation, residual), ...]) groups for the three identities over Q[t].

    Each residual is the identity at x = y = iota, where P_t iota = (P_0 .. P_N)
    and nu_t(iota, iota) = (nu_0 .. nu_N).  Associativity triples come first in
    (a, b, c) order, then per pair (a, b) the twisted and the averaged residual.
    """
    _require_series_cap(d.dim, d.order)
    iota = _padded([Matrix.identity(d.dim)], d.order)
    mul, apply = partial(_product, d.nu), partial(_convolve, d.p)
    twisted, averaged = (identity_residual(identity, None, mul, apply, iota, iota, d.p, d.p)
                         for identity in (NIJENHUIS, REYNOLDS))
    return [(3, [(EQ_ASSOCIATIVITY, mul(d.nu, iota).sub(mul(iota, d.nu)))]),
            (2, [(EQ_TWISTED, twisted), (EQ_AVERAGED, averaged)])]


def order_residuals(d: TruncatedDeformation, n: int) -> list[Fraction]:
    """Every order-n residual coordinate as one flat vector, in report order.

    At n = 1 the vector is a linear function of (nu_1, P_1), which is what
    makes the order-1 solution space computable by exact linear algebra.
    """
    if not 0 <= n <= d.order:
        raise InputError("order out of range")
    out = []
    for _, group in _residual_series(d):
        blocks = [residual[n] for _, residual in group]
        out += [x for col in range(blocks[0].cols) for b in blocks for x in b.col_list(col)]
    return out


def check_deformation(d: TruncatedDeformation) -> DeformationReport:
    """Order-by-order residual report; order 0 is the base structure check."""
    groups = _residual_series(d)
    return DeformationReport(d.order, tuple(OrderReport(n, _at_order(groups, n, d.dim))
                                            for n in range(d.order + 1)))


class FormalIso:
    """Truncated formal isomorphism Id + phi_1 t + ... + phi_N t^N."""

    def __init__(self, order: int, phi: list[Matrix]):
        if order < 0:
            raise InputError("iso order must be >= 0")
        if len(phi) != order + 1:
            raise InputError("need order+1 coefficient matrices")
        dim = phi[0].rows
        if dim < 1:
            raise InputError("dimension must be >= 1")
        for m in phi:
            if m.rows != dim or m.cols != dim:
                raise InputError("phi coefficients must be square of one size")
        if phi[0] != Matrix.identity(dim):
            raise InputError("order-0 coefficient must be the identity")
        self.order = order
        self.dim = dim
        self.phi = tuple(phi)

    def inverse_coefficients(self) -> list[Matrix]:
        """chi_k with (sum phi_i t^i)(sum chi_j t^j) = Id up to t^order.

        Since phi_0 = Id: chi_0 = Id and chi_n = -sum_{k=1..n} phi_k chi_{n-k}.
        """
        chi = [Matrix.identity(self.dim)]
        for n in range(1, self.order + 1):
            chi.append(reduce(Matrix.add, (self.phi[k].mul(chi[n - k])
                                           for k in range(1, n + 1))).scale(-1))
        return chi


class EquivalenceReport(NamedTuple):
    order: int
    violations: tuple[EqViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


EQ_PRODUCT_TRANSPORT = "product-transport"
EQ_OPERATOR_TRANSPORT = "operator-transport"


def check_equivalence(src: TruncatedDeformation, dst: TruncatedDeformation,
                      iso: FormalIso) -> EquivalenceReport:
    """Does iso carry src to dst order by order?

    With (nu, P) = src and (nu', P') = dst, checks the coefficient of t^n of
    Phi(nu'_t(a,b)) = nu_t(Phi a, Phi b)  and of  Phi . P'_t = P_t . Phi
    on all basis pairs, through the lower of the deformation and iso orders.
    """
    if src.dim != dst.dim or src.dim != iso.dim:
        raise InputError("dimension mismatch")
    if src.order != dst.order:
        raise InputError("deformation orders differ")
    order = min(src.order, iso.order)
    _require_series_cap(src.dim, order)
    # every series stops at the lower order; Phi iota = phi, nu'_t(iota, iota) = nu'
    product = _convolve(iso.phi, dst.nu).sub(_product(src.nu, iso.phi, iso.phi))
    operator = _convolve(iso.phi, dst.p).sub(_convolve(src.p, iso.phi))
    groups = [(2, [(EQ_PRODUCT_TRANSPORT, product)]), (1, [(EQ_OPERATOR_TRANSPORT, operator)])]
    return EquivalenceReport(order, tuple(v for n in range(order + 1)
                                          for v in _at_order(groups, n, src.dim)))


def transport(d: TruncatedDeformation, iso: FormalIso) -> TruncatedDeformation:
    """Carry d along iso: nu' = Phi^-1 nu (Phi x Phi), P' = Phi^-1 P Phi.

    The result d' is the unique deformation with check_equivalence(d, d', iso)
    passing at every shared order.  Phi^-1 is taken through iso's order and
    is zero past it.
    """
    if iso.dim != d.dim:
        raise InputError("dimension mismatch")
    _require_series_cap(d.dim, d.order)
    # chi_k depends on phi_0 .. phi_k only: read and invert no further than d's order
    head = FormalIso(min(iso.order, d.order), iso.phi[:d.order + 1])
    phi, chi = _padded(head.phi, d.order), _padded(head.inverse_coefficients(), d.order)
    return TruncatedDeformation(d.order, list(_convolve(chi, _product(d.nu, phi, phi))),
                                list(_convolve(_convolve(chi, d.p), phi)))


class CocycleReport(NamedTuple):
    in_constrained_subspace: bool
    differential_zero: bool
    first_nonzero: tuple | None

    @property
    def is_cocycle(self) -> bool:
        return self.in_constrained_subspace and self.differential_zero


def _pair_vector(d: TruncatedDeformation, k: int) -> list[Fraction]:
    """Flatten (nu_k, P_k) into ambient C^2 (+) C^1 coordinates, V = A."""
    return flatten(d.nu[k]) + flatten(d.p[k])


def order1_pair(dim: int, vec) -> tuple[Matrix, Matrix]:
    """(nu_1, P_1) from coordinates in the layout of _pair_vector."""
    return unflatten(vec[:dim ** 3], dim), unflatten(vec[dim ** 3:], dim)


def order1_system(a: Algebra, p: Matrix) -> Matrix:
    """Matrix of the order-1 equations in the unknown pair (nu_1, P_1).

    Column layout matches the degree-2 pair flattening: nu_1 coordinates
    first (input pair index major), then P_1 column by column.
    """
    dim = a.dim
    unknowns = dim ** 3 + dim ** 2
    base = TruncatedDeformation.constant(a, p, 1)
    cols = []
    for idx in range(unknowns):
        unit = [Fraction(0)] * unknowns
        unit[idx] = Fraction(1)
        cols.append(order_residuals(base.with_coefficient(1, *order1_pair(dim, unit)), 1))
    return from_cols(cols)


def cocycle_reports(a: Algebra, p: Matrix, vectors) -> list[CocycleReport]:
    """Is each (nu_1, P_1), given in the layout of _pair_vector, a degree-2 cocycle?

    Membership asks P_1 to commute with P (the degree-1 constrained
    subspace for the regular coefficients); the differential is applied in
    ambient coordinates, so a failure of the complex itself would surface
    as a nonzero image rather than being masked.  The constraint and the
    differential are built once for all vectors.
    """
    from .cohomology import ComplexBuilder
    from .representation import regular_representation

    b = ComplexBuilder(a, p, regular_representation(a, p))
    constraint, differential, split = b.rno_constraint(1), b.d_ambient(2), b.amb(2)
    reports = []
    for vec in vectors:
        member = not any(constraint.apply(vec[split:]))
        nonzero = next(((i, x) for i, x in enumerate(differential.apply(vec)) if x), None)
        reports.append(CocycleReport(member, nonzero is None, nonzero))
    return reports


def infinitesimal_cocycle(a: Algebra, p: Matrix, d: TruncatedDeformation) -> CocycleReport:
    """Is (nu_1, P_1) a degree-2 cocycle of the combined complex?  See cocycle_reports."""
    if d.order < 1:
        raise InputError("need order >= 1")
    return cocycle_reports(a, p, [_pair_vector(d, 1)])[0]


class ClassComparison(NamedTuple):
    difference_in_domain: bool
    same_class: bool
    witness: tuple | None


def same_cohomology_class(a: Algebra, p: Matrix, d1: TruncatedDeformation,
                          d2: TruncatedDeformation) -> ClassComparison:
    """Is (nu_1, P_1) of d1 cohomologous to that of d2?

    The difference must lie in the degree-2 domain (operator parts in the
    constrained subspace) and be an exact image of the degree-1 combined
    differential; the solve is exact, so a returned witness is a genuine
    preimage.
    """
    if d1.dim != d2.dim:
        raise InputError("dimension mismatch")
    if d1.order < 1 or d2.order < 1:
        raise InputError("need order >= 1")
    from .cohomology import ComplexBuilder
    from .representation import regular_representation

    b = ComplexBuilder(a, p, regular_representation(a, p))
    diff = [x - y for x, y in zip(_pair_vector(d1, 1), _pair_vector(d2, 1))]
    in_domain = not any(b.rno_constraint(1).apply(diff[b.amb(2):]))
    witness = solve(b.d(1), diff)
    return ClassComparison(in_domain, witness is not None and in_domain,
                           tuple(witness) if witness is not None else None)


class RigidityReport(NamedTuple):
    verdict: str
    dim_h2: int | None
    residuals_zero: dict
    reasons: tuple[str, ...]


def rigidity_report(a: Algebra, p: Matrix, budget: int | None = None) -> RigidityReport:
    """Verdict "rigid" needs dim H^2 = 0 plus vanishing composite residuals.

    The composites d_2 d_1 and d_3 d_2 must both vanish before the quotient
    at degree 2 means what rigidity needs it to mean; anything less yields
    "inconclusive", never "flexible", since a nonzero class is only a
    candidate direction, not a certified deformation.
    """
    from .cohomology import cohomology_dims
    from .representation import regular_representation

    result = cohomology_dims(a, p, regular_representation(a, p), 2, budget)
    r1 = result.at(1).residual_zero["d2"]
    r2 = result.at(2).residual_zero["d2"]
    dim_h2 = result.at(2).dim_h
    reasons = []
    if not r1:
        reasons.append("composite d_2 d_1 is nonzero")
    if not r2:
        reasons.append("composite d_3 d_2 is nonzero")
    if dim_h2 is None:
        reasons.append("degree-2 quotient undefined: complex inconsistent at 2")
    elif dim_h2 != 0:
        reasons.append(f"dim H^2 = {dim_h2} leaves room for infinitesimal deformations")
    verdict = "rigid" if (r1 and r2 and dim_h2 == 0) else "inconclusive"
    return RigidityReport(verdict, dim_h2, {"d2d1": r1, "d3d2": r2}, tuple(reasons))
