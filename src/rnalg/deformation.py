"""Truncated formal deformations of an operator-equipped algebra.

A deformation of order N is a pair of polynomial families

  nu_t = nu_0 + nu_1 t + ... + nu_N t^N     (bilinear maps A x A -> A)
  P_t  = P_0  + P_1 t + ... + P_N t^N       (linear maps A -> A)

with nu_0 the base multiplication and P_0 the base operator.  Checking a
deformation means expanding three identities in t and collecting the
coefficient of t^n for every n <= N on all basis pairs/triples:

  associativity          sum_{i+j=n} nu_i(nu_j(a,b),c) - nu_i(a,nu_j(b,c)) = 0
  twisted compatibility  sum_{i+j+k=n} nu_i(P_j a, P_k b)
                           = sum P_i(nu_j(P_k a, b)) + sum P_i(nu_j(a, P_k b))
                             - sum_{i+j+k=n} P_i(P_j(nu_k(a,b)))
  averaged compatibility same left side and first two sums, with the
                         subtracted tail sum_{i+j+k+l=n} P_i(nu_j(P_k a, P_l b))

The tail of the averaged equation is quartic in the families and its index
set is not forced by the lower-order terms; here it runs over all four-way
splits i+j+k+l = n, and every order report records that choice.

Order 0 of the three equations is exactly the base structure check, so a
valid deformation certifies its own base.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Algebra, _vadd, _vsub
from .cohomology import ComplexBuilder, flatten_map
from .errors import InputError
from .exactlin import Matrix, solve
from .representation import regular_representation

CONVENTION_NOTE = ("averaged-compatibility tail: the subtracted quartic sum "
                   "runs over all index splits i+j+k+l = n")

EQ_ASSOCIATIVITY = "associativity"
EQ_TWISTED = "twisted-compatibility"
EQ_AVERAGED = "averaged-compatibility"


def _vzero(dim: int) -> list[Fraction]:
    return [Fraction(0)] * dim


def _splits(n: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to n."""
    if parts == 1:
        yield (n,)
        return
    for head in itertools.product(range(n + 1), repeat=parts - 1):
        rest = n - sum(head)
        if rest >= 0:
            yield head + (rest,)


class TruncatedDeformation:
    """Coefficient data nu[k][i][j] -> vector and p[k] -> matrix, k = 0..order."""

    def __init__(self, order: int, nu, p):
        if order < 0:
            raise InputError("deformation order must be >= 0")
        if len(nu) != order + 1 or len(p) != order + 1:
            raise InputError("need order+1 coefficient entries for nu and p")
        dim = len(nu[0])
        for table in nu:
            if len(table) != dim or any(len(row) != dim for row in table):
                raise InputError("nu coefficient tables must be dim x dim")
            for row in table:
                for vec in row:
                    if len(vec) != dim:
                        raise InputError("nu values must be dim-vectors")
        for mat in p:
            if mat.rows != dim or mat.cols != dim:
                raise InputError("p coefficients must be dim x dim matrices")
        self.order = order
        self.dim = dim
        self.nu = tuple(tuple(tuple(tuple(Fraction(x) for x in vec) for vec in row)
                              for row in table) for table in nu)
        self.p = tuple(p)

    @classmethod
    def constant(cls, a: Algebra, p: Matrix, order: int) -> "TruncatedDeformation":
        """The deformation with all higher coefficients zero."""
        base = [[list(a.c[i][j]) for j in range(a.dim)] for i in range(a.dim)]
        zero_table = [[_vzero(a.dim) for _ in range(a.dim)] for _ in range(a.dim)]
        nu = [base] + [zero_table for _ in range(order)]
        ps = [p] + [Matrix.zeros(a.dim, a.dim) for _ in range(order)]
        return cls(order, nu, ps)

    def base_algebra(self, name: str = "deformation-base") -> Algebra:
        triples = []
        for i in range(self.dim):
            for j in range(self.dim):
                for k, x in enumerate(self.nu[0][i][j]):
                    if x:
                        triples.append((i, j, k, x))
        return Algebra.from_sparse(self.dim, triples, name=name)

    def nu_bilinear(self, k: int, x: list[Fraction], y: list[Fraction]) -> list[Fraction]:
        out = _vzero(self.dim)
        table = self.nu[k]
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                vec = table[i][j]
                coef = xi * yj
                for t in range(self.dim):
                    if vec[t]:
                        out[t] += coef * vec[t]
        return out

    def p_apply(self, k: int, x: list[Fraction]) -> list[Fraction]:
        return self.p[k].apply(x)

    def with_coefficient(self, k: int, nu_k=None, p_k: Matrix | None = None) -> "TruncatedDeformation":
        """Copy with the order-k coefficient replaced."""
        nu = [[[list(vec) for vec in row] for row in table] for table in self.nu]
        ps = list(self.p)
        if nu_k is not None:
            nu[k] = nu_k
        if p_k is not None:
            ps[k] = p_k
        return TruncatedDeformation(self.order, nu, ps)


@dataclass(frozen=True)
class EqViolation:
    equation: str
    order: int
    args: tuple
    residual: tuple


@dataclass(frozen=True)
class OrderReport:
    order: int
    violations: tuple[EqViolation, ...]
    convention_note: str = CONVENTION_NOTE

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class DeformationReport:
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


def _assoc_residual(d: TruncatedDeformation, n: int, a: int, b: int, c: int) -> list[Fraction]:
    dim = d.dim
    ea = [Fraction(i == a) for i in range(dim)]
    ec = [Fraction(i == c) for i in range(dim)]
    out = _vzero(dim)
    for i, j in _splits(n, 2):
        inner_ab = d.nu[j][a][b]
        inner_bc = d.nu[j][b][c]
        out = _vadd(out, d.nu_bilinear(i, list(inner_ab), ec))
        out = _vsub(out, d.nu_bilinear(i, ea, list(inner_bc)))
    return out


def _compat_residuals(d: TruncatedDeformation, n: int, a: int, b: int):
    """(twisted residual, averaged residual) at order n on basis pair (a, b)."""
    dim = d.dim
    ea = [Fraction(i == a) for i in range(dim)]
    eb = [Fraction(i == b) for i in range(dim)]
    pa = {k: d.p_apply(k, ea) for k in range(n + 1)}
    pb = {k: d.p_apply(k, eb) for k in range(n + 1)}
    lhs = _vzero(dim)
    for i, j, k in _splits(n, 3):
        lhs = _vadd(lhs, d.nu_bilinear(i, pa[j], pb[k]))
    common = _vzero(dim)
    for i, j, k in _splits(n, 3):
        common = _vadd(common, d.p_apply(i, d.nu_bilinear(j, pa[k], eb)))
        common = _vadd(common, d.p_apply(i, d.nu_bilinear(j, ea, pb[k])))
    twisted_tail = _vzero(dim)
    for i, j, k in _splits(n, 3):
        twisted_tail = _vadd(twisted_tail, d.p_apply(i, d.p_apply(j, list(d.nu[k][a][b]))))
    averaged_tail = _vzero(dim)
    for i, j, k, l in _splits(n, 4):
        averaged_tail = _vadd(averaged_tail, d.p_apply(i, d.nu_bilinear(j, pa[k], pb[l])))
    twisted = _vsub(lhs, _vsub(common, twisted_tail))
    averaged = _vsub(lhs, _vsub(common, averaged_tail))
    return twisted, averaged


def _order_terms(d: TruncatedDeformation, n: int):
    """(equation, basis indices, residual) for every order-n identity.

    Associativity triples come first in lexicographic (a, b, c) order, then
    per pair (a, b) the twisted followed by the averaged residual.
    """
    if not 0 <= n <= d.order:
        raise InputError("order out of range")
    for a, b, c in itertools.product(range(d.dim), repeat=3):
        yield EQ_ASSOCIATIVITY, (a, b, c), _assoc_residual(d, n, a, b, c)
    for a, b in itertools.product(range(d.dim), repeat=2):
        twisted, averaged = _compat_residuals(d, n, a, b)
        yield EQ_TWISTED, (a, b), twisted
        yield EQ_AVERAGED, (a, b), averaged


def check_order(d: TruncatedDeformation, n: int) -> OrderReport:
    """Collect the coefficient-of-t^n residuals of all three identities."""
    return OrderReport(n, tuple(EqViolation(eq, n, args, tuple(res))
                                for eq, args, res in _order_terms(d, n) if any(res)))


def order_residuals(d: TruncatedDeformation, n: int) -> list[Fraction]:
    """Every order-n residual coordinate as one flat vector, in _order_terms order.

    At n = 1 the vector is a linear function of (nu_1, P_1), which is what
    makes the order-1 solution space computable by exact linear algebra.
    """
    return [x for _, _, res in _order_terms(d, n) for x in res]


def check_deformation(d: TruncatedDeformation) -> DeformationReport:
    """Order-by-order residual report; order 0 is the base structure check."""
    return DeformationReport(d.order, tuple(check_order(d, n) for n in range(d.order + 1)))


class FormalIso:
    """Truncated formal isomorphism Id + phi_1 t + ... + phi_N t^N."""

    def __init__(self, order: int, phi: list[Matrix]):
        if order < 0:
            raise InputError("iso order must be >= 0")
        if len(phi) != order + 1:
            raise InputError("need order+1 coefficient matrices")
        dim = phi[0].rows
        for m in phi:
            if m.rows != dim or m.cols != dim:
                raise InputError("phi coefficients must be square of one size")
        if phi[0] != Matrix.identity(dim):
            raise InputError("order-0 coefficient must be the identity")
        self.order = order
        self.dim = dim
        self.phi = tuple(phi)

    @classmethod
    def identity(cls, dim: int, order: int) -> "FormalIso":
        return cls(order, [Matrix.identity(dim)] + [Matrix.zeros(dim, dim)] * order)

    def coefficient(self, k: int) -> Matrix:
        if 0 <= k <= self.order:
            return self.phi[k]
        return Matrix.zeros(self.dim, self.dim)

    def inverse_coefficients(self) -> list[Matrix]:
        """chi_k with (sum phi_i t^i)(sum chi_j t^j) = Id up to t^order."""
        chi = [Matrix.identity(self.dim)]
        for n in range(1, self.order + 1):
            acc = Matrix.zeros(self.dim, self.dim)
            for i in range(1, n + 1):
                acc = acc.add(self.phi[i].mul(chi[n - i]))
            chi.append(acc.scale(-1))
        return chi

    def inverse(self) -> "FormalIso":
        return FormalIso(self.order, self.inverse_coefficients())

    def compose(self, other: "FormalIso") -> "FormalIso":
        """self after other, truncated at min order."""
        order = min(self.order, other.order)
        out = []
        for n in range(order + 1):
            acc = Matrix.zeros(self.dim, self.dim)
            for i, j in _splits(n, 2):
                acc = acc.add(self.coefficient(i).mul(other.coefficient(j)))
            out.append(acc)
        return FormalIso(order, out)


@dataclass(frozen=True)
class EquivalenceReport:
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
    on all basis pairs.
    """
    if src.dim != dst.dim or src.dim != iso.dim:
        raise InputError("dimension mismatch")
    if src.order != dst.order:
        raise InputError("deformation orders differ")
    order = min(src.order, iso.order)
    dim = src.dim
    violations = []
    basis = [[Fraction(i == t) for i in range(dim)] for t in range(dim)]
    for n in range(order + 1):
        for a in range(dim):
            for b in range(dim):
                lhs = _vzero(dim)
                for i, j in _splits(n, 2):
                    lhs = _vadd(lhs, iso.coefficient(i).apply(list(dst.nu[j][a][b])))
                rhs = _vzero(dim)
                for i, j, k in _splits(n, 3):
                    rhs = _vadd(rhs, src.nu_bilinear(
                        i, iso.coefficient(j).apply(basis[a]), iso.coefficient(k).apply(basis[b])))
                res = _vsub(lhs, rhs)
                if any(res):
                    violations.append(EqViolation(EQ_PRODUCT_TRANSPORT, n, (a, b), tuple(res)))
        for a in range(dim):
            lhs = _vzero(dim)
            rhs = _vzero(dim)
            for i, j in _splits(n, 2):
                lhs = _vadd(lhs, iso.coefficient(i).apply(dst.p_apply(j, basis[a])))
                rhs = _vadd(rhs, src.p_apply(i, iso.coefficient(j).apply(basis[a])))
            res = _vsub(lhs, rhs)
            if any(res):
                violations.append(EqViolation(EQ_OPERATOR_TRANSPORT, n, (a,), tuple(res)))
    return EquivalenceReport(order, tuple(violations))


def transport(d: TruncatedDeformation, iso: FormalIso) -> TruncatedDeformation:
    """Carry d along iso: nu' = Phi^-1 nu (Phi x Phi), P' = Phi^-1 P Phi.

    The result d' is the unique deformation with check_equivalence(d, d', iso)
    passing at every shared order.
    """
    if iso.dim != d.dim:
        raise InputError("dimension mismatch")
    chi = iso.inverse_coefficients()

    def chi_at(k: int) -> Matrix:
        return chi[k] if k < len(chi) else Matrix.zeros(d.dim, d.dim)

    dim = d.dim
    basis = [[Fraction(i == t) for i in range(dim)] for t in range(dim)]
    nu_out = []
    p_out = []
    for n in range(d.order + 1):
        table = [[_vzero(dim) for _ in range(dim)] for _ in range(dim)]
        for a in range(dim):
            for b in range(dim):
                acc = _vzero(dim)
                for i, j, k, l in _splits(n, 4):
                    inner = d.nu_bilinear(j, iso.coefficient(k).apply(basis[a]),
                                          iso.coefficient(l).apply(basis[b]))
                    acc = _vadd(acc, chi_at(i).apply(inner))
                table[a][b] = acc
        nu_out.append(table)
        mat = Matrix.zeros(dim, dim)
        for i, j, k in _splits(n, 3):
            mat = mat.add(chi_at(i).mul(d.p[j]).mul(iso.coefficient(k)))
        p_out.append(mat)
    return TruncatedDeformation(d.order, nu_out, p_out)


@dataclass(frozen=True)
class CocycleReport:
    in_constrained_subspace: bool
    differential_zero: bool
    first_nonzero: tuple | None

    @property
    def is_cocycle(self) -> bool:
        return self.in_constrained_subspace and self.differential_zero


def _pair_vector(d: TruncatedDeformation, k: int) -> list[Fraction]:
    """Flatten (nu_k, P_k) into ambient C^2 (+) C^1 coordinates, V = A."""
    dim = d.dim
    nu_flat = flatten_map(dim, dim, 2, lambda multi: d.nu[k][multi[0]][multi[1]])
    p_flat = flatten_map(dim, dim, 1, lambda multi: d.p[k].col_list(multi[0]))
    return nu_flat + p_flat


def infinitesimal_cocycle(a: Algebra, p: Matrix, d: TruncatedDeformation,
                          budget: int | None = None) -> CocycleReport:
    """Is (nu_1, P_1) a degree-2 cocycle of the combined complex?

    Membership asks P_1 to commute with P (the degree-1 constrained
    subspace for the regular coefficients); the differential is applied in
    ambient coordinates, so a failure of the complex itself would surface
    as a nonzero image rather than being masked.
    """
    if d.order < 1:
        raise InputError("need order >= 1")
    m = regular_representation(a, p)
    b = ComplexBuilder(a, p, m, budget)
    constraint = b.rno_constraint(1)
    p1_flat = flatten_map(d.dim, d.dim, 1, lambda multi: d.p[1].col_list(multi[0]))
    member = all(not x for x in constraint.apply(p1_flat))
    image = b.d_ambient(2).apply(_pair_vector(d, 1))
    nonzero = next(((i, x) for i, x in enumerate(image) if x), None)
    return CocycleReport(member, nonzero is None, nonzero)


@dataclass(frozen=True)
class ClassComparison:
    difference_in_domain: bool
    same_class: bool
    witness: tuple | None


def same_cohomology_class(a: Algebra, p: Matrix, d1: TruncatedDeformation,
                          d2: TruncatedDeformation,
                          budget: int | None = None) -> ClassComparison:
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
    m = regular_representation(a, p)
    b = ComplexBuilder(a, p, m, budget)
    diff = _vsub(_pair_vector(d1, 1), _pair_vector(d2, 1))
    split = b.amb(2)
    constraint = b.rno_constraint(1)
    in_domain = all(not x for x in constraint.apply(diff[split:]))
    witness = solve(b.d(1), diff)
    return ClassComparison(in_domain, witness is not None and in_domain,
                           tuple(witness) if witness is not None else None)


@dataclass(frozen=True)
class RigidityReport:
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

    m = regular_representation(a, p)
    result = cohomology_dims(a, p, m, 2, budget)
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
