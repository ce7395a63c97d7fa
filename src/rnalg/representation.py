"""Bimodules over structure-constant algebras and operator-compatible actions.

A bimodule is (V, l, r, rho) with one left-action and one right-action
matrix per algebra basis element.  Validation reports two profiles: the
axioms as written with the given twist rho, and the standard profile with
rho replaced by the identity.  An operator-compatible action adds xi with
four compatibility conditions against P; l(P(a)) always means the linear
extension sum_k P[k][i] l(e_k).  Constructors only build modules: the
validators run where a caller asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Algebra
from .errors import InputError
from .exactlin import Matrix


class Bimodule:
    def __init__(self, dim_v: int, left: list[Matrix], right: list[Matrix],
                 rho: Matrix | None = None, xi: Matrix | None = None):
        if dim_v < 0:
            raise InputError("module dimension must be >= 0")
        for m in list(left) + list(right):
            if m.rows != dim_v or m.cols != dim_v:
                raise InputError("action matrices must be dimV x dimV")
        if len(left) != len(right):
            raise InputError("left/right action counts differ")
        self.dim_v = dim_v
        self.left = list(left)
        self.right = list(right)
        self.rho = rho if rho is not None else Matrix.identity(dim_v)
        if self.rho.rows != dim_v or self.rho.cols != dim_v:
            raise InputError("rho must be dimV x dimV")
        self.xi = xi
        if xi is not None and (xi.rows != dim_v or xi.cols != dim_v):
            raise InputError("xi must be dimV x dimV")

    @property
    def dim_a(self) -> int:
        return len(self.left)

    def left_of(self, vec: list[Fraction]) -> Matrix:
        """Linear extension of the left action to a coordinate vector."""
        return self._extend(self.left, vec)

    def right_of(self, vec: list[Fraction]) -> Matrix:
        return self._extend(self.right, vec)

    def _extend(self, actions: list[Matrix], vec: list[Fraction]) -> Matrix:
        out = Matrix.zeros(self.dim_v, self.dim_v)
        for i, x in enumerate(vec):
            if x:
                out = out.add(actions[i].scale(x))
        return out


@dataclass(frozen=True)
class ConditionViolation:
    condition: str
    indices: tuple[int, ...]
    residual: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class ProfileReport:
    violations: tuple[ConditionViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class BimoduleReport:
    with_rho: ProfileReport
    standard: ProfileReport

    @property
    def passed_standard(self) -> bool:
        return self.standard.passed


def _violations(checks) -> tuple[ConditionViolation, ...]:
    """The (condition, indices, difference) checks whose difference is nonzero."""
    return tuple(ConditionViolation(cond, idx, tuple(tuple(r) for r in diff.to_rows()))
                 for cond, idx, diff in checks if not diff.is_zero())


def _check_axioms(a: Algebra, m: Bimodule, rho: Matrix) -> ProfileReport:
    checks = []
    for i in range(a.dim):
        checks.append(("rho-left-commute", (i,), rho.mul(m.left[i]).sub(m.left[i].mul(rho))))
        checks.append(("rho-right-commute", (i,), rho.mul(m.right[i]).sub(m.right[i].mul(rho))))
    for i in range(a.dim):
        for j in range(a.dim):
            prod = a.mu.col_list(i * a.dim + j)
            lp = m.left_of(prod)
            rp = m.right_of(prod)
            checks.append(("left-action-multiplicative", (i, j),
                           lp.mul(rho).sub(m.left[i].mul(m.left[j]))))
            checks.append(("right-action-antimultiplicative", (i, j),
                           rp.mul(rho).sub(m.right[j].mul(m.right[i]))))
            checks.append(("left-right-commute", (i, j),
                           m.left[i].mul(m.right[j]).sub(m.right[j].mul(m.left[i]))))
    return ProfileReport(_violations(checks))


def check_bimodule(a: Algebra, m: Bimodule) -> BimoduleReport:
    """Evaluate the bimodule axioms with the given rho and with rho = Id."""
    if m.dim_a != a.dim:
        raise InputError("action count != algebra dimension")
    return BimoduleReport(_check_axioms(a, m, m.rho),
                          _check_axioms(a, m, Matrix.identity(m.dim_v)))


@dataclass(frozen=True)
class RNRepresentationReport:
    violations: tuple[ConditionViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def check_rn_representation(a: Algebra, p: Matrix, m: Bimodule) -> RNRepresentationReport:
    """Evaluate the four xi/P compatibility conditions on basis elements."""
    if m.dim_a != a.dim:
        raise InputError("action count != algebra dimension")
    if p.rows != a.dim or p.cols != a.dim:
        raise InputError("operator shape != algebra dimension")
    if m.xi is None:
        raise InputError("bimodule carries no xi")
    xi = m.xi
    lp = [m.left_of(p.col_list(i)) for i in range(a.dim)]
    rp = [m.right_of(p.col_list(i)) for i in range(a.dim)]
    checks = []
    for i in range(a.dim):
        checks.append(("xi-left-intertwine", (i,), xi.mul(m.left[i]).sub(lp[i].mul(xi))))
        checks.append(("xi-right-intertwine", (i,), xi.mul(m.right[i]).sub(rp[i].mul(xi))))
    for i in range(a.dim):
        for j in range(a.dim):
            checks.append(("left-operator-exchange", (i, j),
                           lp[i].mul(m.left[j]).sub(m.left[i].mul(lp[j]))))
            checks.append(("right-operator-exchange", (i, j),
                           rp[i].mul(m.right[j]).sub(m.right[j].mul(rp[i]))))
    return RNRepresentationReport(_violations(checks))


def regular_representation(a: Algebra, p: Matrix) -> Bimodule:
    """V = A with multiplication actions, rho = Id, xi = P; nothing is validated."""
    if p.rows != a.dim or p.cols != a.dim:
        raise InputError("operator shape != algebra dimension")
    return Bimodule(a.dim,
                    [a.left_mult_matrix(i) for i in range(a.dim)],
                    [a.right_mult_matrix(i) for i in range(a.dim)],
                    rho=Matrix.identity(a.dim), xi=p)


def induced_actions(a: Algebra, p: Matrix, m: Bimodule) -> tuple[list[Matrix], list[Matrix]]:
    """The twisted actions l'(a) = l(a)xi - xi l(a) + l(P(a)), same shape for r'."""
    if m.xi is None:
        raise InputError("bimodule carries no xi")
    xi = m.xi
    left, right = [], []
    for i in range(a.dim):
        pa = p.col_list(i)
        left.append(m.left[i].mul(xi).sub(xi.mul(m.left[i])).add(m.left_of(pa)))
        right.append(m.right[i].mul(xi).sub(xi.mul(m.right[i])).add(m.right_of(pa)))
    return left, right


def induce_representation(a: Algebra, p: Matrix, m: Bimodule,
                          validate: bool = True) -> Bimodule:
    """Build the induced bimodule from the twisted actions.

    With validate=True (the default) the input must already pass the
    standard bimodule profile and the xi conditions.  The result is not
    validated: the induced actions are a definition, so a caller that
    relies on their validity checks them with check_bimodule and
    check_rn_representation.
    """
    if validate:
        if not check_bimodule(a, m).passed_standard:
            raise InputError("input bimodule fails the standard profile")
        if not check_rn_representation(a, p, m).passed:
            raise InputError("input bimodule fails the xi compatibility conditions")
    left, right = induced_actions(a, p, m)
    return Bimodule(m.dim_v, left, right, rho=m.rho, xi=m.xi)
