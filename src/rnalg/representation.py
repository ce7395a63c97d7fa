"""Bimodules over structure-constant algebras and operator-compatible actions.

A bimodule is (V, l, r, xi) with one left-action and one right-action
matrix per algebra basis element and an operator xi on V, and each action
is one cochain A (x) V -> V: L = [l_0 | ... | l_{d-1}], whose column
i dimV + v is l_i(e_v), and R the same way, so l(P(a)) is L (P (x) Id_V).
Every axiom and condition is one residual cochain in L, R, mu, xi and the
swap S = sigma (x) Id_V, sigma(e_i (x) e_j) = e_j (x) e_i; its nonzero
blocks of dimV columns, at index i or (i, j), are the violations.
Validation reports the three bimodule axioms as the standard profile.  The
regular representation is (mu, mu sigma) with xi = P.
Constructors only build modules: the validators run where a caller asks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .algebra import Algebra, _nonzero_columns, _require_associative, _require_square
from .errors import InputError
from .exactlin import Matrix, kron


class Bimodule:
    def __init__(self, dim_v: int, left: list[Matrix], right: list[Matrix],
                 xi: Matrix | None = None):
        if dim_v < 0:
            raise InputError("module dimension must be >= 0")
        for m in list(left) + list(right):
            if m.rows != dim_v or m.cols != dim_v:
                raise InputError("action matrices must be dimV x dimV")
        if len(left) != len(right):
            raise InputError("left/right action counts differ")
        if not left:
            raise InputError("a bimodule needs one action per algebra basis element")
        self.dim_v = dim_v
        self.left = list(left)
        self.right = list(right)
        self.xi = xi
        if xi is not None and (xi.rows != dim_v or xi.cols != dim_v):
            raise InputError("xi must be dimV x dimV")

    @property
    def dim_a(self) -> int:
        return len(self.left)


def _cochain(actions: list[Matrix], dim_v: int) -> Matrix:
    """[a_0 | ... | a_{d-1}]: the map A (x) V -> V whose column i dimV + v is a_i(e_v)."""
    return Matrix(dim_v, len(actions) * dim_v, {(r, i * dim_v + c): x
                                                for i, m in enumerate(actions)
                                                for (r, c), x in m.entries.items()})


def _actions(cochain: Matrix, dim_a: int, dim_v: int) -> list[Matrix]:
    """The dimV x dimV blocks of a cochain A (x) V -> V, one per basis element."""
    blocks = [{} for _ in range(dim_a)]
    for (r, col), x in cochain.entries.items():
        i, c = divmod(col, dim_v)
        blocks[i][r, c] = x
    return [Matrix(dim_v, dim_v, b) for b in blocks]


def _swap(dim: int, dim_v: int = 1) -> Matrix:
    """sigma (x) Id_V on A (x) A (x) V: e_i (x) e_j (x) e_v -> e_j (x) e_i (x) e_v."""
    n = dim * dim * dim_v
    return Matrix(n, n, {((j * dim + i) * dim_v + v, (i * dim + j) * dim_v + v): 1
                         for i in range(dim) for j in range(dim) for v in range(dim_v)})


class ConditionViolation(NamedTuple):
    condition: str
    indices: tuple[int, ...]
    residual: tuple[tuple[Fraction, ...], ...]


class ProfileReport(NamedTuple):
    violations: tuple[ConditionViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


class BimoduleReport(NamedTuple):
    standard: ProfileReport

    @property
    def passed_standard(self) -> bool:
        return self.standard.passed


def _block_violations(a: Algebra, m: Bimodule, groups) -> tuple[ConditionViolation, ...]:
    """The nonzero per-element blocks of (arity, [(condition, residual cochain), ...]) groups."""
    return tuple(ConditionViolation(cond, idx, tuple(zip(*cols)))
                 for arity, named in groups
                 for idx, cond, cols in _nonzero_columns(named, a.dim, arity, m.dim_v))


def check_bimodule(a: Algebra, m: Bimodule) -> BimoduleReport:
    """Evaluate the three bimodule axioms."""
    if m.dim_a != a.dim:
        raise InputError("action count != algebra dimension")
    return BimoduleReport(ProfileReport(_block_violations(a, m, [(2, product_axioms(a, m))])))


def _require_bimodule(a: Algebra, m: Bimodule) -> None:
    """Refuse unless a is associative and m satisfies the three bimodule axioms."""
    _require_associative(a)
    first = next(iter(check_bimodule(a, m).standard.violations), None)
    if first is not None:
        raise InputError(f"not a bimodule: {first.condition} fails at {first.indices}")


def product_axioms(a: Algebra, m: Bimodule) -> list[tuple[str, Matrix]]:
    """The residual cochains A (x) A (x) V -> V of the bimodule axioms.

      left-action-multiplicative       L (mu (x) Id_V) - L (Id (x) L)
      right-action-antimultiplicative  R (mu (x) Id_V) - R (Id (x) R) S
      left-right-commute               L (Id (x) R) - R (Id (x) L) S
    """
    ida, swap = Matrix.identity(a.dim), _swap(a.dim, m.dim_v)
    left, right = _cochain(m.left, m.dim_v), _cochain(m.right, m.dim_v)
    id_left, id_right = kron([ida, left]), kron([ida, right])
    mu_id = kron([a.mu, Matrix.identity(m.dim_v)])
    return [("left-action-multiplicative", left.mul(mu_id).sub(left.mul(id_left))),
            ("right-action-antimultiplicative",
             right.mul(mu_id).sub(right.mul(id_right).mul(swap))),
            ("left-right-commute", left.mul(id_right).sub(right.mul(id_left).mul(swap)))]


def _operator_module(a: Algebra, p: Matrix, m: Bimodule) -> tuple[Matrix, Matrix]:
    """The cochains L and R of m, once m acts on a, p is an operator on a and m carries xi."""
    if m.dim_a != a.dim:
        raise InputError("action count != algebra dimension")
    _require_square(a, p)
    if m.xi is None:
        raise InputError("bimodule carries no xi")
    return _cochain(m.left, m.dim_v), _cochain(m.right, m.dim_v)


def check_rn_representation(a: Algebra, p: Matrix, m: Bimodule) -> ProfileReport:
    """Evaluate the four xi/P compatibility conditions on basis elements."""
    left, right = _operator_module(a, p, m)
    xi, ida, idv = m.xi, Matrix.identity(a.dim), Matrix.identity(m.dim_v)
    p_xi, p_id = kron([p, xi]), kron([p, idv])
    return ProfileReport(_block_violations(a, m, [
        (1, [("xi-left-intertwine", xi.mul(left).sub(left.mul(p_xi))),
             ("xi-right-intertwine", xi.mul(right).sub(right.mul(p_xi)))]),
        (2, [("left-operator-exchange", left.mul(kron([p, left])).sub(
                left.mul(kron([ida, left.mul(p_id)])))),
             ("right-operator-exchange", right.mul(kron([p, right])).sub(
                 right.mul(kron([ida, right.mul(p_id)])).mul(_swap(a.dim, m.dim_v))))])]))


def regular_representation(a: Algebra, p: Matrix) -> Bimodule:
    """V = A with L = mu and R = mu sigma, xi = P; nothing is validated."""
    _require_square(a, p)
    return Bimodule(a.dim, _actions(a.mu, a.dim, a.dim),
                    _actions(a.mu.mul(_swap(a.dim)), a.dim, a.dim), xi=p)


def induced_actions(a: Algebra, p: Matrix, m: Bimodule) -> tuple[list[Matrix], list[Matrix]]:
    """The twisted actions l'(a) = l(a)xi - xi l(a) + l(P(a)), same shape for r'.

    As cochains, L' = L (Id (x) xi) - xi L + L (P (x) Id_V), and R' the same way.
    """
    cochains = _operator_module(a, p, m)
    xi, ida, idv = m.xi, Matrix.identity(a.dim), Matrix.identity(m.dim_v)
    id_xi, p_id = kron([ida, xi]), kron([p, idv])
    return tuple(_actions(c.mul(id_xi).sub(xi.mul(c)).add(c.mul(p_id)), a.dim, m.dim_v)
                 for c in cochains)


def induce_representation(a: Algebra, p: Matrix, m: Bimodule) -> Bimodule:
    """Build the induced bimodule from the twisted actions.

    The input must already be a bimodule over an associative algebra
    (refused as _require_bimodule words it, naming the first failed axiom)
    and pass the xi conditions.  The result is not validated: the induced
    actions are a definition, so a caller that relies on their validity
    checks them with check_bimodule and check_rn_representation.
    """
    _require_bimodule(a, m)
    if not check_rn_representation(a, p, m).passed:
        raise InputError("input bimodule fails the xi compatibility conditions")
    return Bimodule(m.dim_v, *induced_actions(a, p, m), xi=m.xi)
