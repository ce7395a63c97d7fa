"""Structure-constant algebras and operator identity checks.

An algebra of dimension n is given by rational structure constants c with
e_i * e_j = sum_k c[i][j][k] e_k.  Linear operators use the column
convention P(e_j) = sum_i M[i][j] e_i, so applying the matrix to a
coordinate vector is the ordinary matrix-vector product.

Identity checks evaluate on every ordered basis pair and report exact
residual vectors; bilinearity makes basis pairs sufficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError
from .exactlin import Matrix, basis_matrix, parse_q

REYNOLDS = "reynolds"
NIJENHUIS = "nijenhuis"
REYNOLDS_NIJENHUIS = "reynolds_nijenhuis"
ROTA_BAXTER = "rota_baxter"
MODIFIED_ROTA_BAXTER = "modified_rota_baxter"

_WEIGHTED = {ROTA_BAXTER, MODIFIED_ROTA_BAXTER}
_KNOWN = {REYNOLDS, NIJENHUIS, REYNOLDS_NIJENHUIS} | _WEIGHTED


@dataclass(frozen=True)
class OperatorKind:
    """One of the five operator identity classes; weighted kinds carry a weight."""

    name: str
    weight: Fraction | None = None

    def __post_init__(self):
        if self.name not in _KNOWN:
            raise InputError(f"unknown operator kind {self.name!r}")
        if self.name in _WEIGHTED:
            if self.weight is None:
                raise InputError(f"kind {self.name} requires a weight")
        elif self.weight is not None:
            raise InputError(f"kind {self.name} does not take a weight")

    def label(self) -> str:
        if self.name in _WEIGHTED:
            from .exactlin import qstr

            return f"{self.name}({qstr(self.weight)})"
        return self.name


KIND_REYNOLDS = OperatorKind(REYNOLDS)
KIND_NIJENHUIS = OperatorKind(NIJENHUIS)
KIND_RN = OperatorKind(REYNOLDS_NIJENHUIS)


def rota_baxter(weight) -> OperatorKind:
    return OperatorKind(ROTA_BAXTER, Fraction(weight))


def modified_rota_baxter(weight) -> OperatorKind:
    return OperatorKind(MODIFIED_ROTA_BAXTER, Fraction(weight))


def parse_kind(text: str) -> OperatorKind:
    """Parse CLI kind syntax: rn | reynolds | nijenhuis | rb:W | mrb:W."""
    t = text.strip().lower()
    if t == "rn":
        return KIND_RN
    if t == REYNOLDS:
        return KIND_REYNOLDS
    if t == NIJENHUIS:
        return KIND_NIJENHUIS
    if t.startswith("rb:"):
        return rota_baxter(parse_q(t[3:]))
    if t.startswith("mrb:"):
        return modified_rota_baxter(parse_q(t[4:]))
    raise InputError(f"unknown operator kind {text!r}")


class Algebra:
    """Finite-dimensional algebra over Q given by structure constants."""

    def __init__(self, dim: int, c, basis: list[str] | None = None, name: str | None = None):
        if dim < 1:
            raise InputError("dimension must be >= 1")
        c = tuple(tuple(tuple(Fraction(x) for x in row) for row in plane) for plane in c)
        if len(c) != dim or any(len(p) != dim or any(len(r) != dim for r in p) for p in c):
            raise InputError("structure constants must be dim x dim x dim")
        if basis is not None and len(basis) != dim:
            raise InputError("basis label count != dim")
        self.dim = dim
        self.c = c
        self.basis = list(basis) if basis else [f"e{i}" for i in range(dim)]
        self.name = name
        self._assoc: bool | None = None

    @classmethod
    def from_sparse(cls, dim: int, triples, basis=None, name=None) -> "Algebra":
        """triples: iterable of (i, j, k, coeff) with e_i*e_j having coeff on e_k."""
        c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for i, j, k, v in triples:
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise InputError(f"index out of range in ({i},{j},{k})")
            c[i][j][k] = parse_q(v)
        return cls(dim, c, basis=basis, name=name)

    def multiply(self, x: list[Fraction], y: list[Fraction]) -> list[Fraction]:
        if len(x) != self.dim or len(y) != self.dim:
            raise InputError("vector length != algebra dimension")
        out = [Fraction(0)] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            ci = self.c[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                f = xi * yj
                for k, cv in enumerate(ci[j]):
                    if cv:
                        out[k] += f * cv
        return out

    def basis_vector(self, i: int) -> list[Fraction]:
        v = [Fraction(0)] * self.dim
        v[i] = Fraction(1)
        return v

    def left_mult_matrix(self, i: int) -> Matrix:
        # column j holds the coordinates of e_i * e_j
        return basis_matrix([self.c[i][j] for j in range(self.dim)], self.dim)

    def right_mult_matrix(self, i: int) -> Matrix:
        # column j holds the coordinates of e_j * e_i
        return basis_matrix([self.c[j][i] for j in range(self.dim)], self.dim)

    def is_associative(self) -> bool:
        if self._assoc is None:
            self._assoc = check_associative(self).passed
        return self._assoc

    def __repr__(self):
        tag = self.name or f"dim{self.dim}"
        return f"Algebra({tag})"


@dataclass(frozen=True)
class AssociativityViolation:
    i: int
    j: int
    k: int
    residual: tuple[Fraction, ...]


@dataclass(frozen=True)
class AssociativityReport:
    dim: int
    violations: tuple[AssociativityViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def check_associative(a: Algebra) -> AssociativityReport:
    """Evaluate (e_i e_j) e_k - e_i (e_j e_k) on all ordered basis triples."""
    violations = []
    basis = [a.basis_vector(i) for i in range(a.dim)]
    for i in range(a.dim):
        for j in range(a.dim):
            ij = a.multiply(basis[i], basis[j])
            for k in range(a.dim):
                left = a.multiply(ij, basis[k])
                right = a.multiply(basis[i], a.multiply(basis[j], basis[k]))
                res = tuple(l - r for l, r in zip(left, right))
                if any(res):
                    violations.append(AssociativityViolation(i, j, k, res))
    return AssociativityReport(a.dim, tuple(violations))


@dataclass(frozen=True)
class IdentityViolation:
    i: int
    j: int
    identity: str
    residual: tuple[Fraction, ...]


@dataclass(frozen=True)
class IdentityReport:
    kind: OperatorKind
    dim: int
    violations: tuple[IdentityViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _require_square(a: Algebra, p: Matrix) -> None:
    if p.rows != a.dim or p.cols != a.dim:
        raise InputError(f"operator is {p.rows}x{p.cols}, algebra dimension is {a.dim}")


def _require_associative(a: Algebra) -> None:
    if not a.is_associative():
        raise InputError("algebra is not associative")


def _vadd(x, y):
    return [u + v for u, v in zip(x, y)]


def _vsub(x, y):
    return [u - v for u, v in zip(x, y)]


def _cross(mul, x, y, px, py) -> list:
    # xP(y) + P(x)y, the part all four identities share
    return _vadd(mul(x, py), mul(px, y))


def star(mul, apply, x, y, px, py) -> list:
    """The deformed product x*y = xP(y) + P(x)y - P(xy), with px = P(x), py = P(y)."""
    return _vsub(_cross(mul, x, y, px, py), apply(mul(x, y)))


def identity_residual(identity: str, weight, mul, apply, x, y, px, py) -> list:
    """lhs - rhs of one identity at (x, y), with px = P(x) and py = P(y).

    mul and apply act on coordinate vectors whose entries support +, - and
    *, so the one definition serves rationals and polynomials alike:

      nijenhuis            P(x)P(y) = P(x*y)
      reynolds             P(x)P(y) = P(xP(y) + P(x)y - P(x)P(y))
      rota_baxter          P(x)P(y) = P(xP(y) + P(x)y + weight xy)
      modified_rota_baxter P(xy)    = xP(y) + P(x)y + weight xy
    """
    if identity == NIJENHUIS:
        return _vsub(mul(px, py), apply(star(mul, apply, x, y, px, py)))
    cross = _cross(mul, x, y, px, py)
    if identity == REYNOLDS:
        lhs = mul(px, py)
        return _vsub(lhs, apply(_vsub(cross, lhs)))
    xy = mul(x, y)
    weighted = _vadd(cross, [weight * t for t in xy])
    if identity == ROTA_BAXTER:
        return _vsub(mul(px, py), apply(weighted))
    if identity == MODIFIED_ROTA_BAXTER:
        return _vsub(apply(xy), weighted)
    raise InputError(f"unknown identity {identity!r}")  # pragma: no cover


def _component_identities(kind: OperatorKind) -> list[str]:
    if kind.name == REYNOLDS_NIJENHUIS:
        return [NIJENHUIS, REYNOLDS]
    return [kind.name]


def check_operator(a: Algebra, p: Matrix, kind: OperatorKind) -> IdentityReport:
    """Test the identity for `kind` on all ordered basis pairs; exact residuals."""
    _require_square(a, p)
    _require_associative(a)
    violations = []
    basis = [a.basis_vector(i) for i in range(a.dim)]
    images = [p.apply(x) for x in basis]
    for i in range(a.dim):
        for j in range(a.dim):
            for ident in _component_identities(kind):
                res = identity_residual(ident, kind.weight, a.multiply, p.apply,
                                        basis[i], basis[j], images[i], images[j])
                if any(res):
                    violations.append(IdentityViolation(i, j, ident, tuple(res)))
    return IdentityReport(kind, a.dim, tuple(violations))


def star_product(a: Algebra, p: Matrix) -> Algebra:
    """Deformed product a*b = aP(b) + P(a)b - P(ab); associativity not assumed."""
    _require_square(a, p)
    _require_associative(a)
    basis = [a.basis_vector(i) for i in range(a.dim)]
    images = [p.apply(x) for x in basis]
    c = [[star(a.multiply, p.apply, basis[i], basis[j], images[i], images[j])
          for j in range(a.dim)] for i in range(a.dim)]
    return Algebra(a.dim, c, basis=a.basis,
                   name=f"star({a.name})" if a.name else None)


@dataclass(frozen=True)
class MorphismReport:
    product_violations: tuple[tuple[int, int, tuple[Fraction, ...]], ...]
    intertwine_residual: tuple[tuple[Fraction, ...], ...]

    @property
    def product_ok(self) -> bool:
        return not self.product_violations

    @property
    def intertwines(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.intertwine_residual)

    @property
    def passed(self) -> bool:
        return self.product_ok and self.intertwines


def check_morphism(src: Algebra, dst: Algebra, phi: Matrix,
                   p_src: Matrix, p_dst: Matrix) -> MorphismReport:
    """Check phi(xy) = phi(x)phi(y) on basis pairs and p_dst . phi = phi . p_src."""
    if src.dim != phi.cols or dst.dim != phi.rows:
        raise InputError("morphism matrix shape does not match the algebras")
    _require_square(src, p_src)
    _require_square(dst, p_dst)
    violations = []
    basis = [src.basis_vector(i) for i in range(src.dim)]
    for i in range(src.dim):
        for j in range(src.dim):
            lhs = phi.apply(src.multiply(basis[i], basis[j]))
            rhs = dst.multiply(phi.apply(basis[i]), phi.apply(basis[j]))
            res = tuple(l - r for l, r in zip(lhs, rhs))
            if any(res):
                violations.append((i, j, res))
    diff = p_dst.mul(phi).sub(phi.mul(p_src))
    return MorphismReport(tuple(violations), tuple(tuple(r) for r in diff.to_rows()))


@dataclass(frozen=True)
class SquareCase:
    condition: str
    equivalent_kind: OperatorKind
    is_rn: bool
    other_holds: bool

    @property
    def agree(self) -> bool:
        return self.is_rn == self.other_holds


@dataclass(frozen=True)
class SquareClassification:
    square_zero: bool
    idempotent: bool
    involutive: bool
    anti_involutive: bool
    cases: tuple[SquareCase, ...] = field(default=())


def classify_square(a: Algebra, p: Matrix) -> SquareClassification:
    """Detect P^2 in {0, P, Id, -Id} and evaluate the matching equivalence claims.

    For each detected case the claimed equivalent identity is:
    P^2=0 -> Rota-Baxter weight 0; P^2=P -> weight -1; P^2=Id -> modified
    weight -1; P^2=-Id -> modified weight +1.  Both sides are evaluated and
    an agreement flag recorded; nothing is assumed.
    """
    _require_square(a, p)
    _require_associative(a)
    p2 = p.mul(p)
    ident = Matrix.identity(a.dim)
    flags = {
        "square_zero": p2.is_zero(),
        "idempotent": p2.eq(p),
        "involutive": p2.eq(ident),
        "anti_involutive": p2.eq(ident.scale(-1)),
    }
    pairings = [
        ("square_zero", rota_baxter(0)),
        ("idempotent", rota_baxter(-1)),
        ("involutive", modified_rota_baxter(-1)),
        ("anti_involutive", modified_rota_baxter(1)),
    ]
    cases = []
    is_rn = None
    for cond, other_kind in pairings:
        if flags[cond]:
            if is_rn is None:
                is_rn = check_operator(a, p, KIND_RN).passed
            other = check_operator(a, p, other_kind).passed
            cases.append(SquareCase(cond, other_kind, is_rn, other))
    return SquareClassification(flags["square_zero"], flags["idempotent"],
                                flags["involutive"], flags["anti_involutive"],
                                tuple(cases))
