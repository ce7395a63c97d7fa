"""Structure-constant algebras and operator identity checks.

An algebra of dimension n is given by its product mu: A (x) A -> A, stored
once as the sparse n x n^2 Matrix whose column i n + j holds the
coordinates of e_i * e_j, so e_i * e_j = sum_k mu[k][i n + j] e_k.  The
dense cube c[i][j][k] = mu[k][i n + j] is a read-only view built on first
use.  Linear operators use the column convention P(e_j) = sum_i M[i][j] e_i,
so applying the matrix to a coordinate vector is the ordinary
matrix-vector product.

Every identity is bilinear in its two arguments, so its residual over all
ordered basis pairs is one cochain in mu's layout: a dim x dim^2 Matrix whose
column i n + j is the exact residual at (e_i, e_j).  product(f, g) = mu(f (x) g)
is the bilinear map those checks are built from; a nonzero column is a
violation.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

from .errors import InputError
from .exactlin import Entry, Matrix, kron, kron_sum, parse_q, qstr

REYNOLDS = "reynolds"
NIJENHUIS = "nijenhuis"
REYNOLDS_NIJENHUIS = "reynolds_nijenhuis"
ROTA_BAXTER = "rota_baxter"
MODIFIED_ROTA_BAXTER = "modified_rota_baxter"

_WEIGHTED = {ROTA_BAXTER, MODIFIED_ROTA_BAXTER}
_KNOWN = {REYNOLDS, NIJENHUIS, REYNOLDS_NIJENHUIS} | _WEIGHTED


class OperatorKind:
    """One of the five operator identity classes; weighted kinds carry an exact weight."""

    __slots__ = ("name", "weight")

    def __init__(self, name: str, weight=None):
        if name not in _KNOWN:
            raise InputError(f"unknown operator kind {name!r}")
        if name in _WEIGHTED:
            if weight is None:
                raise InputError(f"kind {name} requires a weight")
            weight = parse_q(weight)
        elif weight is not None:
            raise InputError(f"kind {name} does not take a weight")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "weight", weight)

    def __setattr__(self, attr, *_):
        raise AttributeError(f"OperatorKind is immutable: cannot set or delete {attr!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return OperatorKind, (self.name, self.weight)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name, self.weight) == (other.name, other.weight)
        return NotImplemented

    def __hash__(self):
        return hash((self.name, self.weight))

    def __repr__(self):
        return f"OperatorKind(name={self.name!r}, weight={self.weight!r})"

    def label(self) -> str:
        if self.name in _WEIGHTED:
            return f"{self.name}({qstr(self.weight)})"
        return self.name


KIND_REYNOLDS = OperatorKind(REYNOLDS)
KIND_NIJENHUIS = OperatorKind(NIJENHUIS)
KIND_RN = OperatorKind(REYNOLDS_NIJENHUIS)


def rota_baxter(weight) -> OperatorKind:
    return OperatorKind(ROTA_BAXTER, weight)


def modified_rota_baxter(weight) -> OperatorKind:
    return OperatorKind(MODIFIED_ROTA_BAXTER, weight)


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
    """Finite-dimensional algebra over Q given by its product matrix mu."""

    def __init__(self, dim: int, mu: Matrix, basis: list[str] | None = None,
                 name: str | None = None):
        if dim < 1:
            raise InputError("dimension must be >= 1")
        if not isinstance(mu, Matrix) or (mu.rows, mu.cols) != (dim, dim * dim):
            raise InputError("product matrix must be dim x dim^2")
        if basis is not None and len(basis) != dim:
            raise InputError("basis label count != dim")
        self.dim = dim
        self.mu = mu
        self.basis = list(basis) if basis else [f"e{i}" for i in range(dim)]
        self.name = name
        self._assoc: bool | None = None

    @classmethod
    def from_sparse(cls, dim: int, triples, basis=None, name=None) -> "Algebra":
        """triples: iterable of (i, j, k, coeff) with e_i*e_j having coeff on e_k.

        A repeated (i, j, k) keeps its last coefficient.
        """
        entries = {}
        for i, j, k, v in triples:
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise InputError(f"index out of range in ({i},{j},{k})")
            entries[k, i * dim + j] = parse_q(v)
        return cls(dim, Matrix(dim, dim * dim, entries), basis=basis, name=name)

    @functools.cached_property
    def c(self) -> tuple:
        """Dense read-only view: c[i][j][k] is the e_k coordinate of e_i*e_j."""
        d = self.dim
        return tuple(tuple(tuple(self.mu.at(k, i * d + j) for k in range(d))
                           for j in range(d)) for i in range(d))

    def triples(self) -> list[tuple[int, int, int, Entry]]:
        """The nonzero structure constants as (i, j, k, value) in (i, j, k) order."""
        return [(*divmod(ij, self.dim), k, v)
                for (k, ij), v in sorted(self.mu.entries.items(), key=lambda e: e[0][::-1])]

    def multiply(self, x: list[Fraction], y: list[Fraction]) -> list[Fraction]:
        if len(x) != self.dim or len(y) != self.dim:
            raise InputError("vector length != algebra dimension")
        return self.mu.apply([u * v for u in x for v in y])

    def product(self, f: Matrix, g: Matrix) -> Matrix:
        """mu(f (x) g), whose column i g.cols + j is f(e_i) g(e_j); f (x) g itself is never built."""
        if f.rows != self.dim or g.rows != self.dim:
            raise InputError("map rows != algebra dimension")
        left = self.mu.mul(kron([f, Matrix.identity(self.dim)]))
        return left.mul(kron([Matrix.identity(f.cols), g]))

    def is_associative(self) -> bool:
        if self._assoc is None:
            self._assoc = check_associative(self).passed
        return self._assoc

    def __repr__(self):
        tag = self.name or f"dim{self.dim}"
        return f"Algebra({tag})"


class AssociativityViolation(NamedTuple):
    i: int
    j: int
    k: int
    residual: tuple[Fraction, ...]


class AssociativityReport(NamedTuple):
    dim: int
    violations: tuple[AssociativityViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _nonzero_columns(named, dim: int, arity: int, width: int = 1):
    """(indices, name, columns) of each nonzero block of the (name, Matrix) pairs.

    The pairs share one layout of blocks of width columns: block a_1 ... a_arity in
    base dim holds the residual at that basis tuple.  Blocks come in order, and
    within a block the pairs in the order of named; columns are the block's columns.
    """
    out = []
    for b in sorted({col // width for _, m in named for _, col in m.entries}):
        indices = tuple(b // dim ** k % dim for k in range(arity)[::-1])
        for name, m in named:
            cols = [tuple(m.col_list(col)) for col in range(b * width, (b + 1) * width)]
            if any(map(any, cols)):
                out.append((indices, name, cols))
    return out


def associator(a: Algebra) -> Matrix:
    """mu (mu (x) Id - Id (x) mu): column (i dim + j) dim + k is (e_i e_j) e_k - e_i (e_j e_k)."""
    ident = Matrix.identity(a.dim)
    return a.mu.mul(kron_sum([(1, [a.mu, ident]), (-1, [ident, a.mu])]))


def check_associative(a: Algebra) -> AssociativityReport:
    """Evaluate the associator on all ordered basis triples; a nonzero column is a violation."""
    return AssociativityReport(a.dim, tuple(
        AssociativityViolation(*ijk, res) for ijk, _, (res,) in _nonzero_columns(
            [(None, associator(a))], a.dim, 3)))


class IdentityViolation(NamedTuple):
    i: int
    j: int
    identity: str
    residual: tuple[Fraction, ...]


class IdentityReport(NamedTuple):
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


def star(mul, apply, x, y, px, py):
    """The deformed product x*y = xP(y) + P(x)y - P(xy), with px = P(x), py = P(y)."""
    return mul(x, py).add(mul(px, y)).sub(apply(mul(x, y)))


def identity_residual(identity: str, weight, mul, apply, x, y, px, py):
    """lhs - rhs of one identity at (x, y), with px = P(x) and py = P(y).

    The values mul and apply return have add, sub and scale.  On matrices,
    with x = y = Id (or the inclusion A -> A[t]), mul = Algebra.product and
    apply = P.mul, it is the residual cochain of all basis pairs at once;
    polysys feeds it one basis pair of polynomial vectors at a time:

      nijenhuis            P(x)P(y) = P(x*y)
      reynolds             P(x)P(y) = P(xP(y) + P(x)y - P(x)P(y))
      rota_baxter          P(x)P(y) = P(xP(y) + P(x)y + weight xy)
      modified_rota_baxter P(xy)    = xP(y) + P(x)y + weight xy
    """
    if identity == NIJENHUIS:
        return mul(px, py).sub(apply(star(mul, apply, x, y, px, py)))
    cross = mul(x, py).add(mul(px, y))
    if identity == REYNOLDS:
        lhs = mul(px, py)
        return lhs.sub(apply(cross.sub(lhs)))
    xy = mul(x, y)
    weighted = cross.add(xy.scale(weight))
    if identity == ROTA_BAXTER:
        return mul(px, py).sub(apply(weighted))
    if identity == MODIFIED_ROTA_BAXTER:
        return apply(xy).sub(weighted)
    raise InputError(f"unknown identity {identity!r}")  # pragma: no cover


def _component_identities(kind: OperatorKind) -> list[str]:
    if kind.name == REYNOLDS_NIJENHUIS:
        return [NIJENHUIS, REYNOLDS]
    return [kind.name]


def check_operator(a: Algebra, p: Matrix, kind: OperatorKind) -> IdentityReport:
    """Test the identity for `kind` on all ordered basis pairs; exact residuals."""
    _require_square(a, p)
    _require_associative(a)
    ident = Matrix.identity(a.dim)
    residuals = [(name, identity_residual(name, kind.weight, a.product, p.mul, ident, ident, p, p))
                 for name in _component_identities(kind)]
    return IdentityReport(kind, a.dim, tuple(IdentityViolation(*ij, name, res)
                                             for ij, name, (res,) in _nonzero_columns(
                                                 residuals, a.dim, 2)))


def star_product(a: Algebra, p: Matrix) -> Algebra:
    """Deformed product a*b = aP(b) + P(a)b - P(ab); associativity not assumed."""
    _require_square(a, p)
    _require_associative(a)
    ident = Matrix.identity(a.dim)
    return Algebra(a.dim, star(a.product, p.mul, ident, ident, p, p), basis=a.basis,
                   name=f"star({a.name})" if a.name else None)


class MorphismReport(NamedTuple):
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
    """Check phi mu_src = mu_dst (phi (x) phi) on basis pairs and p_dst . phi = phi . p_src."""
    if src.dim != phi.cols or dst.dim != phi.rows:
        raise InputError("morphism matrix shape does not match the algebras")
    _require_square(src, p_src)
    _require_square(dst, p_dst)
    product = phi.mul(src.mu).sub(dst.product(phi, phi))
    violations = tuple((*ij, res) for ij, _, (res,) in _nonzero_columns(
        [(None, product)], src.dim, 2))
    diff = p_dst.mul(phi).sub(phi.mul(p_src))
    return MorphismReport(violations, tuple(tuple(r) for r in diff.to_rows()))


class SquareCase(NamedTuple):
    condition: str
    equivalent_kind: OperatorKind
    is_rn: bool
    other_holds: bool

    @property
    def agree(self) -> bool:
        return self.is_rn == self.other_holds


class SquareClassification(NamedTuple):
    square_zero: bool
    idempotent: bool
    involutive: bool
    anti_involutive: bool
    cases: tuple[SquareCase, ...] = ()


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
