"""Multivariate polynomial systems for operator identities.

Unknowns are the dim^2 matrix entries, named P_r_c in row-major canonical
order.  Monomials are exponent tuples compared in graded reverse
lexicographic order (grevlex) unless stated otherwise.  Every emitted
polynomial is normalized: integer coefficients with content 1 and a
positive leading coefficient, so zero sets are unchanged and fixtures are
byte-reproducible.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, le, sub

from .algebra import (Algebra, OperatorKind, _component_identities,
                      identity_residual)
from .errors import BudgetError, InputError, resolve_budget
from .exactlin import Matrix

ENUM_PRIMES = (2, 3, 5)
ENUM_CAP = 10 ** 8


def grevlex_key(mono: tuple[int, ...]):
    return (sum(mono), tuple(-e for e in reversed(mono)))


class MPoly:
    """Sparse polynomial over Q: dict from exponent tuple to coefficient, never changed."""

    __slots__ = ("nvars", "terms", "_lm")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms = {m: c for m, c in (terms or {}).items() if c}
        self._lm = None

    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c) -> "MPoly":
        c = Fraction(c)
        return cls(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def var(cls, nvars: int, i: int, power: int = 1) -> "MPoly":
        mono = tuple(power if j == i else 0 for j in range(nvars))
        return cls(nvars, {mono: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MPoly") -> "MPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return MPoly(self.nvars, out)

    def __sub__(self, other: "MPoly") -> "MPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) - c
        return MPoly(self.nvars, out)

    def __neg__(self) -> "MPoly":
        return MPoly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "MPoly") -> "MPoly":
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return MPoly(self.nvars, out)

    def scale(self, c) -> "MPoly":
        c = Fraction(c)
        if not c:
            return MPoly(self.nvars)
        return MPoly(self.nvars, {m: c * v for m, v in self.terms.items()})

    def mul_term(self, mono: tuple[int, ...], coeff: Fraction) -> "MPoly":
        if not coeff:
            return MPoly(self.nvars)
        return MPoly(self.nvars, {tuple(a + b for a, b in zip(m, mono)): c * coeff
                                  for m, c in self.terms.items()})

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def leading_monomial(self) -> tuple[int, ...]:
        if self._lm is None:
            if not self.terms:
                raise InputError("zero polynomial has no leading monomial")
            self._lm = max(self.terms, key=grevlex_key)
        return self._lm

    def leading_coeff(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def monic(self) -> "MPoly":
        if self.is_zero():
            return self
        return self.scale(1 / self.leading_coeff())

    def normalized(self) -> "MPoly":
        """Integer coefficients, content 1, positive leading coefficient."""
        if self.is_zero():
            return self
        den = lcm(*(c.denominator for c in self.terms.values()))
        num = gcd(*(c.numerator for c in self.terms.values()))
        factor = Fraction(den, num)
        if self.leading_coeff() < 0:
            factor = -factor
        return self.scale(factor)

    def evaluate(self, point: list[Fraction]) -> Fraction:
        if len(point) != self.nvars:
            raise InputError("evaluation point has wrong arity")
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for i, e in enumerate(m):
                if e:
                    v *= point[i] ** e
            total += v
        return total

    def compose(self, images: list["MPoly"], target_nvars: int) -> "MPoly":
        """Substitute images[i] for variable i; result lives in the target space."""
        if len(images) != self.nvars:
            raise InputError("one image required per variable")
        out = MPoly(target_nvars)
        for m, c in self.terms.items():
            term = MPoly.const(target_nvars, c)
            for i, e in enumerate(m):
                for _ in range(e):
                    term = term * images[i]
            out = out + term
        return out

    def key(self):
        return tuple(sorted(((m, (c.numerator, c.denominator))
                             for m, c in self.terms.items()),
                            key=lambda t: grevlex_key(t[0]), reverse=True))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def __eq__(self, other):
        return isinstance(other, MPoly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset((m, c) for m, c in self.terms.items())))

    def format(self, names: list[str]) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = [names[i] if e == 1 else f"{names[i]}^{e}"
                       for i, e in enumerate(m) if e]
            body = "*".join(factors)
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        text = parts[0]
        for p in parts[1:]:
            text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return text

    def __repr__(self):
        return f"MPoly({self.nvars}, {dict(self.terms)!r})"


def entry_variables(dim: int) -> list[str]:
    return [f"P_{r}_{c}" for r in range(dim) for c in range(dim)]


@dataclass(frozen=True)
class SystemPolynomial:
    i: int
    j: int
    coord: int
    identity: str
    poly: MPoly


class PolySystem:
    """Identity residuals, one polynomial per (basis pair, identity, coordinate)."""

    def __init__(self, dim: int, kind: OperatorKind, entries: list[SystemPolynomial]):
        self.dim = dim
        self.kind = kind
        self.variables = entry_variables(dim)
        self.entries = tuple(entries)

    def polynomials(self) -> list[MPoly]:
        return [e.poly for e in self.entries]

    def holds_at(self, m: Matrix) -> bool:
        point = _point(m)
        return all(e.poly.evaluate(point) == 0 for e in self.entries)

    def max_total_degree(self) -> int:
        return max((e.poly.total_degree() for e in self.entries), default=0)

    def to_dict(self) -> dict:
        from .exactlin import qstr

        return {
            "variables": list(self.variables),
            "kind": self.kind.label(),
            "polynomials": [
                {
                    "pair": [e.i, e.j],
                    "coord": e.coord,
                    "identity": e.identity,
                    "terms": [[list(m), qstr(c)] for m, c in e.poly.sorted_terms()],
                }
                for e in self.entries
            ],
        }


def _point(m: Matrix) -> list[Fraction]:
    """The entries of m in the row-major order of the unknowns P_r_c."""
    return [x for row in m.to_rows() for x in row]


def _sym_columns(dim: int) -> list[list[MPoly]]:
    n = dim * dim
    return [[MPoly.var(n, r * dim + c) for r in range(dim)] for c in range(dim)]


def _sym_apply(cols: list[list[MPoly]], vec: list[MPoly]) -> list[MPoly]:
    dim = len(cols)
    n = vec[0].nvars
    out = [MPoly.zero(n) for _ in range(dim)]
    for c, x in enumerate(vec):
        if x.is_zero():
            continue
        for r in range(dim):
            out[r] = out[r] + cols[c][r] * x
    return out


def _sym_mult(a: Algebra, x: list[MPoly], y: list[MPoly]) -> list[MPoly]:
    n = x[0].nvars
    out = [MPoly.zero(n) for _ in range(a.dim)]
    for i, xi in enumerate(x):
        if xi.is_zero():
            continue
        for j, yj in enumerate(y):
            if yj.is_zero():
                continue
            prod = xi * yj
            for k in range(a.dim):
                cv = a.c[i][j][k]
                if cv:
                    out[k] = out[k] + prod.scale(cv)
    return out


def _raw_residuals(a: Algebra, kind: OperatorKind) -> list[SystemPolynomial]:
    """Residuals (lhs - rhs) of the identity over symbolic entries, as computed.

    Order is pair-major (i, j lexicographic), then identity, then output
    coordinate.  Coefficients are those the structure constants and the
    weight give, neither normalized nor pruned.
    """
    if not a.is_associative():
        raise InputError("algebra is not associative")
    dim = a.dim
    n = dim * dim
    cols = _sym_columns(dim)
    basis = [[MPoly.const(n, 1 if r == i else 0) for r in range(dim)] for i in range(dim)]
    mul = functools.partial(_sym_mult, a)
    apply = functools.partial(_sym_apply, cols)
    weight = MPoly.const(n, kind.weight or 0)
    return [SystemPolynomial(i, j, k, ident, poly)
            for i in range(dim) for j in range(dim)
            for ident in _component_identities(kind)
            for k, poly in enumerate(identity_residual(ident, weight, mul, apply,
                                                       basis[i], basis[j], cols[i], cols[j]))]


def build_identity_system(a: Algebra, kind: OperatorKind) -> PolySystem:
    """Normalized polynomial residuals of the identity; zero ones are pruned."""
    entries = []
    for e in _raw_residuals(a, kind):
        poly = e.poly.normalized()
        if not poly.is_zero():
            entries.append(SystemPolynomial(e.i, e.j, e.coord, e.identity, poly))
    return PolySystem(a.dim, kind, entries)


class SymbolicMatrix:
    """Matrix whose entries are polynomials in a separate parameter set."""

    def __init__(self, dim: int, params: list[str], entries: list[list[MPoly]]):
        self.dim = dim
        self.params = list(params)
        nv = len(self.params)
        if len(entries) != dim or any(len(r) != dim for r in entries):
            raise InputError("entries must be dim x dim")
        for row in entries:
            for p in row:
                if p.nvars != nv:
                    raise InputError("entry arity != parameter count")
        self.entries = [list(r) for r in entries]

    @classmethod
    def build(cls, dim: int, params: list[str], assign: dict) -> "SymbolicMatrix":
        """assign maps (row, col) to a parameter name, a rational, or an MPoly."""
        nv = len(params)
        rows = [[MPoly.zero(nv) for _ in range(dim)] for _ in range(dim)]
        for (r, c), value in assign.items():
            if isinstance(value, MPoly):
                rows[r][c] = value
            elif isinstance(value, str):
                rows[r][c] = MPoly.var(nv, params.index(value))
            else:
                rows[r][c] = MPoly.const(nv, value)
        return cls(dim, params, rows)

    def instantiate(self, point: list[Fraction]) -> Matrix:
        point = [Fraction(x) for x in point]
        return Matrix.from_rows([[p.evaluate(point) for p in row] for row in self.entries])


@dataclass(frozen=True)
class FamilyReport:
    residuals: tuple[MPoly, ...]

    @property
    def passed(self) -> bool:
        return not self.residuals


def verify_family(system: PolySystem, family: SymbolicMatrix) -> FamilyReport:
    """Substitute a parametrized matrix; returns nonzero residuals in the parameters."""
    if family.dim != system.dim:
        raise InputError("family dimension != system dimension")
    dim = system.dim
    nv = len(family.params)
    images = [family.entries[r][c] for r in range(dim) for c in range(dim)]
    seen = {}
    for e in system.entries:
        res = e.poly.compose(images, nv).normalized()
        if not res.is_zero():
            seen[res.key()] = res
    residuals = tuple(seen[k] for k in sorted(seen))
    return FamilyReport(residuals)


# ---------------------------------------------------------------------------
# Groebner bases (Buchberger, grevlex, normal selection strategy)
# ---------------------------------------------------------------------------


@dataclass
class GroebnerResult:
    complete: bool
    basis: list[MPoly] | None
    pairs_processed: int  # S-pairs reduced; the budget counts these
    pairs_skipped: int  # S-pairs the coprime and chain criteria settled unreduced


def _divides(m1: tuple[int, ...], m2: tuple[int, ...]) -> bool:
    return all(map(le, m1, m2))


def _mono_lcm(m1, m2):
    return tuple(map(max, m1, m2))


def _mono_div(m1, m2):
    return tuple(map(sub, m1, m2))


def reduce_poly(f: MPoly, basis: list[MPoly]) -> MPoly:
    """Full normal form of f modulo basis (leading terms and tails)."""
    lead = [(g.leading_monomial(), g.leading_coeff(), g) for g in basis if not g.is_zero()]
    work = dict(f.terms)
    # a heap of (-degree, reversed monomial): its least entry is the grevlex-largest
    order = [(-sum(m), m[::-1]) for m in work]
    heapq.heapify(order)
    remainder = {}
    while order:
        lm = heapq.heappop(order)[1][::-1]
        lc = work.pop(lm, 0)
        if not lc:
            continue
        hit = next(((gm, gc, g) for gm, gc, g in lead if _divides(gm, lm)), None)
        if hit is None:
            remainder[lm] = lc
            continue
        gm, gc, g = hit
        q, c = _mono_div(lm, gm), lc / gc
        for m, v in g.terms.items():
            if m != gm:
                m = tuple(map(add, m, q))
                if m not in work:
                    heapq.heappush(order, (-sum(m), m[::-1]))
                work[m] = work.get(m, 0) - c * v
    return MPoly(f.nvars, remainder)


def s_polynomial(f: MPoly, g: MPoly) -> MPoly:
    fm, gm = f.leading_monomial(), g.leading_monomial()
    l = _mono_lcm(fm, gm)
    return (f.mul_term(_mono_div(l, fm), 1 / f.leading_coeff())
            - g.mul_term(_mono_div(l, gm), 1 / g.leading_coeff()))


def groebner_basis(polys: list[MPoly], budget: int | None = None) -> GroebnerResult:
    """Reduced grevlex Groebner basis via Buchberger.

    Pair selection is the normal strategy: least lcm total degree first,
    ties broken lexicographically on the pair of leading monomials.  Pairs
    with coprime leading monomials, and pairs Buchberger's chain criterion
    settles (Cox-Little-O'Shea, ch. 2 par. 10), are skipped unreduced.  The
    budget caps the S-pairs reduced; when it runs out the result is marked
    incomplete and carries no basis, never a partial one.
    """
    cap = resolve_budget(budget)
    basis: list[MPoly] = []
    lead: list[tuple[int, ...]] = []  # leading monomial of each member
    heap: list = []  # (deg lcm, lm_i, lm_j, i, j, lcm) for each pair i < j
    pending: set[tuple[int, int]] = set()
    processed = skipped = 0

    def insert(g: MPoly) -> None:
        k, gm = len(basis), g.leading_monomial()
        for i, m in enumerate(lead):
            l = _mono_lcm(m, gm)
            heapq.heappush(heap, (sum(l), m, gm, i, k, l))
            pending.add((i, k))
        basis.append(g)
        lead.append(gm)

    def chained(i: int, j: int, l: tuple[int, ...]) -> bool:
        return any(k != i and k != j and _divides(m, l)
                   and (min(i, k), max(i, k)) not in pending
                   and (min(j, k), max(j, k)) not in pending
                   for k, m in enumerate(lead))

    for q in {q.key(): q for q in map(MPoly.monic, polys) if not q.is_zero()}.values():
        insert(q)
    while heap:
        _, lmi, lmj, i, j, l = heapq.heappop(heap)
        pending.discard((i, j))
        if l == tuple(map(add, lmi, lmj)) or chained(i, j, l):
            skipped += 1
            continue
        if processed >= cap:
            return GroebnerResult(False, None, processed, skipped)
        processed += 1
        rem = reduce_poly(s_polynomial(basis[i], basis[j]), basis)
        if not rem.is_zero():
            insert(rem.monic())
    return GroebnerResult(True, _reduce_basis(basis), processed, skipped)


def _reduce_basis(basis: list[MPoly]) -> list[MPoly]:
    # drop members whose leading monomial another member's divides
    kept: list[MPoly] = []
    lms = [g.leading_monomial() for g in basis]
    for idx, g in enumerate(basis):
        lm = lms[idx]
        redundant = any(
            _divides(lms[other], lm) and (lms[other] != lm or other < idx)
            for other in range(len(basis)) if other != idx
        )
        if not redundant:
            kept.append(g)
    # each kept member is monic and its leading term is irreducible by the others
    reduced = [reduce_poly(g, kept[:idx] + kept[idx + 1:]) for idx, g in enumerate(kept)]
    reduced.sort(key=lambda p: grevlex_key(p.leading_monomial()))
    return reduced


# ---------------------------------------------------------------------------
# Exhaustive search over small prime fields
# ---------------------------------------------------------------------------


@dataclass
class EnumerationResult:
    prime: int
    dim: int
    kind_label: str
    solutions: list[tuple[int, ...]]

    @property
    def count(self) -> int:
        return len(self.solutions)


def _compile_mod_p(polys: list[MPoly], p: int) -> list[list[tuple[int, tuple[tuple[int, int], ...]]]]:
    # every denominator is prime to p, so each coefficient has an image in F_p
    compiled = []
    for poly in polys:
        terms = []
        for m, c in poly.sorted_terms():
            cm = c.numerator * pow(c.denominator, -1, p) % p
            if cm:
                terms.append((cm, tuple((i, ex) for i, ex in enumerate(m) if ex)))
        if terms:
            compiled.append(terms)
    return compiled


def enumerate_mod_p(a: Algebra, kind: OperatorKind, p: int) -> EnumerationResult:
    """All matrices over F_p satisfying the identity system reduced mod p.

    The residuals are reduced mod p as computed, before any normalization,
    so they are the identity system of the algebra whose structure
    constants and weight are reduced mod p; a p that divides one of their
    denominators is refused.  Solutions are exact members of the mod-p
    variety; they are evidence about characteristic p only and are not
    lifted to Q.
    """
    if p not in ENUM_PRIMES:
        raise InputError(f"prime must be one of {ENUM_PRIMES}, got {p}")
    n = a.dim * a.dim
    if p ** n > ENUM_CAP:
        raise BudgetError(f"{p}^{n} matrices exceeds the enumeration cap {ENUM_CAP}")
    if kind.weight is not None and kind.weight.denominator % p == 0:
        raise InputError(f"weight {kind.weight} is not defined mod {p}")
    undefined = [c for plane in a.c for row in plane for c in row if c.denominator % p == 0]
    if undefined:
        raise InputError(f"structure constant {undefined[0]} is not defined mod {p}")
    compiled = _compile_mod_p([e.poly for e in _raw_residuals(a, kind)], p)
    solutions = []
    for point in itertools.product(range(p), repeat=n):
        ok = True
        for terms in compiled:
            acc = 0
            for c, factors in terms:
                v = c
                for i, ex in factors:
                    base = point[i]
                    if base == 0:
                        v = 0
                        break
                    for _ in range(ex):
                        v *= base
                if v:
                    acc += v
            if acc % p:
                ok = False
                break
        if ok:
            solutions.append(point)
    return EnumerationResult(p, a.dim, kind.label(), solutions)


def solution_matrix(solution: tuple[int, ...], dim: int) -> Matrix:
    """Entries of a mod-p solution as an integer matrix (no lifting implied)."""
    return Matrix.from_rows([solution[r * dim:(r + 1) * dim] for r in range(dim)])


# ---------------------------------------------------------------------------
# Repeated elimination of affine-linear polynomials
# ---------------------------------------------------------------------------


@dataclass
class LinearReduction:
    constraints: list[tuple[int, MPoly]]
    residual: list[MPoly]
    inconsistent: bool


def linear_reduce(polys: list[MPoly]) -> LinearReduction:
    """Solve degree-1 members for their leading variables and substitute.

    Repeats until no linear polynomial remains.  Returns the accumulated
    substitutions var -> affine polynomial plus the remaining higher-degree
    (or constant, if the system is inconsistent) residual polynomials.
    """
    if not polys:
        return LinearReduction([], [], False)
    nv = polys[0].nvars
    work = {}
    for p in polys:
        q = p.normalized()
        if not q.is_zero():
            work[q.key()] = q
    constraints: dict[int, MPoly] = {}
    while True:
        linear = [q for q in work.values() if q.total_degree() == 1]
        if not linear:
            break
        target = min(linear, key=MPoly.key)
        lm = target.leading_monomial()
        var = next(i for i, e in enumerate(lm) if e)
        lc = target.terms[lm]
        rhs = (MPoly(nv, {lm: lc}) - target).scale(1 / lc)
        images = [MPoly.var(nv, i) for i in range(nv)]
        images[var] = rhs
        constraints = {v: r.compose(images, nv) for v, r in constraints.items()}
        constraints[var] = rhs
        new_work = {}
        for q in work.values():
            if q is target:
                continue
            s = q.compose(images, nv).normalized()
            if not s.is_zero():
                new_work[s.key()] = s
        work = new_work
    residual = sorted(work.values(), key=MPoly.key)
    inconsistent = any(r.total_degree() == 0 for r in residual)
    return LinearReduction(sorted(constraints.items()), residual, inconsistent)
