"""Multivariate polynomial systems for operator identities.

Unknowns are the dim^2 matrix entries, named P_r_c in row-major canonical
order.  Monomials are exponent tuples compared in graded reverse
lexicographic order (grevlex) unless stated otherwise.  Every emitted
polynomial is normalized: integer coefficients with content 1 and a
positive leading coefficient, so zero sets are unchanged and fixtures are
byte-reproducible.

Coefficients are stored as exactlin stores matrix entries: an int if the
value is integral and a Fraction only if it is not, so systems with
integral coefficients run on ints.  Every true division goes through
_quo, which divides exactly, so no float is ever made.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, le, neg, sub

from .algebra import (Algebra, OperatorKind, _component_identities,
                      identity_residual)
from .errors import DEFAULT_BUDGET, BudgetError, InputError, resolve_budget
from .exactlin import Entry, Matrix, _canon

ENUM_PRIMES = (2, 3, 5)


def _quo(a: Entry, b: Entry) -> Entry:
    """a / b in stored form, exactly."""
    return _canon(Fraction(a, b))


def grevlex_key(mono: tuple[int, ...]):
    return (sum(mono), tuple(map(neg, mono[::-1])))


class MPoly:
    """Sparse polynomial over Q, never changed.

    terms maps each exponent tuple to a nonzero coefficient in stored form
    (an int, or a Fraction with denominator > 1); the constructor puts every
    value in that form and refuses floats and bools.
    """

    __slots__ = ("nvars", "terms", "_lm")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms = {m: v for m, c in (terms or {}).items()
                      if (v := c if c.__class__ is int else _canon(c))}
        self._lm = None

    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c) -> "MPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars: int, i: int, power: int = 1) -> "MPoly":
        mono = tuple(power if j == i else 0 for j in range(nvars))
        return cls(nvars, {mono: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MPoly") -> "MPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return MPoly(self.nvars, out)

    def __sub__(self, other: "MPoly") -> "MPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) - c
        return MPoly(self.nvars, out)

    def __neg__(self) -> "MPoly":
        return MPoly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "MPoly") -> "MPoly":
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return MPoly(self.nvars, out)

    def scale(self, c) -> "MPoly":
        c = _canon(c)
        if not c:
            return MPoly(self.nvars)
        return MPoly(self.nvars, {m: c * v for m, v in self.terms.items()})

    def mul_term(self, mono: tuple[int, ...], coeff: Entry) -> "MPoly":
        if not coeff:
            return MPoly(self.nvars)
        return MPoly(self.nvars, {tuple(map(add, m, mono)): c * coeff
                                  for m, c in self.terms.items()})

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def leading_monomial(self) -> tuple[int, ...]:
        if self._lm is None:
            if not self.terms:
                raise InputError("zero polynomial has no leading monomial")
            self._lm = max(self.terms, key=grevlex_key)
        return self._lm

    def leading_coeff(self) -> Entry:
        return self.terms[self.leading_monomial()]

    def monic(self) -> "MPoly":
        if self.is_zero():
            return self
        return self.scale(_quo(1, self.leading_coeff()))

    def normalized(self) -> "MPoly":
        """Integer coefficients, content 1, positive leading coefficient."""
        if self.is_zero():
            return self
        den = lcm(*(c.denominator for c in self.terms.values()))
        num = gcd(*(c.numerator for c in self.terms.values()))
        factor = _quo(den if self.leading_coeff() > 0 else -den, num)
        return self if factor == 1 else self.scale(factor)

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

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Entry]]:
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
    dim = a.dim
    n = dim * dim
    if dim ** 5 > DEFAULT_BUDGET:  # a fixed cap: the budget bounds the later stages
        raise BudgetError(f"identity system stage: dim {dim} needs {dim ** 5} coefficients "
                          f"(dim^3 residuals x dim^2 unknowns), cap {DEFAULT_BUDGET}")
    if not a.is_associative():
        raise InputError("algebra is not associative")
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
        q, c = _mono_div(lm, gm), _quo(lc, gc)
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
    return (f.mul_term(_mono_div(l, fm), _quo(1, f.leading_coeff()))
            - g.mul_term(_mono_div(l, gm), _quo(1, g.leading_coeff())))


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


def _compile_mod_p(polys: list[MPoly], p: int) -> list[list[tuple[int, tuple[int, ...]]]]:
    # every denominator is prime to p, so each coefficient has an image in F_p;
    # a monomial becomes its variable indices, each repeated by its exponent
    compiled = []
    for poly in polys:
        terms = []
        for m, c in poly.terms.items():
            cm = c.numerator * pow(c.denominator, -1, p) % p
            if cm:
                terms.append((cm, tuple(i for i, ex in enumerate(m) for _ in range(ex))))
        if terms:
            compiled.append(terms)
    return compiled


def _search_mod_p(compiled: list, n: int, p: int, cap: int) -> list[tuple[int, ...]]:
    """Sorted points of F_p^n where every compiled residual vanishes, by depth-first search.

    A residual is tested once its last variable is set; one of degree 1 in its
    only free variable x forces x = -b/a for a unit a, and needs b = 0 when a = 0
    (forward checking, Knuth TAOCP 4B, 7.2.2).  Nodes are consistent partial
    assignments, and BudgetError stops the search once they exceed the cap.
    """
    vars_of = [{i for _, f in terms for i in f} for terms in compiled]
    linear = [{i for i in vs if all(f.count(i) < 2 for _, f in terms)}
              for vs, terms in zip(vars_of, compiled)]
    occ = [[r for r, vs in enumerate(vars_of) if x in vs] for x in range(n)]
    left, order = [set(vs) for vs in vars_of], []
    while len(order) < n:  # the variable completing the most residuals, then the most frequent
        x = max(set(range(n)) - set(order),
                key=lambda x: (sum(left[r] == {x} for r in occ[x]), len(occ[x]), -x))
        order.append(x)
        for r in occ[x]:
            left[r].discard(x)
    val, free, trail, solutions, nodes = [None] * n, [len(vs) for vs in vars_of], [], [], 0

    def examine(r: int, forced: list) -> bool:
        # residual r has at most one free variable x; if it is linear in x, it is a*x + b
        x = next((i for i in vars_of[r] if val[i] is None), None)
        if x is not None and x not in linear[r]:
            return True  # tested once x is set
        a = b = 0
        for c, f in compiled[r]:
            for i in f:
                if i != x:
                    c *= val[i]
            if x in f:
                a += c
            else:
                b += c
        if a % p:
            forced.append((x, -b * pow(a, -1, p) % p))
        return a % p != 0 or b % p == 0

    def propagate(forced: list) -> bool:
        # set each forced value and test the residuals it leaves with one free variable or
        # none; a value forced twice is checked by the residual that forced it, now complete
        while forced:
            x, v = forced.pop()
            if val[x] is None:
                val[x] = v
                trail.append(x)
                for r in occ[x]:
                    free[r] -= 1
                if not all(examine(r, forced) for r in occ[x] if free[r] < 2):
                    return False
        return True

    def visit(k: int) -> list:
        # count a node; its branches on the next free variable in order, or none at a solution
        nonlocal nodes
        nodes += 1
        if nodes > cap:
            raise BudgetError(f"mod-p enumeration stage: {nodes} nodes visited, cap {cap}")
        k = next((j for j in range(k, n) if val[order[j]] is None), n)
        if k == n:
            solutions.append(tuple(val))
        return [(k, v, len(trail)) for v in range(p)] if k < n else []

    forced: list = []
    root = all(examine(r, forced) for r in range(len(compiled)) if free[r] < 2)
    stack = visit(0) if root and propagate(forced) else []
    while stack:  # depth first, without recursion: a branch is (level, value, trail length)
        k, v, mark = stack.pop()
        while len(trail) > mark:
            x = trail.pop()
            val[x] = None
            for r in occ[x]:
                free[r] += 1
        if propagate([(order[k], v)]):
            stack += visit(k + 1)
    return sorted(solutions)


def enumerate_mod_p(a: Algebra, kind: OperatorKind, p: int) -> EnumerationResult:
    """All matrices over F_p satisfying the identity system reduced mod p.

    The residuals are reduced mod p as computed, before any normalization,
    so they are the identity system of the algebra whose structure
    constants and weight are reduced mod p; a p that divides one of their
    denominators is refused.  Solutions are exact members of the mod-p
    variety in lexicographic order, found within resolve_budget() search
    nodes; they are evidence about characteristic p only, not lifted to Q.
    """
    if p not in ENUM_PRIMES:
        raise InputError(f"prime must be one of {ENUM_PRIMES}, got {p}")
    if kind.weight is not None and kind.weight.denominator % p == 0:
        raise InputError(f"weight {kind.weight} is not defined mod {p}")
    undefined = [c for plane in a.c for row in plane for c in row if c.denominator % p == 0]
    if undefined:
        raise InputError(f"structure constant {undefined[0]} is not defined mod {p}")
    compiled = _compile_mod_p([e.poly for e in _raw_residuals(a, kind)], p)
    solutions = _search_mod_p(compiled, a.dim * a.dim, p, resolve_budget())
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
        rhs = (MPoly(nv, {lm: lc}) - target).scale(_quo(1, lc))
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
