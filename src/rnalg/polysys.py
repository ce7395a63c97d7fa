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

_raw_residuals builds on coefficient dicts keyed by packed monomials
(Monagan-Pearce): one int with a 2-bit exponent field per unknown, wide
enough because residuals are at most cubic, so a product of monomials is
an int sum, and returns those dicts.  build_identity_system is where they
become exponent tuples (once per distinct monomial) and MPolys; the F_p
search compiles the dicts directly, and keeps its set variables as one
bitmask.
"""

from __future__ import annotations

import functools
import heapq
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, le, neg, sub
from typing import NamedTuple

from .algebra import (Algebra, OperatorKind, _component_identities, _require_associative,
                      identity_residual)
from .errors import DEFAULT_BUDGET, BudgetError, InputError, resolve_budget
from .exactlin import Entry, _canon

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
    def const(cls, nvars: int, c) -> "MPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars: int, i: int) -> "MPoly":
        mono = tuple(int(j == i) for j in range(nvars))
        return cls(nvars, {mono: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MPoly") -> "MPoly":
        return MPoly(self.nvars, _merge(self.terms, other.terms, 1))

    def __sub__(self, other: "MPoly") -> "MPoly":
        return MPoly(self.nvars, _merge(self.terms, other.terms, -1))

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
        out = MPoly(self.nvars, {m: c * v for m, v in self.terms.items()})
        out._lm = self._lm  # a unit keeps the leading monomial
        return out

    def mul_term(self, mono: tuple[int, ...], coeff: Entry) -> "MPoly":
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
        # reduce: lcm(*generator) holds memory per call on CPython 3.11 until a full
        # collection; the initial values make gcd run on one term, so -x gets content 1
        den = functools.reduce(lcm, [c.denominator for c in self.terms.values()], 1)
        num = functools.reduce(gcd, [c.numerator for c in self.terms.values()], 0)
        if self.leading_coeff() < 0:
            den = -den
        return self if den == num else self.scale(_quo(den, num))

    def evaluate(self, point: list[Fraction]) -> Fraction:
        """The value at point, whose coordinates are rationals; floats and bools are refused."""
        if len(point) != self.nvars:
            raise InputError("evaluation point has wrong arity")
        point = [_canon(x) for x in point]
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
        out: dict = {}
        for m, c in self.terms.items():
            term = MPoly.const(target_nvars, c)
            for i, e in enumerate(m):
                for _ in range(e):
                    term = term * images[i]
            for mono, x in term.terms.items():
                out[mono] = out.get(mono, 0) + x
        return MPoly(target_nvars, out)

    def key(self):
        return tuple(sorted(((m, (c.numerator, c.denominator))
                             for m, c in self.terms.items()),
                            key=lambda t: grevlex_key(t[0]), reverse=True))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Entry]]:
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def __eq__(self, other):
        return isinstance(other, MPoly) and self.nvars == other.nvars and self.terms == other.terms

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


class SystemPolynomial(NamedTuple):
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


class _Vec(list):
    """A coordinate vector of coefficient dicts with the add, sub and scale
    identity_residual uses; each op drops the zeros it makes, as MPoly does."""

    def add(self, other: list) -> "_Vec":
        return _Vec(map(_merge, self, other, repeat(1)))

    def sub(self, other: list) -> "_Vec":
        return _Vec(map(_merge, self, other, repeat(-1)))

    def scale(self, c) -> "_Vec":
        c = _canon(c)
        return _Vec({m: c * v for m, v in x.items()} if c else {} for x in self)


def _merge(x: dict, y: dict, sign: int) -> dict:
    # x + sign * y
    out = dict(x)
    for m, c in y.items():
        out[m] = out.get(m, 0) + sign * c
    return _pruned(out)


def _pruned(terms: dict) -> dict:
    return terms if all(terms.values()) else {m: c for m, c in terms.items() if c}


def _sym_apply(units: list[list[int]], vec: list[dict]) -> _Vec:
    # coordinate r of P(vec) is the sum over c of P_r_c * vec[c]; units[c][r] packs P_r_c
    out: list[dict] = [{} for _ in vec]
    for x, unit in zip(vec, units):
        for m, v in x.items():
            for acc, u in zip(out, unit):
                acc[m + u] = acc.get(m + u, 0) + v
    return _Vec(map(_pruned, out))


def _sym_mult(pairs: dict, x: list[dict], y: list[dict]) -> _Vec:
    # pairs maps (i, j) to the (k, c_ij^k) of mu's nonzeros; each x[i]*y[j] is formed once
    out: list[dict] = [{} for _ in x]
    for (i, j), consts in pairs.items():
        for m1, c1 in x[i].items():
            for m2, c2 in y[j].items():
                m, c = m1 + m2, c1 * c2
                for k, cv in consts:
                    out[k][m] = out[k].get(m, 0) + c * cv
    return _Vec(map(_pruned, out))


def _raw_residuals(a: Algebra, kind: OperatorKind) -> list[tuple[int, int, int, str, dict]]:
    """Residuals (lhs - rhs) of the identity over symbolic entries, as computed.

    Each is (i, j, coord, identity, terms), with terms the coefficient dict
    identity_residual leaves, keyed by packed monomials.  Order is pair-major
    (i, j lexicographic), then identity, then output coordinate.  Coefficients
    are those the structure constants and the weight give, neither normalized
    nor pruned.
    """
    dim = a.dim
    if dim ** 5 > DEFAULT_BUDGET:  # a fixed cap: the budget bounds the later stages
        raise BudgetError(f"identity system stage: dim {dim} needs {dim ** 5} coefficients "
                          f"(dim^3 residuals x dim^2 unknowns), cap {DEFAULT_BUDGET}")
    _require_associative(a)
    units = [[1 << 2 * (r * dim + c) for r in range(dim)] for c in range(dim)]
    cols = [[{u: 1} for u in unit] for unit in units]
    basis = [[{0: 1} if r == i else {} for r in range(dim)] for i in range(dim)]
    pairs: dict = {}
    for (k, ij), v in a.mu.entries.items():
        pairs.setdefault(divmod(ij, dim), []).append((k, v))
    mul = functools.partial(_sym_mult, pairs)
    apply = functools.partial(_sym_apply, units)
    return [(i, j, k, ident, terms)
            for i in range(dim) for j in range(dim)
            for ident in _component_identities(kind)
            for k, terms in enumerate(identity_residual(ident, kind.weight, mul, apply,
                                                        basis[i], basis[j], cols[i], cols[j]))]


def build_identity_system(a: Algebra, kind: OperatorKind) -> PolySystem:
    """Normalized polynomial residuals of the identity; zero ones are pruned."""
    n = a.dim * a.dim
    residuals = _raw_residuals(a, kind)
    exponents = {m: tuple(m >> s & 3 for s in range(0, 2 * n, 2))
                 for m in set().union(*(r[4] for r in residuals))}
    entries = (SystemPolynomial(i, j, k, ident,
                                MPoly(n, {exponents[m]: c for m, c in terms.items()}).normalized())
               for i, j, k, ident, terms in residuals)
    return PolySystem(a.dim, kind, [e for e in entries if not e.poly.is_zero()])


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
        """assign maps each (row, col) in range(dim) to a parameter name, a rational or an MPoly."""
        nv = len(params)
        rows = [[MPoly(nv) for _ in range(dim)] for _ in range(dim)]
        for key, value in assign.items():
            if not (isinstance(key, tuple) and len(key) == 2
                    and all(type(i) is int and 0 <= i < dim for i in key)):
                raise InputError(f"family entry {key!r}: not a (row, col) pair in range({dim})")
            if isinstance(value, str) and value not in params:
                raise InputError(f"family entry {key!r}: unknown parameter {value!r}")
            r, c = key
            if isinstance(value, MPoly):
                rows[r][c] = value
            elif isinstance(value, str):
                rows[r][c] = MPoly.var(nv, params.index(value))
            else:
                rows[r][c] = MPoly.const(nv, value)
        return cls(dim, params, rows)


class FamilyReport(NamedTuple):
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


class GroebnerResult(NamedTuple):
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


class EnumerationResult(NamedTuple):
    prime: int
    dim: int
    kind_label: str
    solutions: list[tuple[int, ...]]
    nodes: int  # search nodes visited


def _compile_mod_p(polys: list[dict], n: int, p: int) -> list[list[tuple[int, tuple[int, ...]]]]:
    # polys are _raw_residuals' dicts over n unknowns; every denominator is prime to p and is
    # inverted once (1 for an int), and each packed monomial becomes its variable indices,
    # each repeated by its exponent, once
    factors = {m: tuple(i for i in range(n) for _ in range(m >> 2 * i & 3))
               for m in set().union(*polys)}
    inverse = {d: pow(d, -1, p) for d in {c.denominator for poly in polys for c in poly.values()}}
    compiled = ([(cm, factors[m]) for m, c in poly.items()
                 if (cm := c.numerator * inverse[c.denominator] % p)] for poly in polys)
    return [terms for terms in compiled if terms]


def _search_order(vars_of: list[set[int]], occ: list[list[int]]) -> list[int]:
    """The variables in search order: next is the one that is the last unplaced variable
    of the most residuals, then the one in the most residuals, then the least.

    completes[x] counts the residuals whose one unplaced variable is x; a residual is
    counted when its unplaced count falls to one, so no step rescans the residuals.
    """
    left = [len(vs) for vs in vars_of]
    rest = [sum(vs) for vs in vars_of]  # the sum of each residual's unplaced variables
    completes = [0] * len(occ)
    for k, s in zip(left, rest):
        if k == 1:
            completes[s] += 1
    unplaced, order = set(range(len(occ))), []
    while unplaced:
        x = max(unplaced, key=lambda x: (completes[x], len(occ[x]), -x))
        unplaced.remove(x)
        order.append(x)
        for r in occ[x]:
            left[r] -= 1
            rest[r] -= x
            if left[r] == 1:
                completes[rest[r]] += 1
    return order


def _search_mod_p(compiled: list, n: int, p: int,
                  cap: int) -> tuple[list[tuple[int, ...]], int]:
    """Sorted points of F_p^n where every compiled residual vanishes, and the nodes visited.

    The search is depth first.  A residual is tested once its last variable is
    set; one of degree 1 in its only free variable x forces x = -b/a for a unit
    a, and needs b = 0 when a = 0 (forward checking, Knuth TAOCP 4B, 7.2.2).
    The free variables are a bitmask: residual r's are mask[r] & unset, so a
    step sets or clears one bit of unset and updates no residual.  It keeps
    (x, a mod p, b), so the test when x is set is (a*x + b) % p == 0.  That is
    exact because the trail is undone last in, first out: while x is free the
    residual's other variables hold the values a and b came from, and an undo
    that frees one of them first leaves two free, so (x, a, b) is computed
    again before it is read.  Nodes are consistent partial assignments, and
    BudgetError stops the search once they exceed the cap.
    """
    vars_of = [{i for _, f in terms for i in f} for terms in compiled]
    mask = [sum(1 << i for i in vs) for vs in vars_of]
    linear = [sum(1 << i for i in vs if all(f.count(i) < 2 for _, f in terms))
              for vs, terms in zip(vars_of, compiled)]
    occ = [[r for r, vs in enumerate(vars_of) if x in vs] for x in range(n)]
    order = _search_order(vars_of, occ)
    val, trail, solutions, nodes, unset = [None] * n, [], [], 0, (1 << n) - 1
    slot: list = [None] * len(compiled)  # (x, a, b) while the residual is a*x + b, x free
    split: list[dict] = [{} for _ in compiled]  # x -> r's terms with x (x taken out), without

    def value(terms) -> int:
        total = 0
        for c, f in terms:
            for i in f:
                c *= val[i]
            total += c
        return total

    def settle(rs, forced: list) -> bool:
        # test each residual of rs with one free variable or none, and queue the values it
        # forces; a value forced twice is checked by the residual that forced it, now complete
        for r in rs:
            rest = mask[r] & unset
            if rest & (rest - 1):
                continue
            if not rest:
                s = slot[r]
                if (s[1] * val[s[0]] + s[2] if s else value(compiled[r])) % p:
                    return False
            elif rest & linear[r]:  # r is a*x + b
                x = rest.bit_length() - 1
                if x not in split[r]:
                    split[r][x] = ([(c, tuple(i for i in f if i != x))
                                    for c, f in compiled[r] if x in f],
                                   [t for t in compiled[r] if x not in t[1]])
                with_x, without = split[r][x]
                a, b = value(with_x) % p, value(without)
                slot[r] = (x, a, b)
                if a:
                    forced.append((x, -b * pow(a, -1, p) % p))
                elif b % p:
                    return False
            else:
                slot[r] = None  # tested once x is set
        return True

    def propagate(forced: list) -> bool:
        nonlocal unset
        while forced:
            x, v = forced.pop()
            if val[x] is None:
                val[x] = v
                trail.append(x)
                unset ^= 1 << x
                if not settle(occ[x], forced):
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
    stack = visit(0) if settle(range(len(compiled)), forced) and propagate(forced) else []
    while stack:  # depth first, without recursion: a branch is (level, value, trail length)
        k, v, mark = stack.pop()
        while len(trail) > mark:
            x = trail.pop()
            val[x] = None
            unset |= 1 << x
        if propagate([(order[k], v)]):
            stack += visit(k + 1)
    return sorted(solutions), nodes


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
    undefined = [v for *_, v in a.triples() if v.denominator % p == 0]
    if undefined:
        raise InputError(f"structure constant {undefined[0]} is not defined mod {p}")
    n = a.dim * a.dim
    compiled = _compile_mod_p([terms for *_, terms in _raw_residuals(a, kind)], n, p)
    solutions, nodes = _search_mod_p(compiled, n, p, resolve_budget())
    return EnumerationResult(p, a.dim, kind.label(), solutions, nodes)


# ---------------------------------------------------------------------------
# Repeated elimination of affine-linear polynomials
# ---------------------------------------------------------------------------


class LinearReduction(NamedTuple):
    constraints: list[tuple[int, MPoly]]
    residual: list[MPoly]
    inconsistent: bool


def _substitute(var: int, powers: list[MPoly], q: MPoly) -> MPoly:
    """q with powers[1], which is free of var, put for var, with its terms in the order
    MPoly.compose gives them; powers[e] is its e-th power and grows one product at a time."""
    out: dict = {}
    for m, c in q.terms.items():
        e = m[var]
        if not e:
            out[m] = out.get(m, 0) + c
            continue
        while len(powers) <= e:
            powers.append(powers[-1] * powers[1])
        base = m[:var] + (0,) + m[var + 1:]
        for mono, x in powers[e].terms.items():
            mono = tuple(map(add, base, mono))
            out[mono] = out.get(mono, 0) + c * x
    return MPoly(q.nvars, out)


def linear_reduce(polys: list[MPoly]) -> LinearReduction:
    """Solve degree-1 members for their leading variables and substitute.

    Repeats until no linear polynomial remains.  Returns the accumulated
    substitutions var -> affine polynomial plus the remaining higher-degree
    (or constant, if the system is inconsistent) residual polynomials.
    Members are told apart by their terms; key() orders them only where the
    order is read, to pick the target and to sort the residual.
    """
    if not polys:
        return LinearReduction([], [], False)
    nv = polys[0].nvars
    work = {}
    for p in polys:
        q = p.normalized()
        if not q.is_zero():
            work[frozenset(q.terms.items())] = q
    constraints: dict[int, MPoly] = {}
    while True:
        linear = [q for q in work.values() if q.total_degree() == 1]
        if not linear:
            break
        target = min(linear, key=MPoly.key)
        lm = target.leading_monomial()
        var = lm.index(1)
        lc = target.terms[lm]
        rhs = (MPoly(nv, {lm: lc}) - target).scale(_quo(1, lc))
        put = functools.partial(_substitute, var, [MPoly.const(nv, 1), rhs])
        constraints = {v: put(r) for v, r in constraints.items()}
        constraints[var] = rhs
        new_work = {}
        for q in work.values():
            if q is not target:
                s = put(q).normalized()
                if not s.is_zero():
                    new_work[frozenset(s.terms.items())] = s
        work = new_work
    residual = sorted(work.values(), key=MPoly.key)
    inconsistent = any(r.total_degree() == 0 for r in residual)
    return LinearReduction(sorted(constraints.items()), residual, inconsistent)
