"""Independent answers for the benchmark's correctness gate.

Standard library only, and nothing here imports rnalg: the oracle reads
the plain-data inputs from `inputs.py` and the plain-data records the
worker makes of each result, so it shares no code with the path being
timed.  It provides

* the operator identities as rnalg defines them (README), written out
  again over exact rationals, symbolically (the expected polynomial
  system) and numerically (a residual at a concrete matrix, exact or
  mod p);
* a brute-force F_p solution count;
* a Groebner-basis certificate: every input reduces to zero, every
  S-pair of the output reduces to zero, and the output is reduced and
  monic;
* a certificate for the linear reduction;
* an associativity check for the deformed product.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

from inputs import qstr

NIJENHUIS = "nijenhuis"
REYNOLDS = "reynolds"
ROTA_BAXTER = "rota_baxter"
MODIFIED_ROTA_BAXTER = "modified_rota_baxter"


def parse_kind(text: str) -> tuple[list[str], Fraction | None]:
    """rn | reynolds | nijenhuis | rb:W | mrb:W -> (component identities, weight)."""
    t = text.strip().lower()
    if t == "rn":
        return [NIJENHUIS, REYNOLDS], None
    if t in (REYNOLDS, NIJENHUIS):
        return [t], None
    if t.startswith("rb:"):
        return [ROTA_BAXTER], Fraction(t[3:])
    if t.startswith("mrb:"):
        return [MODIFIED_ROTA_BAXTER], Fraction(t[4:])
    raise ValueError(f"unknown kind {text!r}")


def constants(dim: int, triples) -> dict:
    """(a, b) -> [(k, coeff)] from sparse [i, j, k, coeff] triples."""
    out: dict = {}
    for i, j, k, v in triples:
        v = Fraction(v)
        if v:
            out.setdefault((i, j), []).append((k, v))
    return out


# ---------------------------------------------------------------------------
# Polynomials: dict exponent tuple -> Fraction, grevlex order
# ---------------------------------------------------------------------------


def grevlex(m: tuple[int, ...]):
    """Total degree first; ties go to the smaller exponent in the last variable."""
    return (sum(m), tuple(-e for e in reversed(m)))


def p_add(f: dict, g: dict, scale=1) -> dict:
    out = dict(f)
    for m, c in g.items():
        v = out.get(m, 0) + scale * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def p_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            v = out.get(m, 0) + c1 * c2
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def p_var(nvars: int, i: int) -> dict:
    return {tuple(1 if j == i else 0 for j in range(nvars)): Fraction(1)}


def p_const(nvars: int, c) -> dict:
    c = Fraction(c)
    return {(0,) * nvars: c} if c else {}


def lead(f: dict) -> tuple:
    return max(f, key=grevlex)


def normalize(f: dict) -> dict:
    """Integer coefficients with content 1 and a positive leading coefficient."""
    if not f:
        return f
    den = lcm(*(c.denominator for c in f.values()))
    num = gcd(*(c.numerator for c in f.values()))
    factor = Fraction(den, num)
    if f[lead(f)] < 0:
        factor = -factor
    return {m: c * factor for m, c in f.items()}


def degree(f: dict) -> int:
    return max((sum(m) for m in f), default=0)


def from_record(terms) -> dict:
    """[[exponents, "coeff"], ...] as written by the worker -> polynomial."""
    return {tuple(m): Fraction(c) for m, c in terms}


def to_record(f: dict) -> list:
    return [[list(m), qstr(c)] for m, c in sorted(f.items())]


def substitute(f: dict, images: dict, nvars: int) -> dict:
    """Replace variable i by the polynomial images[i] wherever images has i."""
    out: dict = {}
    for m, c in f.items():
        term = p_const(nvars, c)
        kept = [0] * nvars
        for i, e in enumerate(m):
            if i in images:
                for _ in range(e):
                    term = p_mul(term, images[i])
            else:
                kept[i] = e
        term = p_mul(term, {tuple(kept): Fraction(1)})
        out = p_add(out, term)
    return out


# ---------------------------------------------------------------------------
# Operator identities (column convention: P(e_j) = sum_i M[i][j] e_i)
# ---------------------------------------------------------------------------


def _identity_parts(ident: str, weight, mult, apply, add, sub, scale, x, y):
    """(lhs, rhs) of one identity on vectors x, y, over any vector arithmetic."""
    px, py = apply(x), apply(y)
    if ident == NIJENHUIS:
        return mult(px, py), apply(sub(add(mult(px, y), mult(x, py)), apply(mult(x, y))))
    if ident == REYNOLDS:
        pxpy = mult(px, py)
        return pxpy, apply(sub(add(mult(x, py), mult(px, y)), pxpy))
    if ident == ROTA_BAXTER:
        inner = add(add(mult(px, y), mult(x, py)), scale(mult(x, y), weight))
        return mult(px, py), apply(inner)
    if ident == MODIFIED_ROTA_BAXTER:
        xy = mult(x, y)
        return apply(xy), add(add(mult(px, y), mult(x, py)), scale(xy, weight))
    raise ValueError(ident)


def _padd(u, v):
    return [p_add(a, b) for a, b in zip(u, v)]


def _psub(u, v):
    return [p_add(a, b, -1) for a, b in zip(u, v)]


def _pscale(u, c):
    return [{m: c * x for m, x in a.items()} if c else {} for a in u]


def _nadd(u, v):
    return [a + b for a, b in zip(u, v)]


def _nsub(u, v):
    return [a - b for a, b in zip(u, v)]


def _nscale(u, c):
    return [c * a for a in u]


def identity_system(dim: int, triples, kind: str) -> list[tuple]:
    """Expected system: (i, j, coord, identity, normalized polynomial), zeros pruned."""
    idents, weight = parse_kind(kind)
    n = dim * dim
    c = constants(dim, triples)
    cols = [[p_var(n, r * dim + col) for r in range(dim)] for col in range(dim)]

    def mult(u, v):
        out = [{} for _ in range(dim)]
        for (a, b), entries in c.items():
            if u[a] and v[b]:
                prod = p_mul(u[a], v[b])
                for k, cv in entries:
                    out[k] = p_add(out[k], prod, cv)
        return out

    def apply(v):
        out = [{} for _ in range(dim)]
        for col, x in enumerate(v):
            if x:
                for r in range(dim):
                    out[r] = p_add(out[r], p_mul(cols[col][r], x))
        return out

    basis = [[p_const(n, 1 if r == i else 0) for r in range(dim)] for i in range(dim)]
    out = []
    for i in range(dim):
        for j in range(dim):
            for ident in idents:
                lhs, rhs = _identity_parts(ident, weight, mult, apply, _padd, _psub,
                                           _pscale, basis[i], basis[j])
                for k in range(dim):
                    poly = normalize(p_add(lhs[k], rhs[k], -1))
                    if poly:
                        out.append((i, j, k, ident, poly))
    return out


def identity_holds(dim: int, triples, kind: str, matrix, p: int | None = None) -> bool:
    """Does the identity hold at a concrete matrix, exactly or mod p?"""
    idents, weight = parse_kind(kind)
    c = constants(dim, triples)
    red = (lambda x: x) if p is None else (lambda x: _mod(x, p))
    cc = {key: [(k, red(v)) for k, v in entries] for key, entries in c.items()}
    m = [[red(Fraction(x)) for x in row] for row in matrix]
    w = None if weight is None else red(weight)

    def mult(u, v):
        out = [0] * dim
        for (a, b), entries in cc.items():
            if u[a] and v[b]:
                prod = u[a] * v[b]
                for k, cv in entries:
                    out[k] += prod * cv
        return out

    def apply(v):
        return [sum(m[r][col] * v[col] for col in range(dim)) for r in range(dim)]

    basis = [[1 if r == i else 0 for r in range(dim)] for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for ident in idents:
                lhs, rhs = _identity_parts(ident, w, mult, apply, _nadd, _nsub, _nscale,
                                           basis[i], basis[j])
                for a, b in zip(lhs, rhs):
                    diff = a - b
                    if (diff % p) if p is not None else diff:
                        return False
    return True


def _mod(x: Fraction, p: int) -> int:
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ValueError(f"{x} is not defined mod {p}")
    return x.numerator * pow(x.denominator, -1, p) % p


def defined_mod_p(triples, kind: str, p: int) -> bool:
    """Every structure constant and the weight have denominators prime to p."""
    _, weight = parse_kind(kind)
    values = [Fraction(t[3]) for t in triples] + ([weight] if weight is not None else [])
    return all(v.denominator % p for v in values)


def solutions_mod_p(dim: int, triples, kind: str, p: int) -> list[tuple[int, ...]]:
    """Brute force over all p^(dim^2) matrices, row-major entry tuples."""
    out = []
    for point in itertools.product(range(p), repeat=dim * dim):
        m = [point[r * dim:(r + 1) * dim] for r in range(dim)]
        if identity_holds(dim, triples, kind, m, p):
            out.append(point)
    return out


# ---------------------------------------------------------------------------
# Groebner and linear-reduction certificates
# ---------------------------------------------------------------------------


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def normal_form(f: dict, basis: list[dict]) -> dict:
    """Full reduction of f by the leading terms of basis."""
    leads = [(lead(g), g[lead(g)], g) for g in basis if g]
    rem: dict = {}
    work = dict(f)
    while work:
        lm = lead(work)
        lc = work[lm]
        hit = next(((gm, gc, g) for gm, gc, g in leads if _divides(gm, lm)), None)
        if hit is None:
            rem[lm] = lc
            del work[lm]
            continue
        gm, gc, g = hit
        shift = tuple(a - b for a, b in zip(lm, gm))
        work = p_add(work, p_mul({shift: Fraction(1)}, g), -lc / gc)
    return rem


def groebner_certificate(inputs: list[dict], basis: list[dict]) -> str | None:
    """None if basis is a reduced, monic Groebner basis containing the inputs' ideal."""
    leads = [lead(g) for g in basis]
    for idx, g in enumerate(basis):
        if g[leads[idx]] != 1:
            return f"basis element {idx} is not monic"
        for other, lm in enumerate(leads):
            if other != idx and any(_divides(lm, m) for m in g):
                return f"basis element {idx} has a term divisible by the lead of {other}"
    for idx, f in enumerate(inputs):
        if normal_form(f, basis):
            return f"input {idx} does not reduce to zero"
    for i, j in itertools.combinations(range(len(basis)), 2):
        li, lj = leads[i], leads[j]
        l = tuple(max(a, b) for a, b in zip(li, lj))
        if l == tuple(a + b for a, b in zip(li, lj)):
            continue  # coprime leading monomials: the S-pair reduces to zero
        s = p_add(p_mul({tuple(a - b for a, b in zip(l, li)): Fraction(1)}, basis[i]),
                  p_mul({tuple(a - b for a, b in zip(l, lj)): Fraction(1)}, basis[j]), -1)
        if normal_form(s, basis):
            return f"S-pair ({i}, {j}) does not reduce to zero"
    return None


def linear_certificate(inputs: list[dict], constraints: list[tuple[int, dict]],
                       residual: list[dict], inconsistent: bool, nvars: int) -> str | None:
    """None if substituting the constraints maps every input into the residual set.

    Checks that each constraint solves for a variable in terms of
    unconstrained ones with an affine right side, that every input becomes
    zero or a (normalized) residual member under the substitution, that
    every residual member arises this way, that no linear member is left,
    and that the inconsistency flag marks exactly a constant residual.
    """
    images = dict(constraints)
    for var, rhs in constraints:
        if degree(rhs) > 1:
            return f"constraint for variable {var} is not affine"
        if any(m[v] for m in rhs for v in images):
            return f"constraint for variable {var} uses a constrained variable"
    keyed = {tuple(sorted(r.items())): r for r in residual}
    if len(keyed) != len(residual):
        return "residual has duplicate members"
    seen = set()
    for idx, f in enumerate(inputs):
        g = normalize(substitute(f, images, nvars))
        if not g:
            continue
        key = tuple(sorted(g.items()))
        if key not in keyed:
            return f"input {idx} maps outside the residual set"
        seen.add(key)
    if seen != set(keyed):
        return "a residual member does not come from any input"
    if any(degree(r) == 1 for r in residual):
        return "a linear member was left in the residual"
    if inconsistent != any(degree(r) == 0 for r in residual):
        return "inconsistency flag disagrees with the residual"
    return None


# ---------------------------------------------------------------------------
# Deformed product
# ---------------------------------------------------------------------------


def star_is_associative(dim: int, triples, matrix) -> bool:
    """Is a*b = aP(b) + P(a)b - P(ab) associative on all basis triples?"""
    c = constants(dim, triples)
    m = [[Fraction(x) for x in row] for row in matrix]

    def mult(u, v):
        out = [Fraction(0)] * dim
        for (a, b), entries in c.items():
            if u[a] and v[b]:
                for k, cv in entries:
                    out[k] += u[a] * v[b] * cv
        return out

    def apply(v):
        return [sum(m[r][col] * v[col] for col in range(dim)) for r in range(dim)]

    def star(u, v):
        return [a + b - e for a, b, e in
                zip(mult(u, apply(v)), mult(apply(u), v), apply(mult(u, v)))]

    basis = [[Fraction(1 if r == i else 0) for r in range(dim)] for i in range(dim)]
    return all(star(star(x, y), z) == star(x, star(y, z))
               for x in basis for y in basis for z in basis)
