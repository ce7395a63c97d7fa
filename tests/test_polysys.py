"""Polynomial machinery: sparse arithmetic, identity systems, Groebner, enumeration."""

from __future__ import annotations

import gc
import hashlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnalg.algebra import (KIND_NIJENHUIS, KIND_RN, Algebra, _component_identities,
                           check_operator, identity_residual, parse_kind, rota_baxter)
from rnalg.catalog import catalog, operator
from rnalg.errors import BudgetError, InputError
from rnalg.exactlin import Matrix
from rnalg import polysys
from rnalg.fileio import enumeration_result_dict
from rnalg.polysys import (MPoly, SymbolicMatrix, SystemPolynomial, _compile_mod_p,
                           _raw_residuals, _search_mod_p, _search_order, build_identity_system,
                           entry_variables,
                           enumerate_mod_p, groebner_basis, linear_reduce,
                           verify_family)

CAT = catalog()


def _assert_stored_form(polys) -> None:
    """Every coefficient is an int or a Fraction with denominator > 1: no float, no n/1."""
    for p in polys:
        for c in p.terms.values():
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1), (p, c)


def _raw_polys(a: Algebra, kind) -> list[SystemPolynomial]:
    """_raw_residuals with each packed monomial unpacked to its exponent tuple, as MPolys."""
    n = a.dim ** 2
    shifts = range(0, 2 * n, 2)
    return [SystemPolynomial(i, j, k, ident,
                             MPoly(n, {tuple(m >> s & 3 for s in shifts): c
                                       for m, c in terms.items()}))
            for i, j, k, ident, terms in _raw_residuals(a, kind)]


def test_mpoly_binomial_square():
    x = MPoly.var(2, 0)
    y = MPoly.var(2, 1)
    lhs = (x + y) * (x + y)
    rhs = x * x + x * y * MPoly.const(2, 2) + y * y
    assert lhs == rhs
    assert lhs.format(["x", "y"]) == "x^2 + 2*x*y + y^2"


def test_mpoly_stores_each_coefficient_in_one_form():
    p = MPoly(2, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 3), (0, 0): Fraction(0), (2, 0): 5})
    assert p.terms == {(1, 0): 2, (0, 1): Fraction(1, 3), (2, 0): 5}
    _assert_stored_form([p, p.monic(), p.scale(3), p * p, MPoly.const(2, Fraction(6, 3))])


def test_mpoly_refuses_floats_and_bools():
    # a float is not an exact value: 0.5 would be stored as the float 0.5
    for c in (0.5, 2.0, 0.0, True, False):
        with pytest.raises(InputError, match="not an exact rational"):
            MPoly(1, {(1,): c})
    with pytest.raises(InputError):
        MPoly.var(1, 0).scale(0.5)


def test_mpoly_normalized_strips_content_and_sign():
    x = MPoly.var(1, 0)
    p = x * MPoly.const(1, Fraction(-4, 6)) + MPoly.const(1, Fraction(-2, 3))
    n = p.normalized()
    assert n.format(["x"]) == "x + 1"
    # the content of a single term is the absolute value of its numerator
    assert MPoly(2, {(1, 0): -3}).normalized() == MPoly.var(2, 0)
    assert MPoly(2, {(0, 2): Fraction(-2, 3)}).normalized() == MPoly(2, {(0, 2): 1})


def test_repeated_normalization_leaves_traced_memory_flat():
    # lcm(*generator) and gcd(*generator) held memory on every call until a full collection;
    # with the collector off it piled up, over 0.7 MB in 30 rounds of these residuals
    polys = [e.poly for kind in ("rn", "reynolds", "rb:1", "mrb:1")
             for e in _raw_polys(CAT["mat2"], parse_kind(kind))]
    gc.disable()
    tracemalloc.start()
    try:
        for rounds in (10, 30):
            for _ in range(rounds):
                for q in polys:
                    q.normalized()
            traced = tracemalloc.get_traced_memory()[0]
            if rounds == 10:
                before = traced
    finally:
        tracemalloc.stop()
        gc.enable()
    assert traced - before < 1024


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=2),
                min_size=2, max_size=2))
def test_mpoly_evaluation_is_a_ring_homomorphism(point):
    x = MPoly.var(2, 0)
    y = MPoly.var(2, 1)
    p = x * x - y + MPoly.const(2, 3)
    q = x * y + MPoly.const(2, Fraction(1, 2))
    pt = [Fraction(v) for v in point]
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)


def _random_mpoly(rng: random.Random, nvars: int) -> MPoly:
    coeffs = (1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4))
    return MPoly(nvars, {tuple(rng.randrange(3) for _ in range(nvars)): rng.choice(coeffs)
                         for _ in range(rng.randrange(5))})


def test_compose_equals_evaluating_the_images():
    rng = random.Random(20261020)
    for k in range(4):
        for _ in range(60):
            f = _random_mpoly(rng, rng.randrange(4))
            images = [_random_mpoly(rng, k) for _ in range(f.nvars)]
            composed = f.compose(images, k)
            assert composed.nvars == k
            _assert_stored_form([composed])
            for _ in range(3):
                x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(k)]
                assert composed.evaluate(x) == f.evaluate([g.evaluate(x) for g in images])


def holds_at(system, m: Matrix) -> bool:
    """Does every polynomial of system vanish at the entries of m, in the order of P_r_c?"""
    point = [m.at(r, c) for r in range(m.rows) for c in range(m.cols)]
    return all(p.evaluate(point) == 0 for p in system.polynomials())


def test_entry_variables_row_major_names():
    assert entry_variables(2) == ["P_0_0", "P_0_1", "P_1_0", "P_1_1"]


def test_identity_system_size_for_pair3():
    system = build_identity_system(CAT["pair3"], KIND_RN)
    assert len(system.polynomials()) == 52
    assert max(p.total_degree() for p in system.polynomials()) == 3
    assert system.variables == entry_variables(3)


def test_system_agrees_with_direct_check_on_fixed_points():
    a = CAT["pair3"]
    system = build_identity_system(a, KIND_RN)
    for rows, expected in [
        ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], True),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], True),
        ([[1, 0, 0], [0, 0, 0], [0, 0, 1]], False),
        ([[0, 1, 0], [0, 0, 0], [0, 1, 0]], False),
    ]:
        p = operator(rows)
        assert holds_at(system, p) == expected
        # a point is a family with no parameters
        point = SymbolicMatrix.build(3, [], {(r, c): x for r, row in enumerate(rows)
                                             for c, x in enumerate(row)})
        assert verify_family(system, point).passed == expected
        assert check_operator(a, p, KIND_RN).passed == expected


def test_system_agreement_property_on_random_rationals():
    rng = random.Random(11)
    a = CAT["leftunit2"]
    for kind in (KIND_RN, KIND_NIJENHUIS, rota_baxter(-1)):
        system = build_identity_system(a, kind)
        for _ in range(30):
            p = Matrix.from_rows(
                [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(2)]
                 for _ in range(2)])
            assert holds_at(system, p) == check_operator(a, p, kind).passed


def test_family_residuals_for_middle_column_family():
    system = build_identity_system(CAT["pair3"], KIND_RN)
    family = SymbolicMatrix.build(3, ["v", "q"], {(0, 1): "v", (2, 1): "q"})
    report = verify_family(system, family)
    assert not report.passed
    assert [p.format(["v", "q"]) for p in report.residuals] == [
        "q^2", "v*q", "v*q^2", "v^2", "v^2*q"]


def test_family_single_parameter_on_first_column_passes():
    system = build_identity_system(CAT["pair3"], KIND_RN)
    family = SymbolicMatrix.build(3, ["u"], {(0, 0): "u"})
    report = verify_family(system, family)
    assert report.passed
    assert report.residuals == ()


def test_symbolic_matrix_instantiation_matches_direct_matrix():
    family = SymbolicMatrix.build(2, ["t"], {(0, 0): "t", (1, 1): Fraction(3)})
    m = Matrix.from_rows([[x.evaluate([Fraction(1, 2)]) for x in row] for row in family.entries])
    assert m.eq(Matrix.from_rows([[Fraction(1, 2), Fraction(0)],
                                  [Fraction(0), Fraction(3)]]))


BAD_FAMILY_ENTRIES = [
    ((-1, 1), "v", r"family entry \(-1, 1\): not a \(row, col\) pair in range\(3\)"),
    ((3, 0), "v", r"family entry \(3, 0\): not a \(row, col\) pair in range\(3\)"),
    ((0, 1.0), "v", r"family entry \(0, 1\.0\): not a \(row, col\) pair"),
    ((True, 1), "v", r"family entry \(True, 1\): not a \(row, col\) pair"),
    ((0, 1, 2), "v", r"family entry \(0, 1, 2\): not a \(row, col\) pair"),
    ((0, 1), "w", r"family entry \(0, 1\): unknown parameter 'w'"),
]


@pytest.mark.parametrize("key,name,message", BAD_FAMILY_ENTRIES)
def test_symbolic_matrix_refuses_keys_out_of_range_and_unknown_names(key, name, message):
    # (-1, 1) would wrap to the last row, and verify_family would report
    # the residuals of another family
    with pytest.raises(InputError, match=message):
        SymbolicMatrix.build(3, ["v", "q"], {key: name, (2, 1): "q"})


def test_evaluation_refuses_floats_and_bools():
    # 0.5 would give the float 0.5, not an exact value
    for x in (0.5, 1.0, True):
        with pytest.raises(InputError, match="not an exact rational"):
            MPoly.var(1, 0).evaluate([x])
    assert MPoly.var(1, 0).evaluate([Fraction(1, 2)]) == Fraction(1, 2)


def test_symbolic_matrix_instantiation_refuses_floats_and_bools():
    # 0.1 would become the entry 3602879701896397/36028797018963968
    family = SymbolicMatrix.build(1, ["t"], {(0, 0): "t"})
    for x in (0.1, False):
        with pytest.raises(InputError, match="not an exact rational"):
            family.entries[0][0].evaluate([x])
    assert family.entries[0][0].evaluate(["1/10"]) == Fraction(1, 10)


def test_groebner_textbook_circle_and_line():
    x = MPoly.var(2, 0)
    y = MPoly.var(2, 1)
    result = groebner_basis([x * x + y * y - MPoly.const(2, 1), x - y])
    assert result.complete
    assert [p.format(["x", "y"]) for p in result.basis] == ["x - y", "y^2 - 1/2"]


def test_groebner_of_rn_system_terminates():
    result = groebner_basis(build_identity_system(CAT["pair3"], KIND_RN).polynomials())
    assert result.complete
    assert len(result.basis) == 26


def test_groebner_of_trunc3_rn_completes_under_the_default_budget():
    result = groebner_basis(build_identity_system(CAT["trunc3"], KIND_RN).polynomials())
    assert result.complete
    assert len(result.basis) == 53


def test_groebner_budget_counts_reduced_pairs():
    polys = build_identity_system(CAT["pair3"], KIND_RN).polynomials()
    full = groebner_basis(polys)
    assert full.pairs_processed > 0 and full.pairs_skipped > 0
    exact = groebner_basis(polys, full.pairs_processed)
    assert exact.complete and exact.basis == full.basis
    short = groebner_basis(polys, full.pairs_processed - 1)
    assert not short.complete and short.basis is None
    assert short.pairs_processed == full.pairs_processed - 1


# Catalog systems whose basis groebner_basis finishes in under 5 s (trunc3
# reynolds, mat2 rn, reynolds and rb:+-1 do not).
SYMPY_CASES = ([(name, kind) for name in ("zero1", "leftunit2", "pair3", "trunc3")
                for kind in ("rn", "reynolds", "nijenhuis", "rb:1", "rb:-1", "mrb:1", "mrb:-1")
                if (name, kind) != ("trunc3", "reynolds")]
               + [("mat2", kind) for kind in ("mrb:1", "mrb:-1")])
# sympy.groebner takes about 10 s on mat2 nijenhuis, a third of the suite's
# time, so that case is compared with the sha256 of sympy's monic basis
# (_digest(_sympy_basis(system))), which equals ours when run live.
SYMPY_DIGESTS = {
    ("mat2", "nijenhuis"): "0ef0a1fae744a64f153cd50672cb967a3d119596a86cdad0b1f5914aef5bf327"}


def _grevlex(m: tuple[int, ...]):
    """Sort key of the graded reverse lexicographic order, written out independently."""
    return (sum(m), [-e for e in reversed(m)])


def _monic(terms: dict) -> tuple:
    """The (monomial, coefficient) pairs, sorted, divided by the grevlex leading coefficient."""
    lc = terms[max(terms, key=_grevlex)]
    return tuple(sorted((m, Fraction(c) / lc) for m, c in terms.items()))


def _sympy_basis(system) -> set:
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(system.variables)
    polys = [sympy.Poly.from_dict({m: sympy.Rational(c.numerator, c.denominator)
                                   for m, c in p.terms.items()}, *gens)
             for p in system.polynomials()]
    basis = sympy.groebner(polys, *gens, order="grevlex").polys if polys else []
    return {_monic({m: Fraction(int(c.p), int(c.q)) for m, c in g.terms()}) for g in basis}


def _digest(basis: set) -> str:
    return hashlib.sha256(repr(sorted(basis)).encode()).hexdigest()


@pytest.mark.parametrize("name,kind", SYMPY_CASES, ids=lambda v: str(v))
def test_groebner_basis_equals_sympy(name, kind):
    system = build_identity_system(CAT[name], parse_kind(kind))
    expected = _sympy_basis(system)
    result = groebner_basis(system.polynomials())
    assert result.complete
    assert len(result.basis) == len(expected)
    assert {_monic(g.terms) for g in result.basis} == expected


@pytest.mark.parametrize("name,kind", list(SYMPY_DIGESTS), ids=lambda v: str(v))
def test_groebner_basis_equals_frozen_sympy_basis(name, kind):
    result = groebner_basis(build_identity_system(CAT[name], parse_kind(kind)).polynomials())
    assert result.complete
    assert _digest({_monic(g.terms) for g in result.basis}) == SYMPY_DIGESTS[name, kind]


def _naive_lm(p: MPoly) -> tuple[int, ...]:
    return max(p.terms, key=_grevlex)


def _naive_normal_form(f: MPoly, basis: list[MPoly]) -> MPoly:
    """Textbook division: cancel the leading term by the first divisor, else move it out."""
    work, rest = dict(f.terms), {}
    while work:
        lm = _naive_lm(MPoly(f.nvars, work))
        for g in basis:
            gm = _naive_lm(g)
            if all(a <= b for a, b in zip(gm, lm)):
                q = [b - a for a, b in zip(gm, lm)]
                c = Fraction(work[lm]) / g.terms[gm]
                for m, v in g.terms.items():
                    m = tuple(a + b for a, b in zip(m, q))
                    work[m] = work.get(m, 0) - c * v
                    if not work[m]:
                        del work[m]
                break
        else:
            rest[lm] = work.pop(lm)
    return MPoly(f.nvars, rest)


def _naive_groebner(polys: list[MPoly]) -> list[MPoly]:
    """Buchberger over the full pair set with no criteria, then the reduced basis."""
    basis = [p for p in polys if not p.is_zero()]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        # oldest pair first: newest-first lets the basis grow for minutes on some inputs
        i, j = pairs.pop(0)
        f, g = basis[i], basis[j]
        fm, gm = _naive_lm(f), _naive_lm(g)
        l = tuple(max(a, b) for a, b in zip(fm, gm))
        s = (f.mul_term(tuple(a - b for a, b in zip(l, fm)), Fraction(1) / f.terms[fm])
             - g.mul_term(tuple(a - b for a, b in zip(l, gm)), Fraction(1) / g.terms[gm]))
        r = _naive_normal_form(s, basis)
        if not r.is_zero():
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(r)
    minimal = []
    for g in basis:
        gm = _naive_lm(g)
        if not any(all(a <= b for a, b in zip(_naive_lm(h), gm)) for h in minimal):
            minimal = [h for h in minimal if not all(a <= b for a, b in zip(gm, _naive_lm(h)))]
            minimal.append(g)
    reduced = [_naive_normal_form(g, [h for h in minimal if h is not g]) for g in minimal]
    return sorted((g.scale(Fraction(1) / g.terms[_naive_lm(g)]) for g in reduced),
                  key=lambda g: _grevlex(_naive_lm(g)))


@st.composite
def _small_systems(draw, coeffs=st.integers(-3, 3).filter(bool)):
    nvars = draw(st.integers(2, 3))
    monos = [m for m in itertools.product(range(3), repeat=nvars) if sum(m) <= 2]
    polys = draw(st.lists(st.dictionaries(st.sampled_from(monos), coeffs, min_size=1,
                                          max_size=4), min_size=2, max_size=4))
    return [MPoly(nvars, {m: Fraction(c) for m, c in p.items()}) for p in polys]


@settings(max_examples=60, deadline=None)
@given(_small_systems())
def test_groebner_basis_equals_naive_buchberger(polys):
    result = groebner_basis(polys)
    assert result.complete
    assert result.basis == _naive_groebner(polys)


@settings(max_examples=60, deadline=None)
@given(_small_systems(st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3)))
                      .filter(bool)))
def test_groebner_basis_with_halves_and_thirds_equals_naive_buchberger(polys):
    result = groebner_basis(polys)
    assert result.complete
    assert result.basis == _naive_groebner(polys)
    reduction = linear_reduce(polys)
    _assert_stored_form(polys + result.basis + reduction.residual
                        + [r for _, r in reduction.constraints])


def test_enumeration_mod_2_on_pair3():
    result = enumerate_mod_p(CAT["pair3"], KIND_RN, 2)
    assert result.prime == 2
    # 32 for the content-normalized system, whose even residuals were halved
    assert len(result.solutions) == 56
    sols = set(result.solutions)
    assert (0,) * 9 in sols
    assert (1, 0, 0, 0, 1, 0, 0, 0, 1) in sols
    assert (1, 0, 0, 0, 0, 0, 0, 0, 0) in sols
    assert (0, 0, 0, 0, 0, 0, 0, 0, 1) in sols


def _compile_terms(polys: list[MPoly], p: int) -> list:
    """The per-term compile: each term of each MPoly, numerator times the inverse of its
    denominator mod p, with its exponent tuple as variable indices repeated by exponent."""
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


def _naive_mod_p(a, kind, p) -> list[tuple[int, ...]]:
    """The full scan: test every compiled residual at every point of F_p^(dim^2)."""
    return _scan(_compile_terms([e.poly for e in _raw_polys(a, kind)], p), a.dim * a.dim, p)


def _scan(compiled, n, p) -> list[tuple[int, ...]]:
    """The points of F_p^n where every compiled residual vanishes, one point at a time."""
    solutions = []
    for point in itertools.product(range(p), repeat=n):
        ok = True
        for terms in compiled:
            acc = 0
            for c, factors in terms:
                v = c
                for i in factors:
                    v *= point[i]
                acc += v
            if acc % p:
                ok = False
                break
        if ok:
            solutions.append(point)
    return solutions


def _unimodular(dim: int, rng: random.Random):
    """T = (I + E_{0,dim-1}) D for random signs D, and its exact inverse."""
    d = [rng.choice((1, -1)) for _ in range(dim)]
    corner = [[int(dim > 1 and (i, j) == (0, dim - 1)) for j in range(dim)] for i in range(dim)]
    t = [[(int(i == j) + corner[i][j]) * d[j] for j in range(dim)] for i in range(dim)]
    tinv = [[d[i] * (int(i == j) - corner[i][j]) for j in range(dim)] for i in range(dim)]
    return t, tinv


def _change_basis(a: Algebra, t, tinv) -> Algebra:
    """The algebra in the basis f_i = sum_r t[r][i] e_r."""
    n = range(a.dim)
    return Algebra.from_sparse(a.dim, [(i, j, k, sum(t[r][i] * t[s][j] * a.c[r][s][u] * tinv[k][u]
                                                     for r in n for s in n for u in n))
                                       for i in n for j in n for k in n])


def _conjugate_mod_p(point, t, tinv, p) -> tuple[int, ...]:
    """The entries of tinv P t mod p, for P the row-major point."""
    n = range(len(t))
    return tuple(sum(tinv[r][x] * point[x * len(t) + y] * t[y][c] for x in n for y in n) % p
                 for r in n for c in n)


KINDS = ("rn", "reynolds", "nijenhuis", "rb:1", "rb:-1", "mrb:1", "mrb:-1")
SCAN_CASES = [(name, p) for name in CAT for p in (2, 3, 5) if p ** (CAT[name].dim ** 2) <= 65536]


@pytest.mark.parametrize("name,p", SCAN_CASES, ids=lambda v: str(v))
def test_enumeration_equals_the_full_scan(name, p):
    a = CAT[name]
    t, tinv = _unimodular(a.dim, random.Random(f"{name}:{p}"))
    copy = _change_basis(a, t, tinv)
    for kind in map(parse_kind, KINDS):
        expected = _naive_mod_p(a, kind, p)
        assert enumerate_mod_p(a, kind, p).solutions == expected
        # the copy's solutions are the scan's, conjugated by the change of basis
        moved = sorted(_conjugate_mod_p(s, t, tinv, p) for s in expected)
        assert enumerate_mod_p(copy, kind, p).solutions == moved


def test_enumeration_on_a_copy_equals_the_scan_of_the_copy():
    a = CAT["trunc3"]
    t, tinv = _unimodular(a.dim, random.Random(5))
    copy = _change_basis(a, t, tinv)
    assert copy.is_associative()
    for kind in map(parse_kind, KINDS):
        assert enumerate_mod_p(copy, kind, 3).solutions == _naive_mod_p(copy, kind, 3)


def test_enumeration_budget_caps_the_nodes_visited(monkeypatch):
    # mat2 RN at p=3 (3^16 matrices) takes 2,899 nodes, far below the default 50,000
    monkeypatch.setenv("RN_BUDGET", "2899")
    solutions = enumerate_mod_p(CAT["mat2"], KIND_RN, 3).solutions
    # the list perfbench/oracle.py's solutions_mod_p gives by brute force (a run of over an hour)
    assert len(solutions) == 74
    assert hashlib.sha256(repr(solutions).encode()).hexdigest() == (
        "25b8e86addbcd41da5481e3f663b1f29de2e65c9451cb378797d2d73ba34f87f")
    monkeypatch.setenv("RN_BUDGET", "2898")
    with pytest.raises(BudgetError,
                       match=r"^mod-p enumeration stage: 2899 nodes visited, cap 2898$"):
        enumerate_mod_p(CAT["mat2"], KIND_RN, 3)
    monkeypatch.setenv("RN_BUDGET", "100")
    with pytest.raises(BudgetError,
                       match=r"^mod-p enumeration stage: 101 nodes visited, cap 100$"):
        enumerate_mod_p(CAT["mat2"], KIND_RN, 3)


def _quadratic_search_order(vars_of: list[set[int]], occ: list[list[int]]) -> list[int]:
    """The search order by its definition: every step rescans each variable's residuals."""
    left, order = [set(vs) for vs in vars_of], []
    while len(order) < len(occ):
        x = max(set(range(len(occ))) - set(order),
                key=lambda x: (sum(left[r] == {x} for r in occ[x]), len(occ[x]), -x))
        order.append(x)
        for r in occ[x]:
            left[r].discard(x)
    return order


@pytest.mark.parametrize("name", CAT)
def test_search_order_equals_the_quadratic_rescan(name):
    a, n = CAT[name], CAT[name].dim ** 2
    for kind, p in itertools.product(map(parse_kind, KINDS), (2, 3, 5)):
        compiled = _compile_mod_p([t for *_, t in _raw_residuals(a, kind)], n, p)
        vars_of = [{i for _, f in terms for i in f} for terms in compiled]
        occ = [[r for r, vs in enumerate(vars_of) if x in vs] for x in range(n)]
        order = _search_order(vars_of, occ)
        assert order == _quadratic_search_order(vars_of, occ), (kind, p)
        assert sorted(order) == list(range(n))


def test_search_order_on_hand_made_residuals():
    # x2 alone completes two residuals; then x0 and x1 tie on both counts, and x0 is least
    vars_of = [{2}, {2}, {0, 1}, {0, 3}, {1, 3}]
    occ = [[r for r, vs in enumerate(vars_of) if x in vs] for x in range(5)]
    assert _search_order(vars_of, occ) == _quadratic_search_order(vars_of, occ) == [2, 0, 1, 3, 4]


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # x_(i+1) - x_i over F_3 for 1100 variables: one branch forces the whole chain
    n = 1100
    chain = [[(1, (i + 1,)), (2, (i,))] for i in range(n - 1)]
    assert _search_mod_p(chain, n, 3, 4) == ([(v,) * n for v in range(3)], 4)
    # no residuals: the first path down is n + 1 nodes deep
    with pytest.raises(BudgetError, match="1201 nodes visited, cap 1200"):
        _search_mod_p([], n, 2, 1200)


def _reference_search(compiled: list, n: int, p: int, cap: int):
    """The search before residuals kept their linear coefficients: every test multiplies out
    the residual's terms.  Returns the sorted solutions and the nodes visited."""
    vars_of = [{i for _, f in terms for i in f} for terms in compiled]
    linear = [{i for i in vs if all(f.count(i) < 2 for _, f in terms)}
              for vs, terms in zip(vars_of, compiled)]
    occ = [[r for r, vs in enumerate(vars_of) if x in vs] for x in range(n)]
    left, order = [set(vs) for vs in vars_of], []
    while len(order) < n:
        x = max(set(range(n)) - set(order),
                key=lambda x: (sum(left[r] == {x} for r in occ[x]), len(occ[x]), -x))
        order.append(x)
        for r in occ[x]:
            left[r].discard(x)
    val, free, trail, solutions, nodes = [None] * n, [len(vs) for vs in vars_of], [], [], 0

    def examine(r: int, forced: list) -> bool:
        x = next((i for i in vars_of[r] if val[i] is None), None)
        if x is not None and x not in linear[r]:
            return True
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
    while stack:
        k, v, mark = stack.pop()
        while len(trail) > mark:
            x = trail.pop()
            val[x] = None
            for r in occ[x]:
                free[r] += 1
        if propagate([(order[k], v)]):
            stack += visit(k + 1)
    return sorted(solutions), nodes


def _random_compiled(rng: random.Random, n: int, p: int, degree: int = 3) -> list:
    """Residuals as _compile_mod_p makes them, of degree <= degree, squares and constants
    included, with a duplicate residual and two residuals that force one entry to different
    values.  Most residuals vanish at one random point, so most systems have solutions."""
    g, x = rng.sample(range(n), 2)
    z = [rng.randrange(p) for _ in range(n)]
    z[g] = 0

    def residual():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[tuple(sorted(rng.choices(range(n), k=rng.randint(1, degree))))] = (
                rng.randrange(1, p))
        at_z = sum(c * math.prod(z[i] for i in f) for f, c in terms.items())
        terms[()] = (rng.random() < 0.1) - at_z
        return [(c % p, f) for f, c in terms.items() if c % p]

    compiled = [residual() for _ in range(rng.randint(1, n + 1))]
    compiled.append(list(rng.choice(compiled)))
    # g * (x - 1) and g * (x - 2): once g is a unit, the two force x to 1 and to 2 mod p
    for v in (1, 2 % p):
        compiled.insert(rng.randrange(len(compiled) + 1),
                        [(1, tuple(sorted((g, x))))] + ([(p - v, (g,))] if v else []))
    return compiled


@pytest.mark.parametrize("p", (2, 3, 5))
def test_search_equals_the_full_scan_and_visits_the_reference_nodes(p):
    rng = random.Random(f"search:{p}")
    degrees = set()
    # the degree-3 systems, then 20 of degree up to 5: the search assumes no degree bound
    for degree in [3] * {2: 60, 3: 50, 5: 25}[p] + [5] * 20:
        n = rng.randint(2, 6 if p < 5 else 5)
        compiled = _random_compiled(rng, n, p, degree)
        degrees |= {len(f) for terms in compiled for _, f in terms}
        solutions, nodes = _search_mod_p(compiled, n, p, 10 ** 6)
        assert solutions == _scan(compiled, n, p)
        assert (solutions, nodes) == _reference_search(compiled, n, p, 10 ** 6)
    assert {4, 5} <= degrees


def _wide_compiled(rng: random.Random, n: int, p: int) -> list:
    """Residuals over n variables that vanish at one random point: x_i + c x_j x_k + d for
    each i > 0 with j < i, so most entries are forced, and n // 10 cubic ones, shuffled."""
    z = [rng.randrange(p) for _ in range(n)]

    def vanishing(terms):
        terms.append((-sum(c * math.prod(z[i] for i in f) for c, f in terms), ()))
        return [(c % p, f) for c, f in terms if c % p]

    compiled = [vanishing([(1, (i,)), (rng.randrange(1, p),
                                       tuple(sorted((rng.randrange(i), rng.randrange(n)))))])
                for i in range(1, n)]
    compiled += [vanishing([(rng.randrange(1, p), tuple(sorted(rng.choices(range(n), k=3))))
                            for _ in range(2)]) for _ in range(n // 10)]
    rng.shuffle(compiled)
    return compiled


@pytest.mark.parametrize("p", (2, 3))
def test_search_past_a_machine_word_of_variables_visits_the_reference_nodes(p):
    # 100 variables: the set-variable bitmask is wider than 64 bits
    for seed in range(3):
        compiled = _wide_compiled(random.Random(f"wide:{p}:{seed}"), 100, p)
        solutions, nodes = _search_mod_p(compiled, 100, p, 10 ** 6)
        assert solutions and nodes > 50
        assert (solutions, nodes) == _reference_search(compiled, 100, p, 10 ** 6)


@pytest.mark.parametrize("name,p,nodes", [("mat2", 2, 404), ("mat2", 3, 2899),
                                          ("pair3", 3, 285), ("trunc3", 3, 68)])
def test_enumeration_reports_the_nodes_visited(name, p, nodes):
    result = enumerate_mod_p(CAT[name], KIND_RN, p)
    assert result.nodes == nodes
    # the count is evidence about the search, not part of the answer
    assert "nodes" not in enumeration_result_dict(result)


def _halved(a: Algebra) -> Algebra:
    """The algebra in the basis f_i = e_i / 2, where f_i f_j = sum_k c_ij^k f_k / 2."""
    half = [[Fraction(int(i == j), 2) for j in range(a.dim)] for i in range(a.dim)]
    return _change_basis(a, half, [[2 * int(i == j) for j in range(a.dim)] for i in range(a.dim)])


LEFTUNIT2_HALVED = _halved(CAT["leftunit2"])


def test_enumeration_with_non_integral_structure_constants_equals_the_full_scan():
    a = LEFTUNIT2_HALVED
    assert a.is_associative() and a.c[0][0][0] == Fraction(1, 2)
    for kind in map(parse_kind, KINDS):
        for p in (3, 5):
            assert enumerate_mod_p(a, kind, p).solutions == _naive_mod_p(a, kind, p)
        with pytest.raises(InputError, match="not defined mod 2"):
            enumerate_mod_p(a, kind, 2)


@pytest.mark.parametrize("name", [*CAT, "leftunit2-halved"])
def test_packed_compile_equals_the_per_term_compile(name):
    # every (kind, p) that enumerate_mod_p accepts: its residuals, terms, coefficients and
    # factor tuples, in order, are those of the MPoly terms compiled one by one
    a = LEFTUNIT2_HALVED if name == "leftunit2-halved" else CAT[name]
    accepted = 0
    for kind in map(parse_kind, ORACLE_KINDS):
        raw = _raw_residuals(a, kind)
        polys = [e.poly for e in _raw_polys(a, kind)]
        for p in (2, 3, 5):
            if any(v.denominator % p == 0 for *_, v in a.triples()) or (
                    kind.weight is not None and kind.weight.denominator % p == 0):
                with pytest.raises(InputError, match=f"not defined mod {p}"):
                    enumerate_mod_p(a, kind, p)
                continue
            accepted += 1
            compiled = _compile_mod_p([t for *_, t in raw], a.dim ** 2, p)
            assert compiled == _compile_terms(polys, p), (kind, p)
    # of the 27, rb:1/2 is refused at 2 and mrb:-2/3 at 3, and every halved system at 2
    assert accepted == (17 if a is LEFTUNIT2_HALVED else 25)


def test_enumeration_builds_no_mpoly(monkeypatch):
    # the F_p path compiles _raw_residuals' packed dicts; only the system over Q makes MPolys
    cases = [(CAT["pair3"], KIND_RN, 2), (CAT["leftunit2"], parse_kind("reynolds"), 5),
             (LEFTUNIT2_HALVED, parse_kind("rb:1/2"), 3)]
    expected = [enumerate_mod_p(*case) for case in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("an MPoly was built")

    monkeypatch.setattr(polysys, "MPoly", refuse)
    assert [enumerate_mod_p(*case) for case in cases] == expected
    assert [r.solutions for r in expected] == [_naive_mod_p(*case) for case in cases]
    with pytest.raises(AssertionError, match="an MPoly was built"):
        build_identity_system(*cases[0][:2])


@pytest.mark.parametrize("name", [*CAT, "leftunit2-halved"])
def test_systems_and_linear_reductions_keep_the_stored_form(name):
    a = LEFTUNIT2_HALVED if name == "leftunit2-halved" else CAT[name]
    for kind in map(parse_kind, KINDS):
        raw = [e.poly for e in _raw_polys(a, kind)]
        system = build_identity_system(a, kind)
        reduction = linear_reduce(system.polynomials())
        _assert_stored_form(raw + system.polynomials() + reduction.residual
                            + [r for _, r in reduction.constraints])
        if a is LEFTUNIT2_HALVED:  # each structure constant is 0 or 1/2
            assert all(type(c) is Fraction for p in raw for c in p.terms.values())


def test_enumeration_rejects_non_prime_modulus():
    with pytest.raises(InputError):
        enumerate_mod_p(CAT["pair3"], KIND_RN, 4)


def test_enumeration_reduces_structure_constants_not_normalized_residuals():
    # e0 e0 = 3 e0 is the zero algebra over F_3, where every operator is RN
    a = Algebra.from_sparse(1, [(0, 0, 0, Fraction(3))])
    assert enumerate_mod_p(a, KIND_RN, 3).solutions == [(0,), (1,), (2,)]
    assert enumerate_mod_p(a, KIND_RN, 2).solutions == [(0,), (1,)]
    # e0 e0 = 1/3 e0 has no reduction mod 3
    a = Algebra.from_sparse(1, [(0, 0, 0, Fraction(1, 3))])
    with pytest.raises(InputError, match="not defined mod 3"):
        enumerate_mod_p(a, KIND_RN, 3)
    assert enumerate_mod_p(a, KIND_RN, 2).solutions == [(0,), (1,)]


def test_linear_reduce_on_pair3_rn_system():
    reduction = linear_reduce(build_identity_system(CAT["pair3"], KIND_RN).polynomials())
    assert not reduction.inconsistent
    assert reduction.constraints == []
    assert len(reduction.residual) == 32


def test_linear_reduce_substitutes_linear_constraints():
    # x = 1 makes x*y - y vanish and x + y linear, so y = -1 follows too
    x = MPoly.var(2, 0)
    y = MPoly.var(2, 1)
    one = MPoly.const(2, 1)
    reduction = linear_reduce([x - one, x * y - y, x + y])
    assert not reduction.inconsistent
    assert reduction.residual == []
    zeros = [Fraction(0), Fraction(0)]
    solved = {var: poly.evaluate(zeros) for var, poly in reduction.constraints}
    assert solved == {0: Fraction(1), 1: Fraction(-1)}


def test_linear_reduce_detects_inconsistency():
    x = MPoly.var(1, 0)
    one = MPoly.const(1, 1)
    reduction = linear_reduce([x - one, x])
    assert reduction.inconsistent


class _MPolyVec(list):
    """A coordinate vector of MPolys, one MPoly per coordinate of every operation."""

    def add(self, other):
        return _MPolyVec(map(add, self, other))

    def sub(self, other):
        return _MPolyVec(map(sub, self, other))

    def scale(self, c):
        return _MPolyVec(x.scale(c) for x in self)


def _mpoly_residuals(a: Algebra, kind) -> list:
    """The identity residuals built on vectors of MPolys with exponent tuples throughout."""
    dim, n = a.dim, a.dim ** 2
    pairs: dict = {}
    for (k, ij), v in a.mu.entries.items():
        pairs.setdefault(divmod(ij, dim), []).append((k, v))

    def mul(x, y):
        out = [{} for _ in x]
        for (i, j), consts in pairs.items():
            for m1, c1 in x[i].terms.items():
                for m2, c2 in y[j].terms.items():
                    m, c = tuple(map(add, m1, m2)), c1 * c2
                    for k, cv in consts:
                        out[k][m] = out[k].get(m, 0) + c * cv
        return _MPolyVec(MPoly(n, t) for t in out)

    def apply(vec):
        out = [{} for _ in range(dim)]
        for c, x in enumerate(vec):
            for m, v in x.terms.items():
                for r, acc in enumerate(out):
                    i = r * dim + c
                    mi = m[:i] + (m[i] + 1,) + m[i + 1:]
                    acc[mi] = acc.get(mi, 0) + v
        return _MPolyVec(MPoly(n, t) for t in out)

    cols = [[MPoly.var(n, r * dim + c) for r in range(dim)] for c in range(dim)]
    basis = [[MPoly.const(n, int(r == i)) for r in range(dim)] for i in range(dim)]
    return [SystemPolynomial(i, j, k, ident, poly)
            for i in range(dim) for j in range(dim)
            for ident in _component_identities(kind)
            for k, poly in enumerate(identity_residual(ident, kind.weight, mul, apply,
                                                       basis[i], basis[j], cols[i], cols[j]))]


def _compose_linear_reduce(polys: list[MPoly]):
    """linear_reduce by MPoly.compose: every round sends each member through the images of
    all variables, and members are told apart by key().  Returns comparable fields."""
    if not polys:
        return [], [], False
    nv = polys[0].nvars
    work = {q.key(): q for q in (p.normalized() for p in polys) if not q.is_zero()}
    constraints: dict = {}
    while True:
        linear = [q for q in work.values() if q.total_degree() == 1]
        if not linear:
            break
        target = min(linear, key=MPoly.key)
        lm = target.leading_monomial()
        var = next(i for i, e in enumerate(lm) if e)
        lc = target.terms[lm]
        rhs = (MPoly(nv, {lm: lc}) - target).scale(Fraction(1) / lc)
        images = [MPoly.var(nv, i) for i in range(nv)]
        images[var] = rhs
        constraints = {v: r.compose(images, nv) for v, r in constraints.items()}
        constraints[var] = rhs
        work = {s.key(): s for s in (q.compose(images, nv).normalized()
                                     for q in work.values() if q is not target)
                if not s.is_zero()}
    residual = sorted(work.values(), key=MPoly.key)
    return ([(v, list(r.terms.items())) for v, r in sorted(constraints.items())],
            [list(r.terms.items()) for r in residual],
            any(r.total_degree() == 0 for r in residual))


def _reduction_fields(reduction) -> tuple:
    """Every field of a LinearReduction, with the terms of each polynomial in order."""
    return ([(v, list(r.terms.items())) for v, r in reduction.constraints],
            [list(r.terms.items()) for r in reduction.residual], reduction.inconsistent)


def _entry_fields(entries) -> list:
    """Every field of each SystemPolynomial, with the terms in insertion order."""
    return [(e.i, e.j, e.coord, e.identity, e.poly.nvars, list(e.poly.terms.items()))
            for e in entries]


def _oracle_algebras() -> dict:
    """The catalog, a unimodular change of basis of each, and each in the basis e_i / 2."""
    out = {}
    for name, a in CAT.items():
        out[name] = a
        out[name + "-moved"] = _change_basis(a, *_unimodular(a.dim, random.Random(name)))
        out[name + "-halved"] = _halved(a)
    return out


ORACLE_ALGEBRAS = _oracle_algebras()
ORACLE_KINDS = KINDS + ("rb:1/2", "mrb:-2/3")


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_identity_systems_equal_the_mpoly_vector_builder(name):
    a = ORACLE_ALGEBRAS[name]
    for kind in map(parse_kind, ORACLE_KINDS):
        expected = _mpoly_residuals(a, kind)
        raw = _raw_polys(a, kind)
        assert _entry_fields(raw) == _entry_fields(expected), kind
        assert all(type(m) is tuple and len(m) == a.dim ** 2
                   for e in raw for m in e.poly.terms), kind
        system = build_identity_system(a, kind)
        assert _entry_fields(system.entries) == _entry_fields(
            [e._replace(poly=e.poly.normalized()) for e in expected if not e.poly.is_zero()])
        assert _reduction_fields(linear_reduce(system.polynomials())) == (
            _compose_linear_reduce(system.polynomials())), kind


@st.composite
def _reducible_systems(draw):
    # linear members next to members with exponents up to 3, so rhs^e is expanded for e > 1
    nvars = draw(st.integers(1, 4))
    coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.sampled_from((1, 2, 3)))
    affine = [tuple(int(i == j) for i in range(nvars)) for j in range(nvars + 1)]
    member = st.one_of(
        st.dictionaries(st.sampled_from(affine), coeffs, min_size=1, max_size=3),
        st.dictionaries(st.tuples(*[st.integers(0, 3)] * nvars), coeffs, max_size=5))
    return [MPoly(nvars, t) for t in draw(st.lists(member, min_size=1, max_size=6))]


@settings(max_examples=150, deadline=None)
@given(_reducible_systems())
def test_linear_reduce_equals_the_compose_reduction(polys):
    assert _reduction_fields(linear_reduce(polys)) == _compose_linear_reduce(polys)
