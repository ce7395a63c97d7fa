"""Polynomial machinery: sparse arithmetic, identity systems, Groebner, enumeration."""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnalg.algebra import (KIND_NIJENHUIS, KIND_RN, Algebra, check_operator, parse_kind,
                           rota_baxter)
from rnalg.catalog import catalog, operator
from rnalg.errors import BudgetError, InputError
from rnalg.exactlin import Matrix
from rnalg.polysys import (MPoly, SymbolicMatrix, _compile_mod_p, _raw_residuals,
                           _search_mod_p, build_identity_system, entry_variables,
                           enumerate_mod_p, groebner_basis, linear_reduce, solution_matrix,
                           verify_family)

CAT = catalog()


def _assert_stored_form(polys) -> None:
    """Every coefficient is an int or a Fraction with denominator > 1: no float, no n/1."""
    for p in polys:
        for c in p.terms.values():
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1), (p, c)


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


def test_entry_variables_row_major_names():
    assert entry_variables(2) == ["P_0_0", "P_0_1", "P_1_0", "P_1_1"]


def test_identity_system_size_for_pair3():
    system = build_identity_system(CAT["pair3"], KIND_RN)
    assert len(system.polynomials()) == 52
    assert system.max_total_degree() == 3
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
        assert system.holds_at(p) == expected
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
            assert system.holds_at(p) == check_operator(a, p, kind).passed


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
    m = family.instantiate([Fraction(1, 2)])
    assert m.eq(Matrix.from_rows([[Fraction(1, 2), Fraction(0)],
                                  [Fraction(0), Fraction(3)]]))


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


def _naive_mod_p(a, kind, p) -> list[tuple[int, ...]]:
    """The full scan: test every compiled residual at every point of F_p^(dim^2)."""
    compiled = _compile_mod_p([e.poly for e in _raw_residuals(a, kind)], p)
    solutions = []
    for point in itertools.product(range(p), repeat=a.dim * a.dim):
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
    return Algebra(a.dim, [[[sum(t[r][i] * t[s][j] * a.c[r][s][u] * tinv[k][u]
                                 for r in n for s in n for u in n)
                             for k in n] for j in n] for i in n])


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


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # x_(i+1) - x_i over F_3 for 1100 variables: one branch forces the whole chain
    n = 1100
    chain = [[(1, (i + 1,)), (2, (i,))] for i in range(n - 1)]
    assert _search_mod_p(chain, n, 3, 4) == [(v,) * n for v in range(3)]
    # no residuals: the first path down is n + 1 nodes deep
    with pytest.raises(BudgetError, match="1201 nodes visited, cap 1200"):
        _search_mod_p([], n, 2, 1200)


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
def test_systems_and_linear_reductions_keep_the_stored_form(name):
    a = LEFTUNIT2_HALVED if name == "leftunit2-halved" else CAT[name]
    for kind in map(parse_kind, KINDS):
        raw = [e.poly for e in _raw_residuals(a, kind)]
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


def test_solution_matrix_reshapes_row_major():
    m = solution_matrix((1, 0, 0, 0, 0, 0, 0, 0, 1), 3)
    assert m.at(0, 0) == 1 and m.at(2, 2) == 1 and m.at(1, 1) == 0


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
