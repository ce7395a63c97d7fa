"""Polynomial machinery: sparse arithmetic, identity systems, Groebner, enumeration."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnalg.algebra import KIND_NIJENHUIS, KIND_RN, Algebra, check_operator, rota_baxter
from rnalg.catalog import catalog, operator
from rnalg.errors import InputError
from rnalg.exactlin import Matrix
from rnalg.polysys import (MPoly, SymbolicMatrix, build_identity_system,
                           entry_variables, enumerate_mod_p, groebner_basis,
                           linear_reduce, solution_matrix, verify_family)

CAT = catalog()


def test_mpoly_binomial_square():
    x = MPoly.var(2, 0)
    y = MPoly.var(2, 1)
    lhs = (x + y) * (x + y)
    rhs = x * x + x * y * MPoly.const(2, 2) + y * y
    assert lhs == rhs
    assert lhs.format(["x", "y"]) == "x^2 + 2*x*y + y^2"


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
    assert len(result.basis) > 0


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
