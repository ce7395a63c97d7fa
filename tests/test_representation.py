"""Bimodule axioms, operator compatibility conditions, induced actions."""

from __future__ import annotations

from fractions import Fraction

import pytest

from rnalg.catalog import catalog, operator
from rnalg.errors import InputError
from rnalg.exactlin import Matrix
from rnalg.representation import (Bimodule, BimoduleReport, RNRepresentationReport,
                                  check_bimodule, check_rn_representation,
                                  induce_representation, induced_actions,
                                  regular_representation)

CAT = catalog()


def _zero(dim):
    return Matrix.zeros(dim, dim)


def _ident(dim):
    return Matrix.identity(dim)


def test_regular_bimodule_satisfies_standard_profile_everywhere():
    for name, a in CAT.items():
        m = regular_representation(a, _zero(a.dim))
        assert check_bimodule(a, m).passed_standard, name


def test_regular_representation_of_zero_operator_passes_both_checks():
    a = CAT["leftunit2"]
    m = regular_representation(a, _zero(2))
    assert check_bimodule(a, m).passed_standard
    assert check_rn_representation(a, _zero(2), m).passed


def test_zero_operator_always_satisfies_the_conditions():
    for name, a in CAT.items():
        m = regular_representation(a, _zero(a.dim))
        assert check_rn_representation(a, _zero(a.dim), m).passed, name


def test_identity_operator_conditions_depend_on_commutativity():
    # the exchange conditions force commuting right actions at P = Id,
    # so noncommutative bases fail while commutative ones pass
    outcomes = {}
    for name, a in CAT.items():
        m = regular_representation(a, _ident(a.dim))
        outcomes[name] = check_rn_representation(a, _ident(a.dim), m).passed
    assert outcomes == {"zero1": True, "leftunit2": False, "pair3": True,
                        "mat2": False, "trunc3": True}


def test_identity_operator_failure_names_the_right_exchange():
    a = CAT["leftunit2"]
    m = regular_representation(a, _ident(2))
    report = check_rn_representation(a, _ident(2), m)
    assert not report.passed
    assert {v.condition for v in report.violations} == {"right-operator-exchange"}


def test_rn_operator_can_fail_the_intertwine_condition():
    # P e0 = e1 passes both defining identities yet xi . l(a) = l(P a) . xi fails
    a = CAT["leftunit2"]
    p = operator([[0, 0], [1, 0]])
    m = regular_representation(a, p)
    report = check_rn_representation(a, p, m)
    assert not report.passed
    assert "xi-left-intertwine" in {v.condition for v in report.violations}


def test_check_rn_representation_requires_xi():
    a = CAT["leftunit2"]
    m = Bimodule(2, [a.left_mult_matrix(i) for i in range(2)],
                 [a.right_mult_matrix(i) for i in range(2)])
    with pytest.raises(InputError):
        check_rn_representation(a, _zero(2), m)


def test_induced_actions_formula_on_fixed_instance():
    # l'(a) = l(a) xi - xi l(a) + l(P a) with xi = P
    a = CAT["pair3"]
    p = operator([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    m = regular_representation(a, p)
    left, right = induced_actions(a, p, m)
    for i in range(3):
        pa = p.col_list(i)
        expect = m.left[i].mul(p).sub(p.mul(m.left[i])).add(m.left_of(pa))
        assert left[i].eq(expect)
        expect_r = m.right[i].mul(p).sub(p.mul(m.right[i])).add(m.right_of(pa))
        assert right[i].eq(expect_r)


def test_induce_representation_from_zero_operator_is_valid():
    for name, a in CAT.items():
        m = regular_representation(a, _zero(a.dim))
        out = induce_representation(a, _zero(a.dim), m)
        assert check_bimodule(a, out).passed_standard, name
        assert check_rn_representation(a, _zero(a.dim), out).passed, name
        # with xi = 0 the twisted actions collapse to zero maps
        assert all(x.is_zero() for x in out.left)
        assert all(x.is_zero() for x in out.right)


def test_induce_representation_rejects_invalid_premise():
    a = CAT["leftunit2"]
    p = operator([[0, 0], [1, 0]])
    m = regular_representation(a, p)
    with pytest.raises(InputError):
        induce_representation(a, p, m)


def test_induce_representation_unvalidated_still_reports():
    a = CAT["leftunit2"]
    p = operator([[0, 0], [1, 0]])
    m = regular_representation(a, p)
    out = induce_representation(a, p, m, validate=False)
    assert isinstance(check_bimodule(a, out), BimoduleReport)
    assert isinstance(check_rn_representation(a, p, out), RNRepresentationReport)


def test_bimodule_shape_mismatch_is_an_input_error():
    a = CAT["pair3"]
    m = regular_representation(CAT["leftunit2"], _zero(2))
    with pytest.raises(InputError):
        check_bimodule(a, m)
