"""Bimodule axioms, operator compatibility conditions, induced actions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from rnalg.audit import build_fixtures
from rnalg.catalog import catalog, operator
from rnalg.cohomology import ComplexBuilder
from rnalg.errors import InputError
from rnalg.exactlin import Matrix
from rnalg.representation import (Bimodule, BimoduleReport, ProfileReport, check_bimodule,
                                  check_rn_representation, induce_representation,
                                  induced_actions, regular_representation)

CAT = catalog()


def _zero(dim):
    return Matrix.zeros(dim, dim)


def _ident(dim):
    return Matrix.identity(dim)


# --- per-pair reference: each action extended to a vector as a sum of scaled
# matrices, and every axiom and condition evaluated on one basis element or pair


def _extend(actions, vec, dim_v):
    out = Matrix.zeros(dim_v, dim_v)
    for i, x in enumerate(vec):
        if x:
            out = out.add(actions[i].scale(x))
    return out


def _nonzero(checks):
    return [(cond, idx, tuple(tuple(r) for r in diff.to_rows()))
            for cond, idx, diff in checks if not diff.is_zero()]


def _reference_axioms(a, m, rho):
    checks = []
    for i in range(a.dim):
        checks.append(("rho-left-commute", (i,), rho.mul(m.left[i]).sub(m.left[i].mul(rho))))
        checks.append(("rho-right-commute", (i,), rho.mul(m.right[i]).sub(m.right[i].mul(rho))))
    for i in range(a.dim):
        for j in range(a.dim):
            prod = a.mu.col_list(i * a.dim + j)
            lp, rp = _extend(m.left, prod, m.dim_v), _extend(m.right, prod, m.dim_v)
            checks.append(("left-action-multiplicative", (i, j),
                           lp.mul(rho).sub(m.left[i].mul(m.left[j]))))
            checks.append(("right-action-antimultiplicative", (i, j),
                           rp.mul(rho).sub(m.right[j].mul(m.right[i]))))
            checks.append(("left-right-commute", (i, j),
                           m.left[i].mul(m.right[j]).sub(m.right[j].mul(m.left[i]))))
    return _nonzero(checks)


def _reference_conditions(a, p, m):
    xi = m.xi
    lp = [_extend(m.left, p.col_list(i), m.dim_v) for i in range(a.dim)]
    rp = [_extend(m.right, p.col_list(i), m.dim_v) for i in range(a.dim)]
    checks = []
    for i in range(a.dim):
        checks.append(("xi-left-intertwine", (i,), xi.mul(m.left[i]).sub(lp[i].mul(xi))))
        checks.append(("xi-right-intertwine", (i,), xi.mul(m.right[i]).sub(rp[i].mul(xi))))
    for i in range(a.dim):
        for j in range(a.dim):
            checks.append(("left-operator-exchange", (i, j),
                           lp[i].mul(m.left[j]).sub(m.left[i].mul(lp[j]))))
            checks.append(("right-operator-exchange", (i, j),
                           rp[i].mul(m.right[j]).sub(m.right[j].mul(rp[i]))))
    return _nonzero(checks)


def _reference_induced(a, p, m):
    xi = m.xi
    return tuple([acts[i].mul(xi).sub(xi.mul(acts[i])).add(_extend(acts, p.col_list(i), m.dim_v))
                  for i in range(a.dim)] for acts in (m.left, m.right))


def _listed(violations):
    return [(v.condition, v.indices, v.residual) for v in violations]


def _random_matrix(rng, rows, cols):
    return Matrix.from_rows([[rng.choice((0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))
                              for _ in range(cols)] for _ in range(rows)])


def _random_bimodule(rng, dim_a, dim_v):
    # the twist a bimodule no longer carries is still drawn, so the seeded cases stay the same
    rho = _random_matrix(rng, dim_v, dim_v)
    while dim_v and rho == _ident(dim_v):
        rho = _random_matrix(rng, dim_v, dim_v)
    return Bimodule(dim_v, [_random_matrix(rng, dim_v, dim_v) for _ in range(dim_a)],
                    [_random_matrix(rng, dim_v, dim_v) for _ in range(dim_a)],
                    xi=_random_matrix(rng, dim_v, dim_v))


def _perturbed(m, rng):
    """m with one entry of one action changed, so some blocks pass and some fail."""
    left, right = list(m.left), list(m.right)
    acts, i = rng.choice((left, right)), rng.randrange(len(left))
    acts[i] = acts[i].add(Matrix(m.dim_v, m.dim_v, {(rng.randrange(m.dim_v),
                                                     rng.randrange(m.dim_v)): 1}))
    return Bimodule(m.dim_v, left, right, xi=m.xi)


def _oracle_cases():
    rng = random.Random(20251223)
    fx = build_fixtures()
    for name, a in fx["algebras"].items():
        ops = list(fx["operators"][name])
        ops += [(f"random{k}", _random_matrix(rng, a.dim, a.dim)) for k in range(2)]
        for label, p in ops:
            regular = regular_representation(a, p)
            yield f"{name}-{label}-regular", a, p, regular
            yield f"{name}-{label}-perturbed", a, p, _perturbed(regular, rng)
            for dim_v in range(4):
                yield f"{name}-{label}-random{dim_v}", a, p, _random_bimodule(rng, a.dim, dim_v)


ORACLE_CASES = list(_oracle_cases())


def test_the_oracle_cases_cover_passing_and_failing_modules():
    assert len(ORACLE_CASES) >= 200
    outcomes = {(check_bimodule(a, m).passed_standard, check_rn_representation(a, p, m).passed)
                for _, a, p, m in ORACLE_CASES}
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("name,a,p,m", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_cochain_checks_equal_the_per_pair_reference(name, a, p, m):
    report = check_bimodule(a, m)
    assert _listed(report.standard.violations) == _reference_axioms(a, m, _ident(m.dim_v))
    assert _listed(check_rn_representation(a, p, m).violations) == _reference_conditions(a, p, m)
    left, right = induced_actions(a, p, m)
    ref_left, ref_right = _reference_induced(a, p, m)
    assert left == ref_left and right == ref_right


def test_regular_representation_equals_the_cube_loops():
    for name, a in CAT.items():
        n, c = range(a.dim), a.c
        for label, p in build_fixtures()["operators"][name]:
            m = regular_representation(a, p)
            assert m.left == [Matrix.from_rows([[c[i][j][k] for j in n] for k in n]) for i in n]
            assert m.right == [Matrix.from_rows([[c[j][i][k] for j in n] for k in n]) for i in n]
            assert m.xi is p, (name, label)


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


_LEFTUNIT2 = regular_representation(CAT["leftunit2"], _zero(2))


@pytest.mark.parametrize("consumer", [ComplexBuilder, check_rn_representation,
                                      induced_actions, induce_representation],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("p, m, message", [
    (_zero(2), Bimodule(2, _LEFTUNIT2.left, _LEFTUNIT2.right), "carries no xi"),
    (_zero(2), regular_representation(CAT["pair3"], _zero(3)), "action count"),
    (Matrix.zeros(2, 3), _LEFTUNIT2, "operator is 2x3"),
], ids=["no-xi", "action-count", "non-square-operator"])
def test_every_consumer_of_an_operator_module_refuses_a_broken_one(consumer, p, m, message):
    with pytest.raises(InputError, match=message):
        consumer(CAT["leftunit2"], p, m)


def test_induced_actions_formula_on_fixed_instance():
    # l'(a) = l(a) xi - xi l(a) + l(P a) with xi = P
    a = CAT["pair3"]
    p = operator([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    m = regular_representation(a, p)
    left, right = induced_actions(a, p, m)
    for i in range(3):
        pa = p.col_list(i)
        expect = m.left[i].mul(p).sub(p.mul(m.left[i])).add(_extend(m.left, pa, 3))
        assert left[i].eq(expect)
        expect_r = m.right[i].mul(p).sub(p.mul(m.right[i])).add(_extend(m.right, pa, 3))
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
    out = Bimodule(m.dim_v, *induced_actions(a, p, m), xi=m.xi)
    assert isinstance(check_bimodule(a, out), BimoduleReport)
    assert isinstance(check_rn_representation(a, p, out), ProfileReport)


def test_bimodule_shape_mismatch_is_an_input_error():
    a = CAT["pair3"]
    m = regular_representation(CAT["leftunit2"], _zero(2))
    with pytest.raises(InputError):
        check_bimodule(a, m)
