"""Truncated deformations: order checks, transport, cocycles, rigidity."""

from __future__ import annotations

from fractions import Fraction

import pytest

from rnalg.audit import order1_system
from rnalg.catalog import catalog, operator
from rnalg.deformation import (
    FormalIso,
    TruncatedDeformation,
    _pair_vector,
    check_deformation,
    check_equivalence,
    infinitesimal_cocycle,
    order_residuals,
    rigidity_report,
    same_cohomology_class,
    transport,
)
from rnalg.errors import InputError
from rnalg.exactlin import Matrix

Q = Fraction
CAT = catalog()


def _zero_table(dim):
    return [[[Q(0)] * dim for _ in range(dim)] for _ in range(dim)]


def _corrupt_table(dim, i, j, k):
    table = _zero_table(dim)
    table[i][j][k] = Q(1)
    return table


def test_constant_deformation_passes_every_order():
    for name, a in CAT.items():
        d = TruncatedDeformation.constant(a, Matrix.zeros(a.dim, a.dim), 5)
        report = check_deformation(d)
        assert report.ok, name
        assert len(report.orders) == 6
    a = CAT["pair3"]
    d = TruncatedDeformation.constant(a, operator([[1, 0, 0], [0, 0, 0], [0, 0, 0]]), 5)
    assert check_deformation(d).ok


def test_order_zero_is_the_base_structure_check():
    # a non-RN operator at order 0 is already a violation
    a = CAT["leftunit2"]
    d = TruncatedDeformation.constant(a, operator([[0, 0], [0, 1]]), 1)
    rep = check_deformation(d)
    assert [r.ok for r in rep.orders] == [False, True]
    fv = rep.first_violation()
    assert fv.order == 0
    assert fv.equation == "averaged-compatibility"
    assert fv.args == (0, 1)


def test_corrupted_first_coefficient_fails_only_at_order_one():
    a = CAT["leftunit2"]
    base = TruncatedDeformation.constant(a, Matrix.zeros(2, 2), 2)
    bad = base.with_coefficient(1, nu_k=_corrupt_table(2, 0, 0, 1))
    rep = check_deformation(bad)
    assert [r.ok for r in rep.orders] == [True, False, True]
    fv = rep.first_violation()
    assert fv.equation == "associativity"
    assert fv.order == 1
    assert fv.args == (0, 0, 0)


def test_base_algebra_reconstructs_structure_constants():
    a = CAT["pair3"]
    d = TruncatedDeformation.constant(a, Matrix.zeros(3, 3), 2)
    assert d.base_algebra().c == a.c


def test_coefficient_shape_validation():
    with pytest.raises(InputError):
        TruncatedDeformation(1, [_zero_table(2)], [Matrix.zeros(2, 2)])
    with pytest.raises(InputError):
        TruncatedDeformation(0, [_zero_table(2)], [Matrix.zeros(3, 3)])


def test_order_one_residuals_are_linear_in_the_coefficients():
    a = CAT["leftunit2"]
    base = TruncatedDeformation.constant(a, Matrix.zeros(2, 2), 1)
    tx = _corrupt_table(2, 0, 0, 0)
    ty = _zero_table(2)
    ty[1][1][1] = Q(3)
    px = operator([[0, 1], [0, 0]])
    py = operator([[2, 0], [0, 0]])
    fx = order_residuals(base.with_coefficient(1, nu_k=tx, p_k=px), 1)
    fy = order_residuals(base.with_coefficient(1, nu_k=ty, p_k=py), 1)
    assert len(fx) == 32
    txy = [[[tx[i][j][k] + ty[i][j][k] for k in range(2)] for j in range(2)]
           for i in range(2)]
    fxy = order_residuals(base.with_coefficient(1, nu_k=txy, p_k=px.add(py)), 1)
    assert fxy == [u + v for u, v in zip(fx, fy)]
    t2x = [[[2 * v for v in vec] for vec in row] for row in tx]
    f2x = order_residuals(base.with_coefficient(1, nu_k=t2x, p_k=px.scale(2)), 1)
    assert f2x == [2 * u for u in fx]


def test_order1_system_columns_follow_the_pair_vector_layout():
    # the audit solves order1_system for (nu_1, P_1) and reads its kernel
    # back through unflatten; both must agree with _pair_vector's layout
    a = CAT["pair3"]
    p = operator([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    nu1 = _zero_table(3)
    nu1[0][1] = [Q(1), Q(-2), Q(0)]
    nu1[2][0] = [Q(0), Q(3), Q(1, 2)]
    p1 = operator([[0, 1, 0], [0, 0, 0], [5, 0, 7]])
    d = TruncatedDeformation.constant(a, p, 1).with_coefficient(1, nu1, p1)
    residuals = order_residuals(d, 1)
    assert any(residuals)
    assert order1_system(a, p).apply(_pair_vector(d, 1)) == residuals


def test_formal_iso_requires_identity_leading_term():
    with pytest.raises(InputError):
        FormalIso(1, [Matrix.zeros(2, 2), Matrix.identity(2)])
    iso = FormalIso.identity(2, 3)
    assert iso.coefficient(0) == Matrix.identity(2)
    assert iso.coefficient(7).is_zero()


def test_inverse_coefficients_follow_geometric_series():
    phi = operator([[0, 1], [2, 0]])
    iso = FormalIso(3, [Matrix.identity(2), phi, Matrix.zeros(2, 2), Matrix.zeros(2, 2)])
    chi = iso.inverse_coefficients()
    assert chi[1] == phi.scale(-1)
    assert chi[2] == phi.mul(phi)
    assert chi[3] == phi.mul(phi).mul(phi).scale(-1)
    comp = iso.compose(iso.inverse())
    ident = FormalIso.identity(2, 3)
    assert all(comp.coefficient(k) == ident.coefficient(k) for k in range(4))


def _sample_deformation_and_iso():
    a = CAT["leftunit2"]
    t1 = _zero_table(2)
    t1[0][1][0] = Q(2)
    t1[1][0][1] = Q(-1)
    d = TruncatedDeformation.constant(a, Matrix.identity(2), 3).with_coefficient(
        1, nu_k=t1, p_k=operator([[0, 3], [0, 0]]))
    iso = FormalIso(3, [Matrix.identity(2), operator([[0, 1], [2, 0]]),
                        operator([[1, 1], [0, 1]]), Matrix.zeros(2, 2)])
    return d, iso


def test_transport_satisfies_its_own_equivalence():
    d, iso = _sample_deformation_and_iso()
    dt = transport(d, iso)
    assert check_equivalence(d, dt, iso).ok


def test_transport_round_trip_restores_coefficients():
    d, iso = _sample_deformation_and_iso()
    back = transport(transport(d, iso), iso.inverse())
    assert back.nu == d.nu
    assert all(x == y for x, y in zip(back.p, d.p))


def test_equivalence_reports_transport_violations():
    d, iso = _sample_deformation_and_iso()
    rep = check_equivalence(d, d, iso)
    assert not rep.ok
    assert {v.equation for v in rep.violations} <= {"product-transport",
                                                    "operator-transport"}


def test_trivial_infinitesimal_is_a_cocycle():
    a = CAT["leftunit2"]
    p = Matrix.zeros(2, 2)
    d = TruncatedDeformation.constant(a, p, 2)
    rep = infinitesimal_cocycle(a, p, d)
    assert rep.in_constrained_subspace
    assert rep.differential_zero
    assert rep.is_cocycle
    assert rep.first_nonzero is None


def test_corrupted_infinitesimal_is_not_a_cocycle():
    a = CAT["leftunit2"]
    p = Matrix.zeros(2, 2)
    d = TruncatedDeformation.constant(a, p, 2).with_coefficient(
        1, nu_k=_corrupt_table(2, 0, 0, 1))
    rep = infinitesimal_cocycle(a, p, d)
    assert rep.in_constrained_subspace
    assert not rep.differential_zero
    assert rep.first_nonzero == (1, Q(1))
    assert not rep.is_cocycle


def test_same_class_is_reflexive_with_zero_witness():
    a = CAT["leftunit2"]
    p = Matrix.zeros(2, 2)
    d = TruncatedDeformation.constant(a, p, 2)
    cc = same_cohomology_class(a, p, d, d)
    assert cc.difference_in_domain
    assert cc.same_class
    assert all(x == 0 for x in cc.witness)


def test_transported_trivial_deformation_stays_in_the_trivial_class():
    a = CAT["leftunit2"]
    p = Matrix.zeros(2, 2)
    d = TruncatedDeformation.constant(a, p, 2)
    iso = FormalIso(2, [Matrix.identity(2), operator([[0, 1], [2, 0]]),
                        Matrix.zeros(2, 2)])
    cc = same_cohomology_class(a, p, d, transport(d, iso))
    assert cc.difference_in_domain
    assert cc.same_class
    assert cc.witness is not None


def test_rigidity_verdicts_on_catalog_instances():
    cases = {
        "zero1": ("inconclusive", 2),
        "leftunit2": ("rigid", 0),
        "trunc3": ("inconclusive", 4),
    }
    for name, (verdict, dim_h2) in cases.items():
        a = CAT[name]
        rep = rigidity_report(a, Matrix.zeros(a.dim, a.dim))
        assert rep.verdict == verdict, name
        assert rep.dim_h2 == dim_h2, name
        assert rep.residuals_zero == {"d2d1": True, "d3d2": True}
    assert rigidity_report(CAT["leftunit2"], Matrix.zeros(2, 2)).reasons == ()


def test_rigidity_never_claims_flexible_when_complex_breaks():
    rep = rigidity_report(CAT["leftunit2"], Matrix.identity(2))
    assert rep.verdict == "inconclusive"
    assert rep.dim_h2 is None
    assert rep.residuals_zero == {"d2d1": False, "d3d2": False}
    assert len(rep.reasons) == 3
