"""Truncated deformations: order checks, transport, cocycles, rigidity."""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest

from rnalg.algebra import Algebra
from rnalg.catalog import catalog, operator
from rnalg.deformation import (
    FormalIso,
    TruncatedDeformation,
    _convolve,
    _pair_vector,
    check_deformation,
    check_equivalence,
    infinitesimal_cocycle,
    order1_pair,
    order1_system,
    order_residuals,
    rigidity_report,
    same_cohomology_class,
    transport,
)
from rnalg.errors import BudgetError, InputError
from rnalg.exactlin import Matrix, from_cols
from rnalg.fileio import dump_deformation, load_deformation

Q = Fraction
CAT = catalog()


def _identity_iso(dim, order):
    """Id + 0 t + ... + 0 t^order."""
    return FormalIso(order, [Matrix.identity(dim)] + [Matrix.zeros(dim, dim)] * order)


def _from_table(table):
    """The coefficient matrix of a dense table: column i dim + j holds table[i][j]."""
    return from_cols([vec for row in table for vec in row])


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
    bad = base.with_coefficient(1, nu_k=_from_table(_corrupt_table(2, 0, 0, 1)))
    rep = check_deformation(bad)
    assert [r.ok for r in rep.orders] == [True, False, True]
    fv = rep.first_violation()
    assert fv.equation == "associativity"
    assert fv.order == 1
    assert fv.args == (0, 0, 0)


def test_constant_stores_the_product_as_nu_0():
    a = CAT["pair3"]
    d = TruncatedDeformation.constant(a, Matrix.zeros(3, 3), 2)
    assert Algebra(3, d.nu[0]).c == a.c
    assert all(m.is_zero() and (m.rows, m.cols) == (3, 9) for m in d.nu[1:])


def test_coefficient_shape_validation():
    with pytest.raises(InputError):
        TruncatedDeformation(1, [_from_table(_zero_table(2))], [Matrix.zeros(2, 2)])
    with pytest.raises(InputError):
        TruncatedDeformation(0, [_from_table(_zero_table(2))], [Matrix.zeros(3, 3)])
    # nu coefficients must be dim x dim^2, with dim from nu[0]
    for nu in ([Matrix.zeros(2, 2)], [Matrix.zeros(2, 8)],
               [Matrix.zeros(2, 4), Matrix.zeros(1, 4)]):
        with pytest.raises(InputError):
            TruncatedDeformation(len(nu) - 1, nu, [Matrix.zeros(2, 2)] * len(nu))


def test_order_one_residuals_are_linear_in_the_coefficients():
    a = CAT["leftunit2"]
    base = TruncatedDeformation.constant(a, Matrix.zeros(2, 2), 1)
    tx = _corrupt_table(2, 0, 0, 0)
    ty = _zero_table(2)
    ty[1][1][1] = Q(3)
    px = operator([[0, 1], [0, 0]])
    py = operator([[2, 0], [0, 0]])
    fx = order_residuals(base.with_coefficient(1, nu_k=_from_table(tx), p_k=px), 1)
    fy = order_residuals(base.with_coefficient(1, nu_k=_from_table(ty), p_k=py), 1)
    assert len(fx) == 32
    txy = [[[tx[i][j][k] + ty[i][j][k] for k in range(2)] for j in range(2)]
           for i in range(2)]
    fxy = order_residuals(base.with_coefficient(1, nu_k=_from_table(txy), p_k=px.add(py)), 1)
    assert fxy == [u + v for u, v in zip(fx, fy)]
    t2x = [[[2 * v for v in vec] for vec in row] for row in tx]
    f2x = order_residuals(base.with_coefficient(1, nu_k=_from_table(t2x), p_k=px.scale(2)), 1)
    assert f2x == [2 * u for u in fx]


def test_order1_system_columns_follow_the_pair_vector_layout():
    # the audit solves order1_system for (nu_1, P_1) and reads its kernel
    # back through order1_pair; both must agree with _pair_vector's layout
    a = CAT["pair3"]
    p = operator([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    nu1 = _zero_table(3)
    nu1[0][1] = [Q(1), Q(-2), Q(0)]
    nu1[2][0] = [Q(0), Q(3), Q(1, 2)]
    p1 = operator([[0, 1, 0], [0, 0, 0], [5, 0, 7]])
    d = TruncatedDeformation.constant(a, p, 1).with_coefficient(1, _from_table(nu1), p1)
    residuals = order_residuals(d, 1)
    assert any(residuals)
    assert order1_system(a, p).apply(_pair_vector(d, 1)) == residuals
    nu, pk = order1_pair(3, _pair_vector(d, 1))
    assert nu == d.nu[1] and pk == p1


def test_zero_dimensional_data_is_refused():
    # Algebra refuses dim < 1; a deformation or iso over no basis would
    # otherwise pass every check vacuously
    with pytest.raises(InputError):
        TruncatedDeformation(1, [Matrix(0, 0, {})] * 2, [Matrix(0, 0, {})] * 2)
    with pytest.raises(InputError):
        FormalIso(1, [Matrix(0, 0, {})] * 2)


def test_formal_iso_requires_identity_leading_term():
    with pytest.raises(InputError):
        FormalIso(1, [Matrix.zeros(2, 2), Matrix.identity(2)])
    iso = _identity_iso(2, 3)
    assert iso.phi[0] == Matrix.identity(2)
    assert all(x.is_zero() for x in iso.phi[1:])


def _inverse(iso):
    return FormalIso(iso.order, iso.inverse_coefficients())


def _compose(f, g):
    """f after g, truncated at the lower order, as the convolution of their series."""
    composed = _convolve(f.phi, g.phi)
    return FormalIso(len(composed) - 1, list(composed))


def test_inverse_coefficients_follow_geometric_series():
    phi = operator([[0, 1], [2, 0]])
    iso = FormalIso(3, [Matrix.identity(2), phi, Matrix.zeros(2, 2), Matrix.zeros(2, 2)])
    chi = iso.inverse_coefficients()
    assert chi[1] == phi.scale(-1)
    assert chi[2] == phi.mul(phi)
    assert chi[3] == phi.mul(phi).mul(phi).scale(-1)
    comp = _compose(iso, _inverse(iso))
    assert comp.phi == _identity_iso(2, 3).phi


def _sample_deformation_and_iso():
    a = CAT["leftunit2"]
    t1 = _zero_table(2)
    t1[0][1][0] = Q(2)
    t1[1][0][1] = Q(-1)
    d = TruncatedDeformation.constant(a, Matrix.identity(2), 3).with_coefficient(
        1, nu_k=_from_table(t1), p_k=operator([[0, 3], [0, 0]]))
    iso = FormalIso(3, [Matrix.identity(2), operator([[0, 1], [2, 0]]),
                        operator([[1, 1], [0, 1]]), Matrix.zeros(2, 2)])
    return d, iso


def test_transport_satisfies_its_own_equivalence():
    d, iso = _sample_deformation_and_iso()
    dt = transport(d, iso)
    assert check_equivalence(d, dt, iso).ok


def test_transport_round_trip_restores_coefficients():
    d, iso = _sample_deformation_and_iso()
    back = transport(transport(d, iso), _inverse(iso))
    assert back.nu == d.nu
    assert all(x == y for x, y in zip(back.p, d.p))


def test_transport_ignores_iso_coefficients_past_the_deformation_order():
    d, _ = _sample_deformation_and_iso()
    d1 = TruncatedDeformation(1, list(d.nu[:2]), list(d.p[:2]))
    rng = random.Random(15)
    phi = [Matrix.identity(2)] + [operator([[rng.randint(-2, 2) for _ in range(2)]
                                            for _ in range(2)]) for _ in range(40)]
    long_iso, short_iso = FormalIso(40, phi), FormalIso(1, phi[:2])
    dt = transport(d1, long_iso)
    assert dt.nu == transport(d1, short_iso).nu
    assert dt.p == transport(d1, short_iso).p
    assert check_equivalence(d1, dt, long_iso).ok


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
        1, nu_k=_from_table(_corrupt_table(2, 0, 0, 1)))
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


# ---------------------------------------------------------------------------
# Naive reference: the order-n equations as hand-expanded sums over index
# splits, written without the convolutions the module uses
# ---------------------------------------------------------------------------


def _splits(n, parts):
    """All tuples of `parts` nonnegative ints summing to n."""
    return [s for s in itertools.product(range(n + 1), repeat=parts) if sum(s) == n]


def _vsum(vectors, dim):
    out = [Q(0)] * dim
    for v in vectors:
        out = [x + y for x, y in zip(out, v)]
    return out


def _vdiff(x, y):
    return [u - v for u, v in zip(x, y)]


def _unit(dim, i):
    return [Q(i == t) for t in range(dim)]


def _nu(d, k, x, y):
    """nu_k(x, y) from the columns of d's coefficient matrix."""
    out = [Q(0)] * d.dim
    for (i, xi), (j, yj) in itertools.product(enumerate(x), enumerate(y)):
        if xi and yj:
            for t, v in enumerate(d.nu[k].col_list(i * d.dim + j)):
                if v:
                    out[t] += xi * yj * v
    return out


def _coef(mats, k, dim):
    """Coefficient k of a list of matrices, zero past its end."""
    return mats[k] if k < len(mats) else Matrix.zeros(dim, dim)


def _naive_terms(d, n):
    """(equation, basis indices, order-n residual) in report order."""
    dim = d.dim
    e = [_unit(dim, i) for i in range(dim)]

    def p(k, x):
        return d.p[k].apply(x)

    terms = []
    for a, b, c in itertools.product(range(dim), repeat=3):
        res = _vsum([_vdiff(_nu(d, i, _nu(d, j, e[a], e[b]), e[c]),
                            _nu(d, i, e[a], _nu(d, j, e[b], e[c])))
                     for i, j in _splits(n, 2)], dim)
        terms.append(("associativity", (a, b, c), res))
    for a, b in itertools.product(range(dim), repeat=2):
        lhs = _vsum([_nu(d, i, p(j, e[a]), p(k, e[b])) for i, j, k in _splits(n, 3)], dim)
        common = _vsum([p(i, _nu(d, j, p(k, e[a]), e[b])) for i, j, k in _splits(n, 3)]
                       + [p(i, _nu(d, j, e[a], p(k, e[b]))) for i, j, k in _splits(n, 3)], dim)
        twisted_tail = _vsum([p(i, p(j, d.nu[k].col_list(a * dim + b)))
                              for i, j, k in _splits(n, 3)], dim)
        averaged_tail = _vsum([p(i, _nu(d, j, p(k, e[a]), p(l, e[b])))
                               for i, j, k, l in _splits(n, 4)], dim)
        for eq, tail in (("twisted-compatibility", twisted_tail),
                         ("averaged-compatibility", averaged_tail)):
            terms.append((eq, (a, b), _vdiff(lhs, _vdiff(common, tail))))
    return terms


def _violation_rows(terms):
    return [(eq, args, tuple(res)) for eq, args, res in terms if any(res)]


def _naive_equivalence(src, dst, iso):
    order, dim = min(src.order, iso.order), src.dim
    e = [_unit(dim, i) for i in range(dim)]

    def phi(k, x):
        return _coef(iso.phi, k, dim).apply(x)

    out = []
    for n in range(order + 1):
        for a, b in itertools.product(range(dim), repeat=2):
            lhs = _vsum([phi(i, dst.nu[j].col_list(a * dim + b)) for i, j in _splits(n, 2)], dim)
            rhs = _vsum([_nu(src, i, phi(j, e[a]), phi(k, e[b]))
                         for i, j, k in _splits(n, 3)], dim)
            out.append(("product-transport", n, (a, b), tuple(_vdiff(lhs, rhs))))
        for a in range(dim):
            lhs = _vsum([phi(i, dst.p[j].apply(e[a])) for i, j in _splits(n, 2)], dim)
            rhs = _vsum([src.p[i].apply(phi(j, e[a])) for i, j in _splits(n, 2)], dim)
            out.append(("operator-transport", n, (a,), tuple(_vdiff(lhs, rhs))))
    return order, [v for v in out if any(v[3])]


def _naive_inverse(iso):
    chi = [Matrix.identity(iso.dim)]
    for n in range(1, iso.order + 1):
        acc = Matrix.zeros(iso.dim, iso.dim)
        for i in range(1, n + 1):
            acc = acc.add(iso.phi[i].mul(chi[n - i]))
        chi.append(acc.scale(-1))
    return chi


def _naive_transport(d, iso):
    dim = d.dim
    e = [_unit(dim, i) for i in range(dim)]
    chi = _naive_inverse(iso)
    nu, p = [], []
    for n in range(d.order + 1):
        nu.append([[_vsum([_coef(chi, i, dim).apply(_nu(d, j, _coef(iso.phi, k, dim).apply(e[a]),
                                                        _coef(iso.phi, l, dim).apply(e[b])))
                           for i, j, k, l in _splits(n, 4)], dim)
                    for b in range(dim)] for a in range(dim)])
        acc = Matrix.zeros(dim, dim)
        for i, j, k in _splits(n, 3):
            acc = acc.add(_coef(chi, i, dim).mul(d.p[j]).mul(_coef(iso.phi, k, dim)))
        p.append(acc)
    return TruncatedDeformation(d.order, [_from_table(t) for t in nu], p)


def _naive_compose(f, g):
    order = min(f.order, g.order)
    out = []
    for n in range(order + 1):
        acc = Matrix.zeros(f.dim, f.dim)
        for i, j in _splits(n, 2):
            acc = acc.add(f.phi[i].mul(g.phi[j]))
        out.append(acc)
    return out


_SMALL = [0, 0, 0, 0, 1, -1, 2, Q(1, 2)]


def _random_cases(dim, order):
    """(src, dst, iso, other iso, related) per iso order below, at and above order.

    dst is src transported along iso (by the naive transport) when related
    and an unrelated random deformation otherwise; both kinds occur.
    """
    rng = random.Random(100 * dim + order)

    def matrix():
        return Matrix.from_rows([[rng.choice(_SMALL) for _ in range(dim)] for _ in range(dim)])

    def deformation():
        nu = [[[[rng.choice(_SMALL) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
              for _ in range(order + 1)]
        return TruncatedDeformation(order, [_from_table(t) for t in nu],
                                    [matrix() for _ in range(order + 1)])

    def iso(k):
        return FormalIso(k, [Matrix.identity(dim)] + [matrix() for _ in range(k)])

    for shift, related in zip((-1, 0, 1), itertools.cycle((order % 2 == 0, order % 2 == 1))):
        src, f = deformation(), iso(max(order + shift, 0))
        dst = _naive_transport(src, f) if related else deformation()
        yield src, dst, f, iso(rng.randint(0, 4)), related


def _report_rows(rep):
    return [(r.order, [(v.equation, v.args, v.residual) for v in r.violations])
            for r in rep.orders]


@pytest.mark.parametrize("dim,order",
                         list(itertools.product([1, 2, 3], [0, 1, 2, 3])) + [(1, 6), (2, 5)])
def test_series_checks_equal_the_naive_split_sums(dim, order):
    for src, dst, iso, other, related in _random_cases(dim, order):
        naive = [_naive_terms(src, k) for k in range(order + 1)]
        assert _report_rows(check_deformation(src)) == [(k, _violation_rows(terms))
                                                        for k, terms in enumerate(naive)]
        for k in range(order + 1):
            assert order_residuals(src, k) == [x for _, _, res in naive[k] for x in res]
        eq = check_equivalence(src, dst, iso)
        assert (eq.order, [(v.equation, v.order, v.args, v.residual) for v in eq.violations]) \
            == _naive_equivalence(src, dst, iso)
        assert eq.ok or not related
        moved = transport(src, iso)
        expected = _naive_transport(src, iso)
        assert moved.nu == expected.nu and list(moved.p) == list(expected.p)
        assert iso.inverse_coefficients() == _naive_inverse(iso)
        composed = _compose(iso, other)
        assert composed.order == min(iso.order, other.order)
        assert list(composed.phi) == _naive_compose(iso, other)


def _series_entry_points(d, iso):
    """Each entry point that reads the series cap, called on d and iso."""
    return {"check_deformation": lambda: check_deformation(d),
            "order_residuals": lambda: order_residuals(d, 0),
            "transport": lambda: transport(d, iso),
            "check_equivalence": lambda: check_equivalence(d, d, iso)}


def _dense_case(dim, order, rng):
    def matrix(cols):
        return Matrix.from_rows([[rng.choice([1, -1, 2, Q(1, 2), Q(-3, 5)]) for _ in range(cols)]
                                 for _ in range(dim)])

    d = TruncatedDeformation(order, [matrix(dim * dim) for _ in range(order + 1)],
                             [matrix(dim) for _ in range(order + 1)])
    return d, FormalIso(order, [Matrix.identity(dim)] + [matrix(dim) for _ in range(order)])


def test_series_cap_holds_at_every_entry_point():
    # (dim (order + 1))^3 <= 50000 at the order each entry point reads: the
    # deformation's, and for check_equivalence the lower of it and the iso's
    a = CAT["leftunit2"]
    past = TruncatedDeformation.constant(a, Matrix.zeros(2, 2), 18)
    message = ("deformation series stage: dim 2 at order 18 makes a dimension-38 algebra, "
               "which needs 54872 structure constants, cap 50000")
    for name, call in _series_entry_points(past, _identity_iso(2, 18)).items():
        with pytest.raises(BudgetError) as err:
            call()
        assert str(err.value) == message, name
    assert check_equivalence(past, past, _identity_iso(2, 0)).ok
    # refused before any coefficient work
    far = TruncatedDeformation.constant(a, Matrix.zeros(2, 2), 600)
    for name, call in _series_entry_points(far, _identity_iso(2, 600)).items():
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="at order 600"):
            call()
        assert time.perf_counter() - start < 1, name
    # an iso of higher order is read only through the order checked
    rng = random.Random(7)
    low, _ = _dense_case(2, 1, rng)
    long = _dense_case(2, 600, rng)[1]
    cut = FormalIso(1, long.phi[:2])
    start = time.perf_counter()
    moved, moved_cut = transport(low, long), transport(low, cut)
    assert (moved.nu, moved.p) == (moved_cut.nu, moved_cut.p)
    for dst in (low, moved):
        assert check_equivalence(low, dst, long) == check_equivalence(low, dst, cut)
    assert check_equivalence(low, moved, long).ok and not check_equivalence(low, low, long).ok
    assert time.perf_counter() - start < 1
    # the largest admitted shapes run on dense data
    for dim, order in ((1, 35), (2, 17), (3, 11)):
        for name, call in _series_entry_points(*_dense_case(dim, order, rng)).items():
            start = time.perf_counter()
            call()
            assert time.perf_counter() - start < 5, (name, dim, order)


@pytest.mark.parametrize("dim,order", list(itertools.product([1, 2, 3], [0, 1, 2, 3])))
def test_deformation_files_round_trip_on_random_cases(dim, order):
    for src, dst, _, _, _ in _random_cases(dim, order):
        for d in (src, dst):
            back = load_deformation(dump_deformation(d))
            assert (back.order, back.dim) == (d.order, d.dim)
            assert back.nu == d.nu and back.p == d.p
