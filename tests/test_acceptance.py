"""Acceptance gate: twelve end-to-end criteria, each with a runtime budget.

Every criterion prints one PASS/FAIL line in the terminal summary (see
conftest.py). All arithmetic is exact; no tolerances anywhere.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import record_criterion
from test_algebra import _e
from test_polysys import holds_at

from rnalg.algebra import (
    KIND_NIJENHUIS,
    KIND_REYNOLDS,
    KIND_RN,
    Algebra,
    check_associative,
    check_operator,
    modified_rota_baxter,
    rota_baxter,
    star_product,
)
from rnalg.audit import audit_report_dict, operator_fixtures, replay_counterexample, run_audit
from rnalg.catalog import catalog, operator
from rnalg.cohomology import ComplexBuilder, unflatten
from rnalg.deformation import (
    FormalIso,
    TruncatedDeformation,
    check_deformation,
    check_equivalence,
    same_cohomology_class,
    transport,
)
from rnalg.exactlin import Matrix, from_cols
from rnalg.fileio import canonical_json
from rnalg.polysys import SymbolicMatrix, build_identity_system, enumerate_mod_p, verify_family
from rnalg.representation import regular_representation

Q = Fraction
CAT = catalog()

_AUDIT_CACHE = []


def _from_table(table):
    """The coefficient matrix of a dense table: column i dim + j holds table[i][j]."""
    return from_cols([vec for row in table for vec in row])


def _audit():
    if not _AUDIT_CACHE:
        _AUDIT_CACHE.append(run_audit())
    return _AUDIT_CACHE[0]


@contextmanager
def criterion(num: int, name: str, limit: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        record_criterion(num, name, "FAIL", time.monotonic() - start)
        raise
    elapsed = time.monotonic() - start
    status = "PASS" if elapsed < limit else "FAIL"
    record_criterion(num, name, status, elapsed)
    print(f"[criterion {num:02d}] {name}: {status} ({elapsed:.2f}s)")
    assert elapsed < limit, f"runtime {elapsed:.2f}s exceeds the {limit}s budget"


def _mutate_constant(a: Algebra, i: int, j: int, k: int) -> Algebra:
    n = range(a.dim)
    return Algebra.from_sparse(a.dim, [(r, s, t, a.c[r][s][t] + int((r, s, t) == (i, j, k)))
                                       for r in n for s in n for t in n])


def test_criterion_01_associativity_fixtures():
    with criterion(1, "associativity-fixtures", 1.0):
        for name in ("leftunit2", "pair3"):
            assert check_associative(CAT[name]).passed
        for name, idx in (("leftunit2", (0, 0, 1)), ("pair3", (0, 2, 0))):
            report = check_associative(_mutate_constant(CAT[name], *idx))
            assert not report.passed
            v = report.violations[0]
            assert (0 <= v.i < CAT[name].dim
                    and 0 <= v.j < CAT[name].dim
                    and 0 <= v.k < CAT[name].dim)
            assert any(v.residual)


def test_criterion_02_trivial_operators():
    with criterion(2, "trivial-operators", 1.0):
        for a in CAT.values():
            assert check_operator(a, Matrix.zeros(a.dim, a.dim), KIND_RN).passed
            assert check_operator(a, Matrix.identity(a.dim), KIND_RN).passed


def _identity_holds(a: Algebra, m: Matrix, kind, p: int | None = None) -> bool:
    """Independent oracle: the five identities written out as index sums.

    With P(e_j) = sum_i M[i][j] e_i and e_i e_j = sum_k c[i][j][k] e_k,
    each basis pair (x, y) = (e_s, e_t) must satisfy (README definitions)

      nijenhuis            P(x)P(y) = P(xP(y) + P(x)y - P(xy))
      reynolds             P(x)P(y) = P(xP(y) + P(x)y - P(x)P(y))
      rota_baxter(w)       P(x)P(y) = P(xP(y) + P(x)y + w xy)
      modified_rota_baxter P(xy)    = xP(y) + P(x)y + w xy

    and an RN operator satisfies the first two, exactly or, given p and
    integer data, modulo p.  No rnalg identity code runs.
    """
    n = a.dim
    mat = m.to_rows()
    w = kind.weight
    nonzero = [(i, j, k, v) for i in range(n) for j in range(n) for k in range(n)
               if (v := a.c[i][j][k])]
    names = (["nijenhuis", "reynolds"] if kind.name == "reynolds_nijenhuis"
             else [kind.name])

    def apply(vec):
        return [sum(mat[k][l] * vec[l] for l in range(n) if vec[l]) for k in range(n)]

    for s in range(n):
        for t in range(n):
            xy, pxpy, cross = [Q(0)] * n, [Q(0)] * n, [Q(0)] * n
            for i, j, k, v in nonzero:
                if i == s and j == t:
                    xy[k] += v
                pxpy[k] += mat[i][s] * mat[j][t] * v
                if i == s:
                    cross[k] += mat[j][t] * v  # x P(y)
                if j == t:
                    cross[k] += mat[i][s] * v  # P(x) y
            for name in names:
                if name == "nijenhuis":
                    p_xy = apply(xy)
                    lhs, rhs = pxpy, apply([cross[k] - p_xy[k] for k in range(n)])
                elif name == "reynolds":
                    lhs, rhs = pxpy, apply([cross[k] - pxpy[k] for k in range(n)])
                elif name == "rota_baxter":
                    lhs, rhs = pxpy, apply([cross[k] + w * xy[k] for k in range(n)])
                else:
                    lhs, rhs = apply(xy), [cross[k] + w * xy[k] for k in range(n)]
                if any((l - r) % p if p else l != r for l, r in zip(lhs, rhs)):
                    return False
    return True


def test_criterion_03_oracle_equivalence():
    with criterion(3, "oracle-equivalence", 30.0):
        kinds = [KIND_RN, KIND_REYNOLDS, KIND_NIJENHUIS,
                 rota_baxter(0), rota_baxter(-1), rota_baxter(Q(1, 2)),
                 modified_rota_baxter(1), modified_rota_baxter(Q(-1, 2))]
        rng = random.Random(20260814)
        pool = [Q(0), Q(0), Q(1), Q(-1), Q(2), Q(1, 2)]
        both_branches = set()
        for name, a in CAT.items():
            systems = [(k, build_identity_system(a, k)) for k in kinds]
            mats = [Matrix.from_rows([[rng.choice(pool) for _ in range(a.dim)]
                                      for _ in range(a.dim)])
                    for _ in range(198)]
            mats.append(Matrix.zeros(a.dim, a.dim))
            mats.append(Matrix.identity(a.dim))
            for m in mats:
                for k, system in systems:
                    expected = _identity_holds(a, m, k)
                    assert check_operator(a, m, k).passed == expected, (name, k.label())
                    assert holds_at(system, m) == expected, (name, k.label())
                    both_branches.add(expected)
        assert both_branches == {True, False}


def test_criterion_04_finite_field_exhaustion():
    with criterion(4, "finite-field-exhaustion", 5.0):
        a = CAT["pair3"]
        result = enumerate_mod_p(a, KIND_RN, 2)
        assert result.prime == 2 and result.dim == 3
        # independent recount: score all 512 candidate 0/1 matrices with the
        # identities written out as index sums over the integer structure
        # constants, residuals reduced mod 2, with no lifting
        brute = set()
        scanned = 0
        for val in range(2 ** 9):
            point = tuple((val >> s) & 1 for s in range(9))
            scanned += 1
            rows = [point[r * 3:(r + 1) * 3] for r in range(3)]
            if _identity_holds(a, Matrix.from_rows(rows), KIND_RN, 2):
                brute.add(point)
        assert scanned == 512
        assert brute == set(result.solutions)
        # the Nijenhuis and Reynolds residuals at (e0, e0), (e1, e1) and
        # (e2, e2) are even, so they vanish over F_2 at every matrix
        assert len(result.solutions) == 56
        required = {
            (0,) * 9,
            (1, 0, 0, 0, 1, 0, 0, 0, 1),
            (1, 0, 0, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 0, 0, 1),
        }
        assert required <= brute


def test_criterion_05_family_residual_report():
    audit = _audit()
    with criterion(5, "parametrized-family-residuals", 1.0):
        system = build_identity_system(CAT["pair3"], KIND_RN)
        family = SymbolicMatrix.build(3, ["v", "q"], {(0, 1): "v", (2, 1): "q"})
        report = verify_family(system, family)
        formatted = sorted(p.format(["v", "q"]) for p in report.residuals)
        assert "v*q" in formatted
        assert "q^2" in formatted
        assert formatted == ["q^2", "v*q", "v*q^2", "v^2", "v^2*q"]
        claim = audit.claim("rn-family-completeness")
        assert claim.verdict
        assert claim.counterexamples
        for ce in claim.counterexamples:
            assert replay_counterexample(ce)["matches"]


def test_criterion_06_star_product_suite():
    with criterion(6, "star-product-suite", 1.0):
        tested = set()
        for name, ops in operator_fixtures().items():
            a = CAT[name]
            for label, p in ops:
                if not check_operator(a, p, KIND_NIJENHUIS).passed:
                    continue
                tested.add((name, label))
                st = star_product(a, p)
                assert check_associative(st).passed, (name, label)
                for i in range(a.dim):
                    for j in range(a.dim):
                        lhs = p.apply(st.multiply(_e(a, i), _e(a, j)))
                        rhs = a.multiply(p.apply(_e(a, i)), p.apply(_e(a, j)))
                        assert lhs == rhs, (name, label, i, j)
        for name in CAT:
            assert (name, "zero") in tested
            assert (name, "id") in tested
        assert ("pair3", "e0-only") in tested


def test_criterion_07_square_zero_weight_link():
    with criterion(7, "square-zero-weight-link", 10.0):
        rng = random.Random(42)
        pool = [Q(0), Q(1), Q(-1), Q(2), Q(1, 2), Q(-1, 3)]
        total = 0
        for name, a in CAT.items():
            dim = a.dim
            made = 0
            while made < 20:
                v = [rng.choice(pool) for _ in range(dim)]
                if not any(v):
                    continue
                u = [rng.choice(pool) for _ in range(dim)]
                vv = sum(x * x for x in v)
                uv = sum(x * y for x, y in zip(u, v))
                w = [x - uv / vv * y for x, y in zip(u, v)]
                p = Matrix.from_rows([[v[i] * w[j] for j in range(dim)]
                                      for i in range(dim)])
                assert p.mul(p).is_zero()
                is_rn = check_operator(a, p, KIND_RN).passed
                is_rb0 = check_operator(a, p, rota_baxter(0)).passed
                assert is_rn == is_rb0, (name, v, w)
                made += 1
                total += 1
        assert total == 100


def test_criterion_08_differentials_square_to_zero():
    with criterion(8, "differentials-square-to-zero", 20.0):
        for name, a in CAT.items():
            p = Matrix.zeros(a.dim, a.dim)
            b = ComplexBuilder(a, p, regular_representation(a, p))
            for n in range(3):
                assert b.delta(n + 1).mul(b.delta(n)).is_zero(), (name, n)


def test_criterion_09_correction_residual_report():
    # the report records which residuals vanish; it does not assert zero,
    # and the recorded pattern is frozen as an engine regression fact
    with criterion(9, "correction-residual-report", 30.0):
        report = []
        for name, rows in (("pair3", [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
                           ("leftunit2", [[1, 0], [0, 1]])):
            a = CAT[name]
            p = operator(rows)
            b = ComplexBuilder(a, p, regular_representation(a, p))
            for n in (1, 2):
                psi_delta = b.psi_delta_residual(n)
                d_square = b.d_square_residual(n)
                assert all(isinstance(x, Fraction) for row in psi_delta.to_rows() for x in row)
                assert all(isinstance(x, Fraction) for row in d_square.to_rows() for x in row)
                report.append((name, n, psi_delta.is_zero(), d_square.is_zero()))
        assert report == [
            ("pair3", 1, False, False),
            ("pair3", 2, False, False),
            ("leftunit2", 1, False, False),
            ("leftunit2", 2, False, False),
        ]


def test_criterion_10_deformation_suite():
    with criterion(10, "deformation-suite", 10.0):
        for name, a in CAT.items():
            d = TruncatedDeformation.constant(a, Matrix.zeros(a.dim, a.dim), 5)
            assert check_deformation(d).ok, name
        a = CAT["leftunit2"]
        table = [[[Q(0)] * 2 for _ in range(2)] for _ in range(2)]
        table[0][0][1] = Q(1)
        bad = TruncatedDeformation.constant(a, Matrix.zeros(2, 2), 2)
        bad = bad.with_coefficient(1, nu_k=_from_table(table))
        rep = check_deformation(bad)
        assert [r.ok for r in rep.orders] == [True, False, True]
        assert rep.first_violation().order == 1
        t1 = [[[Q(0)] * 2 for _ in range(2)] for _ in range(2)]
        t1[0][1][0] = Q(2)
        t1[1][0][1] = Q(-1)
        d = TruncatedDeformation.constant(a, Matrix.identity(2), 3).with_coefficient(
            1, nu_k=_from_table(t1), p_k=operator([[0, 3], [0, 0]]))
        iso = FormalIso(3, [Matrix.identity(2), operator([[0, 1], [2, 0]]),
                            operator([[1, 1], [0, 1]]), Matrix.zeros(2, 2)])
        assert check_equivalence(d, transport(d, iso), iso).ok
        back = transport(transport(d, iso), FormalIso(iso.order, iso.inverse_coefficients()))
        assert back.nu == d.nu
        assert all(x == y for x, y in zip(back.p, d.p))


def _coboundary_shift(a, p, z):
    """Image of degree-1 domain coordinates z under d, unflattened to (nu1, P1)."""
    b = ComplexBuilder(a, p, regular_representation(a, p))
    image = b.d(1).apply(z)
    split = b.amb(2)
    return b, unflatten(image[:split], a.dim), unflatten(image[split:], a.dim), image


def test_criterion_11_coboundary_shift_class():
    with criterion(11, "coboundary-shift-class", 10.0):
        for name in ("leftunit2", "zero1"):
            a = CAT[name]
            dim = a.dim
            p = Matrix.zeros(dim, dim)
            base = TruncatedDeformation.constant(a, p, 1)
            b0 = ComplexBuilder(a, p, regular_representation(a, p))
            # only instances whose degree-1 composite vanishes qualify
            assert b0.d_square_residual(1).is_zero(), name
            z = [Q(0)] * b0.domain_dim(1)
            z[0] = Q(1)
            if len(z) > 2:
                z[2] = Q(-2)
            z[-1] = Q(3)
            b, nu1, p1, image = _coboundary_shift(a, p, z)
            shifted = base.with_coefficient(1, nu_k=nu1, p_k=p1)
            cc = same_cohomology_class(a, p, shifted, base)
            assert cc.difference_in_domain and cc.same_class
            assert b.d(1).apply(list(cc.witness)) == image
            # reflexivity, symmetry, transitivity on the fixture set
            assert same_cohomology_class(a, p, base, base).same_class
            assert same_cohomology_class(a, p, base, shifted).same_class == cc.same_class
            z2 = [Q(0)] * b0.domain_dim(1)
            z2[1 % len(z2)] = Q(2)
            _, nu1b, p1b, _ = _coboundary_shift(a, p, z2)
            third = base.with_coefficient(1, nu_k=nu1.add(nu1b), p_k=p1.add(p1b))
            assert same_cohomology_class(a, p, shifted, third).same_class
            assert same_cohomology_class(a, p, base, third).same_class
        # a first coefficient that is no coboundary stays in its own class
        a = CAT["leftunit2"]
        p = Matrix.zeros(2, 2)
        base = TruncatedDeformation.constant(a, p, 1)
        table = [[[Q(0)] * 2 for _ in range(2)] for _ in range(2)]
        table[0][0][1] = Q(1)
        cc = same_cohomology_class(a, p, base.with_coefficient(1, nu_k=_from_table(table)), base)
        assert cc.difference_in_domain
        assert not cc.same_class


def test_criterion_12_audit_determinism():
    with criterion(12, "audit-determinism", 60.0):
        first = canonical_json(audit_report_dict(run_audit()))
        second = canonical_json(audit_report_dict(run_audit()))
        assert first == second
        assert first.encode("utf-8") == second.encode("utf-8")
