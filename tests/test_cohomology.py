"""Cochain complex: differentials, consistency gating, dimension reports."""

from __future__ import annotations

import itertools
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from rnalg import representation
from rnalg.algebra import Algebra, associator
from rnalg.audit import _COMPLEX_INSTANCES, operator_fixtures
from rnalg.catalog import catalog, operator
from rnalg.cohomology import (ComplexBuilder, _first_nonzero, cohomology_dims, flatten,
                               unflatten)
from rnalg.deformation import rigidity_report
from rnalg.errors import BudgetError, InputError
from rnalg.exactlin import Matrix, _echelon, rank
from rnalg.representation import (Bimodule, check_bimodule, product_axioms,
                                  regular_representation)
from test_algebra import _e
from test_polysys import _change_basis, _unimodular

CAT = catalog()


def _builder(name, rows):
    a = CAT[name]
    p = operator(rows)
    return ComplexBuilder(a, p, regular_representation(a, p))


def _flat_offset(dim_a, multi):
    """offset(I) = ((i1 * dimA + i2) * dimA + ...), i1 most significant."""
    off = 0
    for i in multi:
        off = off * dim_a + i
    return off


def test_flatten_uses_horner_times_dimv_layout_and_unflatten_inverts_it():
    # the 2-cochain f(e_i, e_j) = (10 i + j, (i - j)/2) on A = Q^2, V = Q^2
    values = {multi: [Fraction(multi[0] * 10 + multi[1]), Fraction(multi[0] - multi[1], 2)]
              for multi in itertools.product(range(2), repeat=2)}
    f = Matrix(2, 4, {(v, _flat_offset(2, multi)): x
                      for multi, vec in values.items() for v, x in enumerate(vec)})
    flat = flatten(f)
    assert len(flat) == 8
    assert all(isinstance(x, Fraction) for x in flat)
    assert all(flat[_flat_offset(2, multi) * 2 + v] == x
               for multi, vec in values.items() for v, x in enumerate(vec))
    # multi (1, 0) sits at Horner index 2, value slot 0
    assert flat[2 * 2 + 0] == Fraction(10)
    assert unflatten(flat, 2) == f
    coords = [Fraction(k * (-1) ** k, 3) for k in range(12)]
    assert flatten(unflatten(coords, 3)) == coords
    assert (unflatten(coords, 3).rows, unflatten(coords, 3).cols) == (3, 4)


def test_ambient_dimensions_scale_geometrically():
    b = _builder("leftunit2", [[0, 0], [0, 0]])
    assert [b.amb(n) for n in range(4)] == [2, 4, 8, 16]


def test_delta_squared_vanishes_on_catalog_instances():
    for name in ("zero1", "leftunit2", "pair3", "trunc3"):
        a = CAT[name]
        b = _builder(name, [[0] * a.dim for _ in range(a.dim)])
        for n in range(3):
            assert b.delta(n + 1).mul(b.delta(n)).is_zero(), (name, n)


def test_delta_anchor_degree_zero_on_leftunit2():
    # (delta0 v)(a) = a.v - v.a; on the regular bimodule this is the commutator
    b = _builder("leftunit2", [[0, 0], [0, 0]])
    d0 = b.delta(0)
    a = CAT["leftunit2"]
    for j in range(2):
        v = _e(a, j)
        image = d0.apply(v)
        for i in range(2):
            expect = [x - y for x, y in zip(a.multiply(_e(a, i), v), a.multiply(v, _e(a, i)))]
            assert image[i * 2:(i + 1) * 2] == expect


def _naive_delta(b, n):
    """delta_n by its index formula, one ambient column at a time.

    Column (multi, w) gets l_i[v][w] at row ((i,) + multi, v), (-1)^s c[p][q][t]
    at row (multi with its s-th index t replaced by p, q; w), and
    (-1)^(n+1) r_t[v][w] at row (multi + (t,), v).
    """
    da, dv = b.a.dim, b.m.dim_v
    out = {}
    sign_last = Fraction(-1 if (n + 1) % 2 else 1)
    for multi in itertools.product(range(da), repeat=n):
        base_col = _flat_offset(da, multi) * dv
        for w in range(dv):
            col = base_col + w
            for i1 in range(da):
                rbase = _flat_offset(da, (i1,) + multi) * dv
                lm = b.m.left[i1]
                for v in range(dv):
                    val = lm.at(v, w)
                    if val:
                        out[rbase + v, col] = out.get((rbase + v, col), 0) + val
            for slot in range(1, n + 1):
                sign = Fraction(-1 if slot % 2 else 1)
                target = multi[slot - 1]
                for pi in range(da):
                    crow = b.a.c[pi]
                    for qi in range(da):
                        cv = crow[qi][target]
                        if cv:
                            out_multi = multi[: slot - 1] + (pi, qi) + multi[slot:]
                            row = _flat_offset(da, out_multi) * dv + w
                            out[row, col] = out.get((row, col), 0) + sign * cv
            for t in range(da):
                rbase = _flat_offset(da, multi + (t,)) * dv
                rm = b.m.right[t]
                for v in range(dv):
                    val = rm.at(v, w)
                    if val:
                        out[rbase + v, col] = out.get((rbase + v, col), 0) + sign_last * val
    return Matrix(b.amb(n + 1), b.amb(n), out)


def test_kronecker_delta_equals_index_formula_on_fixtures():
    for name, ops in operator_fixtures().items():
        a = CAT[name]
        for label, p in ops:
            b = ComplexBuilder(a, p, regular_representation(a, p))
            for n in range(6 if name == "mat2" else 5):
                assert b.delta(n).entries == _naive_delta(b, n).entries, (name, label, n)


def test_kronecker_delta_equals_index_formula_on_non_integral_actions():
    # the regular bimodule of leftunit2 in the basis T e_j: actions T^-1 l T
    a = CAT["leftunit2"]
    p = operator([[1, 0], [1, -1]])
    t = operator([[1, 0], [1, 2]])
    t_inv = Matrix.from_rows([[1, 0], [Fraction(-1, 2), Fraction(1, 2)]])
    assert t_inv.mul(t) == Matrix.identity(2)
    reg = regular_representation(a, p)
    conj = [t_inv.mul(x).mul(t) for x in reg.left + reg.right + [p]]
    m = Bimodule(2, conj[:2], conj[2:4], xi=conj[4])
    assert check_bimodule(a, m).standard.passed
    assert any(isinstance(x, Fraction) for y in m.left + m.right for x in y.entries.values())
    b = ComplexBuilder(a, p, m)
    for n in range(5):
        want = _naive_delta(b, n)
        assert b.delta(n).entries == want.entries, n
        assert any(isinstance(x, Fraction) for x in want.entries.values()), n
        assert b.delta(n + 1).mul(b.delta(n)).is_zero(), n


def _assert_delta_squared_is_the_zero_block(b, degrees, tag):
    # Hochschild's theorem, checked: the explicit product delta_(n+1) delta_n is zero, and it
    # is the top-left amb(n+2) x amb(n) block of d_square_residual(n)
    for n in degrees:
        slow, d2 = b.delta(n + 1).mul(b.delta(n)), b.d_square_residual(n)
        assert (slow.rows, slow.cols) == (b.amb(n + 2), b.amb(n)), tag
        assert (d2.rows, d2.cols) == (b.amb(n + 2) + b.amb(n + 1), b.domain_dim(n)), tag
        block = {(i, j): x for (i, j), x in d2.entries.items() if i < slow.rows and j < slow.cols}
        assert slow.is_zero() and block == slow.entries, (tag, n)


def test_delta_squared_is_the_zero_block_of_the_residual_on_fixtures():
    for name, ops in operator_fixtures().items():
        a = CAT[name]
        for label, p in ops:
            b = ComplexBuilder(a, p, regular_representation(a, p))
            _assert_delta_squared_is_the_zero_block(b, range(2 if name == "mat2" else 3),
                                                    (name, label))


def test_delta_squared_is_the_zero_block_of_the_residual_on_basis_changed_copies():
    for name, a in CAT.items():
        t, tinv = _unimodular(a.dim, random.Random(name))
        copy = _change_basis(a, t, tinv)
        p = Matrix.zeros(a.dim, a.dim)
        b = ComplexBuilder(copy, p, regular_representation(copy, p))
        _assert_delta_squared_is_the_zero_block(b, range(2 if name == "mat2" else 3), name)


def _fixture_pairs_and_copies():
    """(tag, algebra, operator) for every fixture pair and its basis-changed copy."""
    for name, ops in operator_fixtures().items():
        a = CAT[name]
        t, tinv = _unimodular(a.dim, random.Random(name))
        copy = _change_basis(a, t, tinv)
        for label, p in ops:
            yield (name, label), a, p
            yield (name, label, "copy"), copy, Matrix.from_rows(tinv).mul(p).mul(Matrix.from_rows(t))


def test_rank_of_every_fixture_differential_equals_the_echelon_pivot_count():
    cases = [(tag, a, p, 4 if tag == ("mat2", "id") else 3)
             for tag, a, p in _fixture_pairs_and_copies()]
    for tag, a, p, top in cases:
        b = ComplexBuilder(a, p, regular_representation(a, p))
        for n in range(top + 1):
            d = b.d(n)
            assert rank(d) == len(_echelon(d)) == rank(d.transpose()), (tag, n)


def test_d2_flags_and_witnesses_equal_those_read_off_the_residual():
    # cohomology_dims reads d_(n+1) d_n off Psi_n without building it; the
    # built matrix is the oracle
    audited = {(name, label) for name, label in _COMPLEX_INSTANCES}
    seen = set()
    for tag, a, p in _fixture_pairs_and_copies():
        top = 1 if tag[0] == "mat2" else 2
        result = cohomology_dims(a, p, regular_representation(a, p), top)
        b = ComplexBuilder(a, p, regular_representation(a, p))
        for n in range(top + 1):
            residual = b.d_square_residual(n)
            report = result.at(n)
            assert report.residual_zero["d2"] == residual.is_zero(), (tag, n)
            assert report.witnesses.get("d2") == _first_nonzero(residual), (tag, n)
            seen.add((tag[:2] in audited, residual.is_zero()))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_cohomology_dims_builds_no_residual_and_scales_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("called")

    monkeypatch.setattr(ComplexBuilder, "d_square_residual", refuse)
    monkeypatch.setattr(Matrix, "scale", refuse)
    for name, label in _COMPLEX_INSTANCES:
        a, p = CAT[name], dict(operator_fixtures()[name])[label]
        cohomology_dims(a, p, regular_representation(a, p), 2)


def _refusal(a, m):
    """The message a complex on (a, m) is refused with: its first failed axiom."""
    if not a.is_associative():
        return "algebra is not associative"
    first = check_bimodule(a, m).standard.violations[0]
    return f"not a bimodule: {first.condition} fails at {first.indices}"


def _random_matrix(rng, rows, cols):
    return Matrix(rows, cols, {(i, j): Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
                               for i in range(rows) for j in range(cols) if rng.random() < 0.6})


def test_complex_on_random_non_bimodules_is_refused():
    # no draw is a bimodule over an associative algebra; both kinds of refusal occur
    rng = random.Random(17)
    refused = set()
    for da, dv in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 2), (3, 1)):
        for _ in range(3):
            a = Algebra(da, _random_matrix(rng, da, da * da))
            m = Bimodule(dv, [_random_matrix(rng, dv, dv) for _ in range(da)],
                         [_random_matrix(rng, dv, dv) for _ in range(da)], xi=Matrix.identity(dv))
            assert not (a.is_associative() and check_bimodule(a, m).passed_standard), (da, dv)
            message = re.escape(_refusal(a, m))
            with pytest.raises(InputError, match=rf"^{message}$"):
                ComplexBuilder(a, Matrix.identity(da), m)
            with pytest.raises(InputError, match=rf"^{message}$"):
                cohomology_dims(a, Matrix.identity(da), m, 1)
            refused.add(_refusal(a, m).partition(":")[0])
    assert refused == {"algebra is not associative", "not a bimodule"}


def _op(*rows):
    return Matrix.from_rows(rows)


# (name, algebra, left actions, right actions, the one defect that is nonzero)
_ONE_DEFECT = (
    ("unit1-left", Algebra(1, _op([1])), [_op([2])], [_op([0])], "left-action-multiplicative"),
    ("unit1-right", Algebra(1, _op([1])), [_op([0])], [_op([2])],
     "right-action-antimultiplicative"),
    # idempotent actions that do not commute
    ("unit1-commute", Algebra(1, _op([1])), [_op([1, 0], [0, 0])], [_op([1, 1], [0, 0])],
     "left-right-commute"),
    ("idempotents2-left", Algebra.from_sparse(2, [(0, 0, 0, 1), (1, 1, 1, 1)]),
     [_op([2, 0], [0, 2]), _op([0, 0], [0, 0])], [_op([0, 0], [0, 0])] * 2,
     "left-action-multiplicative"),
    ("idempotents2-right", Algebra.from_sparse(2, [(0, 0, 0, 1), (1, 1, 1, 1)]),
     [_op([0, 0], [0, 0])] * 2, [_op([0, 0], [0, 0]), _op([0, 1], [0, 2])],
     "right-action-antimultiplicative"),
    ("idempotents2-commute", Algebra.from_sparse(2, [(0, 0, 0, 1), (1, 1, 1, 1)]),
     [_op([1, 0], [0, 0]), _op([0, 0], [0, 0])], [_op([1, 1], [0, 0]), _op([0, 0], [0, 0])],
     "left-right-commute"),
    ("zero2-commute", Algebra(2, Matrix.zeros(2, 4)),
     [_op([0, 1], [0, 0]), _op([0, 0], [0, 0])], [_op([0, 0], [0, 0]), _op([0, 0], [1, 0])],
     "left-right-commute"),
    ("nonassoc2-zero-actions", Algebra.from_sparse(2, [(0, 0, 1, 1), (1, 0, 0, 1)]),
     [Matrix.zeros(3, 3)] * 2, [Matrix.zeros(3, 3)] * 2, "associator"),
)


def test_complex_is_refused_when_one_defect_is_nonzero():
    for name, a, left, right, broken in _ONE_DEFECT:
        m = Bimodule(left[0].rows, left, right, xi=Matrix.identity(left[0].rows))
        defects = dict(product_axioms(a, m), associator=associator(a))
        assert [k for k, x in defects.items() if not x.is_zero()] == [broken], name
        message = ("algebra is not associative" if broken == "associator"
                   else rf"not a bimodule: {broken} fails at \(\d+, \d+\)")
        with pytest.raises(InputError, match=rf"^{message}$"):
            ComplexBuilder(a, Matrix.zeros(a.dim, a.dim), m)
    # a non-associative product with its regular actions breaks all four
    a = _ONE_DEFECT[-1][1]
    m = regular_representation(a, Matrix.zeros(2, 2))
    assert not any(x.is_zero() for _, x in product_axioms(a, m))
    with pytest.raises(InputError, match=r"^algebra is not associative$"):
        ComplexBuilder(a, Matrix.zeros(2, 2), m)


def test_d_square_residual_never_builds_the_next_differential(monkeypatch):
    built = []
    delta = ComplexBuilder.delta
    monkeypatch.setattr(ComplexBuilder, "delta", lambda self, n: built.append(n) or delta(self, n))
    b = _builder("trunc3", [[0] * 3 for _ in range(3)])
    for n in range(3):
        b.d_square_residual(n)
        assert n + 1 not in built, n
    a, p = CAT["leftunit2"], Matrix.zeros(2, 2)
    built.clear()
    cohomology_dims(a, p, regular_representation(a, p), 2)
    assert 3 not in built and max(built) == 2


def test_cohomology_budget_guards_two_degrees_past_the_top():
    # the residuals leaving degree max_n need the degree max_n + 2 space within budget
    a, p = CAT["leftunit2"], Matrix.zeros(2, 2)
    m = regular_representation(a, p)
    b = ComplexBuilder(a, p, m)
    for top in (1, 2, 3):
        with pytest.raises(BudgetError, match=rf"^cochain space at degree {top + 2} needs "
                                              rf"{b.amb(top + 2)} coordinates, budget is "
                                              rf"{b.amb(top + 1)}$"):
            cohomology_dims(a, p, m, top, budget=b.amb(top + 1))
        assert cohomology_dims(a, p, m, top, budget=b.amb(top + 2)) == cohomology_dims(a, p, m, top)
    with pytest.raises(BudgetError, match=r"^cochain space at degree 3 needs 16 coordinates"):
        ComplexBuilder(a, p, m, budget=b.amb(2)).d_square_residual(1)


def test_budget_refuses_before_the_associativity_and_bimodule_checks(monkeypatch):
    def refuse(*args):
        raise AssertionError("unbudgeted check ran before the budget")

    a, p = CAT["mat2"], Matrix.zeros(4, 4)
    m = regular_representation(a, p)
    monkeypatch.setattr(representation, "check_bimodule", refuse)
    monkeypatch.setattr(Algebra, "is_associative", refuse)
    refused = r"^cochain space at degree 3 needs 256 coordinates, budget is 64$"
    with pytest.raises(BudgetError, match=refused):
        cohomology_dims(a, p, m, 1, budget=64)
    with pytest.raises(BudgetError, match=r"^cochain space at degree 4 needs 1024 coordinates"):
        rigidity_report(a, p, budget=256)


def test_the_degree_cap_bounds_dim_one_and_leaves_dim_two_to_the_budget():
    # zero1 keeps one coordinate per degree, so the fixed cap on (n + 1)^2 is what refuses
    a, p = CAT["zero1"], Matrix.zeros(1, 1)
    m = regular_representation(a, p)
    b = ComplexBuilder(a, p, m, budget=1)
    b._guard(222)
    cap = r"^cochain stage: degree 223 needs 50176 Kronecker factor products, cap 50000$"
    with pytest.raises(BudgetError, match=cap):
        b._guard(223)
    with pytest.raises(BudgetError, match=cap):
        cohomology_dims(a, p, m, 10 ** 9)
    # at dimA >= 2 the coordinate budget refuses first, here even at 10^60
    for name in ("leftunit2", "pair3", "mat2", "trunc3"):
        a, p = CAT[name], Matrix.zeros(CAT[name].dim, CAT[name].dim)
        for budget in (None, 10 ** 60):
            with pytest.raises(BudgetError, match=r"^cochain space at degree \d+ needs "):
                cohomology_dims(a, p, regular_representation(a, p), 10 ** 9, budget)


def test_psi_is_identity_then_zero_at_identity_operator():
    b = _builder("leftunit2", [[1, 0], [0, 1]])
    assert b.psi(1).eq(Matrix.identity(4))
    assert b.psi(2).is_zero()


def test_psi_degree_zero_is_identity_on_values():
    b = _builder("pair3", [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert b.psi(0).eq(Matrix.identity(3))


# operators whose psi and constrained subspace are far from the P = 0 / Id cases
NONTRIVIAL_OPERATORS = (("leftunit2", [[1, 0], [1, -1]]),           # reflect-shear
                        ("leftunit2", [[0, 0], [1, 0]]),            # e0-to-e1
                        ("pair3", [[0, 1, 0], [0, 0, 0], [0, 1, 0]]))  # mid-to-ends


def _index_matrix(dim, n, image):
    """Matrix of a map on flat n-cochains of the regular bimodule (V = A).

    image(J, w, I) is the value at e_I of the image of the basis cochain
    sending e_J to e_w and every other basis tuple to 0.
    """
    multis = list(itertools.product(range(dim), repeat=n))
    size = dim * len(multis)
    rows = [[Fraction(0)] * size for _ in range(size)]
    for col, (J, w) in enumerate(itertools.product(multis, range(dim))):
        for ioff, I in enumerate(multis):
            for u, x in enumerate(image(J, w, I)):
                rows[ioff * dim + u][col] = Fraction(x)
    return Matrix.from_rows(rows)


def _psi_oracle(p, n):
    """psi_n(f)(a1..an) = f(Pa1..Pan) - sum_i xi f(Pa1,..,ai,..,Pan) + xi^2 f(a1..an), xi = P.

    For the basis cochain (J, w), f(x1..xn) = prod_k (x_k)_(J_k) e_w, and
    (P e_i)_j = P[j][i].
    """
    dim = p.rows

    def image(J, w, I):
        def scalar(replaced):
            out = Fraction(1)
            for k in range(n):
                out *= p.at(J[k], I[k]) if k in replaced else Fraction(J[k] == I[k])
            return out

        xi_w = [p.at(u, w) for u in range(dim)]
        xi2_w = [sum(p.at(u, v) * p.at(v, w) for v in range(dim)) for u in range(dim)]
        every = set(range(n))
        value = [scalar(every) * (u == w) for u in range(dim)]
        for i in range(n):
            value = [x - scalar(every - {i}) * y for x, y in zip(value, xi_w)]
        return [x + scalar(set()) * y for x, y in zip(value, xi2_w)]

    return _index_matrix(dim, n, image)


def _constraint_oracle(p, n):
    """f -> f(P a1, a2, ..., an) - xi f(a1, ..., an) with xi = P."""
    dim = p.rows

    def image(J, w, I):
        rest = Fraction(J[1:] == I[1:])
        return [p.at(J[0], I[0]) * rest * (u == w) - (J == I) * p.at(u, w)
                for u in range(dim)]

    return _index_matrix(dim, n, image)


def test_psi_and_constraint_match_index_oracle_on_nontrivial_operators():
    for name, rows in NONTRIVIAL_OPERATORS:
        b = _builder(name, rows)
        p = operator(rows)
        for n in (1, 2):
            assert b.psi(n).eq(_psi_oracle(p, n)), (name, rows, n)
            constraint = _constraint_oracle(p, n)
            assert b.rno_constraint(n).eq(constraint), (name, rows, n)
            basis = b.rno_basis(n)
            assert constraint.mul(basis).is_zero(), (name, rows, n)
            assert rank(basis) == basis.cols == b.amb(n) - rank(constraint), (name, rows, n)


def _domain_inclusion(b, n):
    """Columns spanning C^n_A (+) C^(n-1)_RNO inside ambient (+) ambient."""
    if n == 0:
        return Matrix.identity(b.amb(0))
    basis = b.rno_basis(n - 1)
    top = Matrix.identity(b.amb(n)).hstack(Matrix.zeros(b.amb(n), basis.cols))
    return top.vstack(Matrix.zeros(basis.rows, b.amb(n)).hstack(basis))


def test_block_assembly_equals_ambient_products():
    # the audit's complex instances, plus mat2 with P = Id
    for name, rows in (("zero1", [[0]]), ("leftunit2", [[0, 0], [0, 0]]),
                       ("leftunit2", [[1, 0], [0, 1]]),
                       ("pair3", [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
                       ("trunc3", [[0, 0, 0], [0, 0, 0], [0, 0, 0]]),
                       ("mat2", [[int(i == j) for j in range(4)] for i in range(4)])):
        b = _builder(name, rows)
        for n in range(3):
            assert b.d(n).eq(b.d_ambient(n).mul(_domain_inclusion(b, n))), (name, n)
            assert b.d_square_residual(n).eq(b.d_ambient(n + 1).mul(b.d(n))), (name, n)


def test_zero_algebra_dimension_table():
    a = CAT["zero1"]
    p = operator([[0]])
    result = cohomology_dims(a, p, regular_representation(a, p), 2)
    table = [(d.degree, d.dim_z, d.dim_b, d.dim_h, d.consistent)
             for d in result.degrees]
    assert table == [(0, 0, 0, 0, True), (1, 2, 1, 1, True), (2, 2, 0, 2, True)]
    for d in result.degrees:
        assert all(d.residual_zero.values())


def test_noncommutative_base_gates_low_degrees():
    # the combined differential fails d.d = 0 entering degrees 0 and 1 here,
    # so those quotients are reported as undefined rather than as numbers
    a = CAT["leftunit2"]
    p = operator([[0, 0], [0, 0]])
    result = cohomology_dims(a, p, regular_representation(a, p), 2)
    assert [d.dim_h for d in result.degrees] == [None, None, 0]
    assert [d.consistent for d in result.degrees] == [False, False, True]
    assert (result.at(2).dim_z, result.at(2).dim_b) == (4, 4)


def test_inconsistent_degree_records_witness_entry():
    a = CAT["leftunit2"]
    p = operator([[0, 0], [0, 0]])
    result = cohomology_dims(a, p, regular_representation(a, p), 1)
    report = result.at(0)
    assert not report.residual_zero["d2"]
    w = report.witnesses["d2"]
    assert w is not None and w.value != 0


def test_psi_delta_residuals_nonzero_on_audited_instances():
    # frozen facts: these residuals are exactly nonzero at degrees 1 and 2
    for name, rows in (("pair3", [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
                       ("leftunit2", [[1, 0], [0, 1]])):
        b = _builder(name, rows)
        for n in (1, 2):
            assert not b.psi_delta_residual(n).is_zero(), (name, n)
            assert not b.d_square_residual(n).is_zero(), (name, n)


def test_combined_differential_shapes():
    b = _builder("leftunit2", [[0, 0], [0, 0]])
    d1 = b.d(1)
    assert d1.rows == b.amb(2) + b.amb(1)
    assert d1.cols == b.domain_dim(1)
    assert b.domain_dim(1) == b.amb(1) + b.rno_basis(0).cols


def test_budget_cap_raises_budget_error():
    a = CAT["mat2"]
    p = Matrix.zeros(4, 4)
    with pytest.raises(BudgetError):
        ComplexBuilder(a, p, regular_representation(a, p), budget=10).delta(2)


def test_psi_storage_is_linear_in_the_cochain_dimension():
    # the default budget admits psi at degree 6 on mat2: 16384 x 16384, which
    # would be 268M entries stored densely; n + 2 Kronecker terms store at most
    # amb(6) nonzeros each
    b = _builder("mat2", [[int(i == j) for j in range(4)] for i in range(4)])
    psi = b.psi(6)
    assert psi.rows == psi.cols == b.amb(6) == 16384
    assert len(psi.entries) <= (6 + 2) * b.amb(6)


def test_rno_basis_is_built_sparse_from_the_echelon():
    # with P = Id the constraint is zero, so the constrained basis is the
    # 4096-column identity; a dense kernel passes through 4096^2 list entries
    b = _builder("mat2", [[int(i == j) for j in range(4)] for i in range(4)])
    tracemalloc.start()
    try:
        basis = b.rno_basis(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis == Matrix.identity(4096)
    assert peak < 30 * 2 ** 20


def test_image_closed_is_column_space_containment():
    # image_closed asks the constraint to annihilate the lower rows of d_n;
    # the oracle asks that those rows add nothing to the span of rno_basis
    seen = set()
    for name, rows in NONTRIVIAL_OPERATORS + (("leftunit2", [[0, 0], [0, 0]]),
                                              ("pair3", [[1, 0, 0], [0, 0, 0], [0, 0, 0]])):
        b = _builder(name, rows)
        for n in range(3):
            lower = Matrix.from_rows(b.d(n).to_rows()[b.amb(n + 1):])
            basis = b.rno_basis(n)
            expected = rank(basis.hstack(lower)) == rank(basis)
            assert b.image_closed(n) == expected, (name, rows, n)
            seen.add(expected)
    assert seen == {True, False}
