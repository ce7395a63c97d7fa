"""Algebra core: catalog products, identity checks, star product, morphisms."""

from __future__ import annotations

import ast
import copy
import itertools
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest

import rnalg
from rnalg import fileio
from rnalg.algebra import (KIND_NIJENHUIS, KIND_REYNOLDS, KIND_RN, Algebra, OperatorKind,
                           check_associative, check_morphism, check_operator,
                           classify_square, modified_rota_baxter, parse_kind,
                           rota_baxter, star_product)
from rnalg.audit import operator_fixtures
from rnalg.catalog import catalog, operator
from rnalg.errors import InputError
from rnalg.exactlin import Matrix, qstr
from rnalg.representation import regular_representation
from test_polysys import _change_basis, _halved, _unimodular

CAT = catalog()


def _e(a, i):
    """The unit coordinate vector e_i of a."""
    return [Fraction(int(k == i)) for k in range(a.dim)]


def test_catalog_names_and_dimensions():
    assert sorted(CAT) == ["leftunit2", "mat2", "pair3", "trunc3", "zero1"]
    assert [CAT[n].dim for n in ("zero1", "leftunit2", "pair3", "mat2", "trunc3")] == [1, 2, 3, 4, 3]


def test_all_catalog_algebras_are_associative():
    for name, a in CAT.items():
        assert check_associative(a).passed, name


def test_leftunit2_product_table():
    a = CAT["leftunit2"]
    assert a.multiply(_e(a, 0), _e(a, 0)) == _e(a, 0)
    assert a.multiply(_e(a, 0), _e(a, 1)) == _e(a, 1)
    assert a.multiply(_e(a, 1), _e(a, 0)) == [Fraction(0), Fraction(0)]
    assert a.multiply(_e(a, 1), _e(a, 1)) == [Fraction(0), Fraction(0)]


def test_pair3_product_table():
    a = CAT["pair3"]
    assert a.multiply(_e(a, 0), _e(a, 2)) == _e(a, 1)
    assert a.multiply(_e(a, 2), _e(a, 0)) == _e(a, 1)
    for i in range(3):
        for j in range(3):
            if (i, j) not in ((0, 2), (2, 0)):
                assert a.multiply(_e(a, i), _e(a, j)) == [Fraction(0)] * 3


def test_mat2_matrix_unit_products():
    # basis order E00, E01, E10, E11; EabEcd = delta(b,c) Ead
    a = CAT["mat2"]
    assert a.multiply(_e(a, 0), _e(a, 1)) == _e(a, 1)
    assert a.multiply(_e(a, 1), _e(a, 2)) == _e(a, 0)
    assert a.multiply(_e(a, 1), _e(a, 1)) == [Fraction(0)] * 4
    assert a.multiply(_e(a, 2), _e(a, 1)) == _e(a, 3)


def test_trunc3_truncation():
    a = CAT["trunc3"]
    assert a.multiply(_e(a, 1), _e(a, 1)) == _e(a, 2)
    assert a.multiply(_e(a, 1), _e(a, 2)) == [Fraction(0)] * 3
    assert a.multiply(_e(a, 0), _e(a, 2)) == _e(a, 2)


def test_single_constant_mutations_break_associativity():
    bad = catalog()["leftunit2"]
    mutated = Algebra.from_sparse(bad.dim, [(0, 0, 0, 1), (0, 1, 1, 1), (0, 0, 1, 1)])
    report = check_associative(mutated)
    assert not report.passed
    assert report.violations[0].residual != ()


# The product is stored once, as the sparse matrix mu; the oracles below read
# only the dense view c and loop over it as the cube-based code did.


def _cube_associator(a: Algebra) -> list:
    """(i, j, k, residual) of each nonzero (e_i e_j) e_k - e_i (e_j e_k), from the cube."""
    n, c = range(a.dim), a.c
    out = []
    for i, j, k in itertools.product(n, repeat=3):
        res = tuple(sum(c[i][j][l] * c[l][k][m] - c[j][k][l] * c[i][l][m] for l in n) for m in n)
        if any(res):
            out.append((i, j, k, res))
    return out


def _mutated(a: Algebra, idx, delta) -> Algebra:
    """a with the single structure constant at idx moved by delta."""
    n = range(a.dim)
    return Algebra.from_sparse(a.dim, [(*t, a.c[t[0]][t[1]][t[2]] + delta * (t == idx))
                                       for t in itertools.product(n, repeat=3)])


def _storage_cases() -> dict[str, Algebra]:
    cases = {}
    for name, a in CAT.items():
        cases[name] = a
        cases[f"{name}-copy"] = _change_basis(a, *_unimodular(a.dim, random.Random(name)))
        cases[f"{name}-halved"] = _halved(a)
        if a.dim > 1:
            cases[f"{name}-mutated"] = _mutated(a, (0, 0, 0), Fraction(1, 3))
    return cases


STORAGE_CASES = _storage_cases()


@pytest.mark.parametrize("name", sorted(STORAGE_CASES))
def test_check_associative_equals_the_cube_triple_loop(name):
    a = STORAGE_CASES[name]
    report = check_associative(a)
    assert [(v.i, v.j, v.k, v.residual) for v in report.violations] == _cube_associator(a)
    assert report.passed == (not name.endswith("-mutated"))


@pytest.mark.parametrize("name", sorted(CAT))
def test_check_associative_equals_the_cube_triple_loop_on_single_constant_mutations(name):
    a = CAT[name]
    broken = 0
    for idx in itertools.product(range(a.dim), repeat=3):
        for delta in (1, Fraction(1, 3)):
            m = _mutated(a, idx, delta)
            violations = [(v.i, v.j, v.k, v.residual) for v in check_associative(m).violations]
            assert violations == _cube_associator(m), (idx, delta)
            broken += bool(violations)
    assert broken > 0 or a.dim == 1


@pytest.mark.parametrize("name", sorted(STORAGE_CASES))
def test_mu_readers_equal_the_cube_loops(name):
    a = STORAGE_CASES[name]
    n, c = range(a.dim), a.c
    rng = random.Random(name)
    for _ in range(5):
        x, y = ([rng.choice((0, 0, 1, -2, Fraction(1, 3), Fraction(-5, 2))) for _ in n]
                for _ in range(2))
        assert a.multiply(x, y) == [sum(x[i] * y[j] * c[i][j][k] for i in n for j in n)
                                    for k in n]
    m = regular_representation(a, Matrix.zeros(a.dim, a.dim))
    for i in n:
        assert m.left[i] == Matrix.from_rows([[c[i][j][k] for j in n] for k in n])
        assert m.right[i] == Matrix.from_rows([[c[j][i][k] for j in n] for k in n])
    walk = [[i, j, k, qstr(c[i][j][k])] for i in n for j in n for k in n if c[i][j][k]]
    assert fileio.dump_algebra(a)["c"] == walk
    assert [[i, j, k, qstr(v)] for i, j, k, v in a.triples()] == walk


def test_from_sparse_keeps_the_last_repeated_triple_and_stores_no_zero():
    a = Algebra.from_sparse(2, [(0, 0, 0, 1), (0, 1, 1, 2), (0, 1, 1, Fraction(1, 2)),
                                (1, 1, 0, 3), (1, 1, 0, 0), (1, 0, 1, 0)])
    assert a.mu.entries == {(0, 0): 1, (1, 1): Fraction(1, 2)}
    assert a.triples() == [(0, 0, 0, 1), (0, 1, 1, Fraction(1, 2))]
    assert a.c == (((1, 0), (0, Fraction(1, 2))), ((0, 0), (0, 0)))
    assert a.c is a.c and all(type(x) is Fraction for p in a.c for r in p for x in r)
    with pytest.raises(InputError, match="out of range"):
        Algebra.from_sparse(2, [(0, 2, 0, 1)])


@pytest.mark.parametrize("mu", [Matrix.zeros(2, 2), Matrix.zeros(4, 2), Matrix.zeros(2, 8),
                                Matrix.zeros(1, 4), [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]],
                         ids=["square", "transposed", "dim^3-columns", "one-row", "cube"])
def test_algebra_refuses_a_product_matrix_of_the_wrong_shape(mu):
    with pytest.raises(InputError):
        Algebra(2, mu)
    assert Algebra(2, Matrix.zeros(2, 4)).is_associative()


def _outside_algebra(match) -> list[str]:
    """file:line of every AST node that match accepts in an rnalg module other than algebra.py."""
    found = []
    for path in sorted(Path(rnalg.__file__).parent.glob("*.py")):
        if path.name != "algebra.py":
            tree = ast.parse(path.read_text())
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if match(node)]
    return found


def test_only_the_algebra_module_reads_the_dense_cube():
    # the product's storage stays behind rnalg.algebra: every other module reads mu
    assert _outside_algebra(lambda node: isinstance(node, ast.Attribute) and node.attr == "c") == []


def test_only_the_algebra_module_calls_multiply():
    # every check evaluates its identity as one cochain on mu; none goes back to
    # multiplying basis vectors pair by pair
    assert _outside_algebra(lambda node: isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr == "multiply") == []


# The checks evaluate each identity once, as a cochain on mu.  The oracles
# below evaluate it pair by pair, with a.multiply on unit vectors, as the
# checks once did.

ORACLE_KINDS = ("rn", "reynolds", "nijenhuis", "rb:1", "rb:-1", "mrb:1", "mrb:-1",
                "rb:1/2", "mrb:-3/2")


def _add(x, y):
    return [u + v for u, v in zip(x, y)]


def _sub(x, y):
    return [u - v for u, v in zip(x, y)]


def _pair_identities(a: Algebra, p: Matrix, kind) -> list:
    """(i, j, identity, residual) of each nonzero identity residual, pair by pair."""
    mul, apply = a.multiply, p.apply
    names = ["nijenhuis", "reynolds"] if kind == KIND_RN else [kind.name]
    out = []
    for i, j in itertools.product(range(a.dim), repeat=2):
        x, y = _e(a, i), _e(a, j)
        px, py, xy = apply(x), apply(y), mul(x, y)
        cross = _add(mul(x, py), mul(px, y))
        weighted = _add(cross, [(kind.weight or 0) * t for t in xy])
        residual = {
            "nijenhuis": _sub(mul(px, py), apply(_sub(cross, apply(xy)))),
            "reynolds": _sub(mul(px, py), apply(_sub(cross, mul(px, py)))),
            "rota_baxter": _sub(mul(px, py), apply(weighted)),
            "modified_rota_baxter": _sub(apply(xy), weighted),
        }
        out += [(i, j, name, tuple(residual[name])) for name in names if any(residual[name])]
    return out


def _pair_star(a: Algebra, p: Matrix) -> list:
    """e_i * e_j = e_i P(e_j) + P(e_i) e_j - P(e_i e_j), pair by pair."""
    out = []
    for i, j in itertools.product(range(a.dim), repeat=2):
        x, y = _e(a, i), _e(a, j)
        out.append(_sub(_add(a.multiply(x, p.apply(y)), a.multiply(p.apply(x), y)),
                        p.apply(a.multiply(x, y))))
    return out


def _pair_morphism(src: Algebra, dst: Algebra, phi: Matrix) -> list:
    """(i, j, phi(e_i e_j) - phi(e_i) phi(e_j)) of each nonzero residual, pair by pair."""
    out = []
    for i, j in itertools.product(range(src.dim), repeat=2):
        x, y = _e(src, i), _e(src, j)
        res = tuple(_sub(phi.apply(src.multiply(x, y)),
                         dst.multiply(phi.apply(x), phi.apply(y))))
        if any(res):
            out.append((i, j, res))
    return out


def _random_map(rng: random.Random, rows: int, cols: int) -> Matrix:
    pool = (0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2))
    return Matrix.from_rows([[rng.choice(pool) for _ in range(cols)] for _ in range(rows)])


ORACLE_CASES = sorted(n for n in STORAGE_CASES if not n.endswith("-mutated"))


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_check_operator_and_star_product_equal_the_per_pair_oracles(name):
    a = STORAGE_CASES[name]
    rng = random.Random(name)
    ops = operator_fixtures().get(name, []) + [(f"random{k}", _random_map(rng, a.dim, a.dim))
                                               for k in range(2)]
    for label, p in ops:
        for text in ORACLE_KINDS:
            kind = parse_kind(text)
            got = [(v.i, v.j, v.identity, v.residual)
                   for v in check_operator(a, p, kind).violations]
            assert got == _pair_identities(a, p, kind), (label, text)
            assert all(type(x) is Fraction for v in got for x in v[3])
        st = star_product(a, p)
        assert [st.mu.col_list(col) for col in range(a.dim ** 2)] == _pair_star(a, p), label
        assert (st.basis, st.name) == (a.basis, f"star({a.name})" if a.name else None)


def test_check_morphism_equals_the_per_pair_oracle():
    rng = random.Random(14)
    for src, dst in itertools.product(CAT.values(), repeat=2):
        p_src, p_dst = _random_map(rng, src.dim, src.dim), _random_map(rng, dst.dim, dst.dim)
        phis = [Matrix.zeros(dst.dim, src.dim), _random_map(rng, dst.dim, src.dim)]
        if src.dim == dst.dim:
            phis.append(Matrix.identity(src.dim))
        for phi in phis:
            report = check_morphism(src, dst, phi, p_src, p_dst)
            assert list(report.product_violations) == _pair_morphism(src, dst, phi)
            assert report.intertwine_residual == tuple(
                tuple(sum(p_dst.at(r, k) * phi.at(k, c) for k in range(dst.dim))
                      - sum(phi.at(r, k) * p_src.at(k, c) for k in range(src.dim))
                      for c in range(src.dim)) for r in range(dst.dim))


def test_check_morphism_between_algebras_of_different_dimensions():
    # leftunit2 -> mat2: e0 -> E00, e1 -> E01 is a morphism; e0 -> E00 + E11 is not,
    # since e1 e0 = 0 while E01 (E00 + E11) = E01
    src, dst = CAT["leftunit2"], CAT["mat2"]
    zero2, zero4 = Matrix.zeros(2, 2), Matrix.zeros(4, 4)
    good = Matrix.from_rows([[1, 0], [0, 1], [0, 0], [0, 0]])
    assert check_morphism(src, dst, good, zero2, zero4).passed
    bad = Matrix.from_rows([[1, 0], [0, 1], [0, 0], [1, 0]])
    report = check_morphism(src, dst, bad, zero2, zero4)
    assert report.product_violations == ((1, 0, (0, -1, 0, 0)),)
    assert report.intertwines and not report.passed
    with pytest.raises(InputError):
        check_morphism(src, dst, good.transpose(), zero2, zero4)


def test_parse_kind_accepts_all_forms():
    assert parse_kind("rn") is KIND_RN
    assert parse_kind("reynolds") is KIND_REYNOLDS
    assert parse_kind("nijenhuis") is KIND_NIJENHUIS
    assert parse_kind("rb:-1").label() == "rota_baxter(-1)"
    assert parse_kind("mrb:1/2").label() == "modified_rota_baxter(1/2)"
    assert parse_kind("rb:0") == rota_baxter(0)
    assert parse_kind("mrb:-1") == modified_rota_baxter(-1)


def test_parse_kind_rejects_unknown_strings():
    for bad in ("", "rb", "rb:", "rb:x", "reynolds-nijenhuis?", "mrb"):
        with pytest.raises(InputError):
            parse_kind(bad)


@pytest.mark.parametrize("make", [
    lambda: OperatorKind("rota-baxter", Fraction(1)),
    lambda: OperatorKind("rota_baxter"),
    lambda: OperatorKind("modified_rota_baxter", None),
    lambda: OperatorKind("reynolds", Fraction(0)),
    lambda: OperatorKind("reynolds_nijenhuis", 1),
    lambda: OperatorKind("rota_baxter", 0.5),
    lambda: OperatorKind("modified_rota_baxter", True),
    lambda: rota_baxter(0.1),
    lambda: rota_baxter(True),
    lambda: modified_rota_baxter(-0.5),
    lambda: modified_rota_baxter(False),
], ids=["unknown-name", "rb-no-weight", "mrb-none-weight", "reynolds-weight", "rn-weight",
        "kind-float", "kind-bool", "rb-float", "rb-bool", "mrb-float", "mrb-bool"])
def test_operator_kind_refuses_bad_names_and_weights(make):
    with pytest.raises(InputError):
        make()


def test_operator_kind_keeps_its_value_semantics():
    assert KIND_RN == OperatorKind("reynolds_nijenhuis") and KIND_RN != KIND_REYNOLDS
    assert hash(KIND_RN) == hash(("reynolds_nijenhuis", None))
    assert repr(KIND_RN) == "OperatorKind(name='reynolds_nijenhuis', weight=None)"
    rb = rota_baxter(-1)
    assert rb == OperatorKind("rota_baxter", Fraction(-1)) == parse_kind("rb:-1")
    assert rb != modified_rota_baxter(-1) and rb != rota_baxter(1)
    assert hash(rb) == hash(("rota_baxter", Fraction(-1)))
    assert repr(rb) == "OperatorKind(name='rota_baxter', weight=Fraction(-1, 1))"
    assert type(rb.weight) is Fraction and rota_baxter("1/2").weight == Fraction(1, 2)
    assert KIND_RN != ("reynolds_nijenhuis", None) and rb != ("rota_baxter", Fraction(-1))
    assert len({KIND_RN, OperatorKind("reynolds_nijenhuis"), rb, rota_baxter(-1)}) == 2
    for kind in (KIND_RN, rb):
        assert copy.deepcopy(kind) == pickle.loads(pickle.dumps(kind)) == kind


def test_zero_and_identity_operators_pass_rn_everywhere():
    for name, a in CAT.items():
        zero = operator([[0] * a.dim for _ in range(a.dim)])
        ident = operator([[1 if i == j else 0 for j in range(a.dim)] for i in range(a.dim)])
        assert check_operator(a, zero, KIND_RN).passed, name
        assert check_operator(a, ident, KIND_RN).passed, name


def test_projection_onto_second_basis_vector_splits_the_identities():
    a = CAT["leftunit2"]
    p = operator([[0, 0], [0, 1]])
    assert check_operator(a, p, KIND_NIJENHUIS).passed
    rep = check_operator(a, p, KIND_REYNOLDS)
    assert not rep.passed
    v = rep.violations[0]
    assert (v.i, v.j, v.identity) == (0, 1, "reynolds")
    assert v.residual == (Fraction(0), Fraction(-1))
    assert check_operator(a, p, rota_baxter(-1)).passed


def test_combined_check_reports_the_failing_component():
    a = CAT["leftunit2"]
    rep = check_operator(a, operator([[0, 0], [0, 1]]), KIND_RN)
    assert [v.identity for v in rep.violations] == ["reynolds"]


def test_solution_set_is_not_closed_under_addition():
    a = CAT["pair3"]
    first = operator([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    last = operator([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    both = operator([[1, 0, 0], [0, 0, 0], [0, 0, 1]])
    assert check_operator(a, first, KIND_RN).passed
    assert check_operator(a, last, KIND_RN).passed
    assert not check_operator(a, both, KIND_RN).passed


def test_star_product_zero_operator_kills_everything():
    a = CAT["leftunit2"]
    st = star_product(a, operator([[0, 0], [0, 0]]))
    for i in range(2):
        for j in range(2):
            assert st.multiply(_e(st, i), _e(st, j)) == [Fraction(0)] * 2


def test_star_product_identity_operator_preserves_product():
    for name, a in CAT.items():
        ident = operator([[1 if i == j else 0 for j in range(a.dim)] for i in range(a.dim)])
        st = star_product(a, ident)
        assert st.c == a.c, name


def test_star_product_worked_example_on_pair3():
    a = CAT["pair3"]
    p = operator([[0, 2, 0], [0, 0, 0], [0, 3, 0]])
    st = star_product(a, p)
    assert st.multiply(_e(st, 0), _e(st, 1)) == [Fraction(0), Fraction(3), Fraction(0)]
    assert st.multiply(_e(st, 1), _e(st, 2)) == [Fraction(0), Fraction(2), Fraction(0)]
    assert st.multiply(_e(st, 0), _e(st, 2)) == [Fraction(-2), Fraction(0), Fraction(-3)]


def test_star_of_nilpotent_shift_is_zero_but_operator_is_not_multiplicative():
    # P e0 = e1 is RN; the star table degenerates to zero while
    # P(e0.e0) = e1 is nonzero, so P does not carry . to * .
    a = CAT["leftunit2"]
    p = operator([[0, 0], [1, 0]])
    assert check_operator(a, p, KIND_RN).passed
    st = star_product(a, p)
    assert all(st.multiply(_e(st, i), _e(st, j)) == [Fraction(0)] * 2
               for i in range(2) for j in range(2))
    into = check_morphism(a, st, p, p, p)
    assert not into.product_ok
    assert into.product_violations[0][:2] == (0, 0)
    assert into.intertwines
    back = check_morphism(st, a, p, p, p)
    assert back.passed


def test_morphism_from_star_holds_for_every_nijenhuis_fixture():
    fixtures = [
        ("leftunit2", [[0, 0], [0, 1]]),
        ("pair3", [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
        ("trunc3", [[0, 0, 0], [0, 0, 0], [1, 0, 0]]),
    ]
    for name, rows in fixtures:
        a = CAT[name]
        p = operator(rows)
        assert check_operator(a, p, KIND_NIJENHUIS).passed, name
        st = star_product(a, p)
        assert check_morphism(st, a, p, p, p).passed, name


def test_classify_square_square_zero_case_agrees():
    a = CAT["leftunit2"]
    cls = classify_square(a, operator([[0, 0], [1, 0]]))
    assert cls.square_zero and not cls.idempotent
    case = cls.cases[0]
    assert case.condition == "square_zero"
    assert case.equivalent_kind == rota_baxter(0)
    assert case.is_rn and case.other_holds and case.agree


def test_classify_square_idempotent_case_disagrees():
    a = CAT["leftunit2"]
    cls = classify_square(a, operator([[0, 0], [0, 1]]))
    assert cls.idempotent
    case = next(c for c in cls.cases if c.condition == "idempotent")
    assert case.equivalent_kind == rota_baxter(-1)
    assert not case.is_rn
    assert case.other_holds
    assert not case.agree


def test_classify_square_involutive_case():
    a = CAT["leftunit2"]
    cls = classify_square(a, operator([[1, 0], [0, -1]]))
    assert cls.involutive
    case = next(c for c in cls.cases if c.condition == "involutive")
    assert case.equivalent_kind == modified_rota_baxter(-1)
    assert case.is_rn and case.other_holds and case.agree


def test_modified_rota_baxter_is_the_derivation_style_identity():
    # P(ab) = P(a)b + aP(b) + w ab, checked at a transparent instance
    a = CAT["leftunit2"]
    p = operator([[1, 0], [0, -1]])
    assert check_operator(a, p, modified_rota_baxter(-1)).passed
    assert not check_operator(a, p, modified_rota_baxter(1)).passed


def test_check_operator_rejects_shape_mismatch():
    with pytest.raises(InputError):
        check_operator(CAT["pair3"], operator([[1, 0], [0, 1]]), KIND_RN)
