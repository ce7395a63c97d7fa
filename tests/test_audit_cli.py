"""Claims audit determinism, counterexample replay, file formats, CLI exits."""

from __future__ import annotations

import copy
import hashlib
import json
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnalg import fileio
from rnalg.audit import (
    audit_report_dict,
    build_fixtures,
    render_markdown,
    replay_counterexample,
    run_audit,
)
from rnalg.fileio import canonical_json
from rnalg.catalog import catalog, operator
from rnalg.cli import main
from rnalg.deformation import FormalIso, TruncatedDeformation
from rnalg.errors import InputError
from rnalg.exactlin import Matrix, from_cols
from rnalg.algebra import Algebra, parse_kind
from rnalg.polysys import build_identity_system
from rnalg.representation import Bimodule, regular_representation
from test_deformation import _identity_iso

Q = Fraction
CAT = catalog()

EXPECTED_VERDICTS = {
    "star-product-associativity": "confirmed-on-instances",
    "star-preserves-operator": "confirmed-on-instances",
    "star-morphism-into-deformed": "refuted-by-counterexample",
    "star-morphism-from-deformed": "confirmed-on-instances",
    "rn-family-completeness": "refuted-by-counterexample",
    "square-zero-weight-zero": "confirmed-on-instances",
    "idempotent-weight-neg-one": "refuted-by-counterexample",
    "involutive-modified-weight": "confirmed-on-instances",
    "anti-involutive-modified-weight": "confirmed-on-instances",
    "regular-action-compatibility": "refuted-by-counterexample",
    "induced-representation-validity": "confirmed-on-instances",
    "psi-delta-commutation": "refuted-by-counterexample",
    "complex-squares-to-zero": "refuted-by-counterexample",
    "degree-one-operator-part": "refuted-by-counterexample",
    "infinitesimal-is-cocycle": "refuted-by-counterexample",
    "equivalent-deformations-same-class": "refuted-by-counterexample",
    "rigidity-criterion": "not-evaluable",
}


@pytest.fixture(scope="module")
def report():
    return run_audit()


def test_claim_ids_and_verdicts(report):
    assert [c.claim_id for c in report.claims] == list(EXPECTED_VERDICTS)
    for c in report.claims:
        assert c.verdict == EXPECTED_VERDICTS[c.claim_id], c.claim_id


def test_refuted_claims_carry_counterexamples(report):
    for c in report.claims:
        if c.verdict == "refuted-by-counterexample":
            assert c.counterexamples, c.claim_id
        if c.verdict == "confirmed-on-instances":
            assert not c.counterexamples, c.claim_id
            assert c.instances, c.claim_id


def test_every_counterexample_replays_exactly(report):
    total = 0
    for c in report.claims:
        for ce in c.counterexamples:
            out = replay_counterexample(ce)
            assert out["matches"], (c.claim_id, ce["operation"])
            total += 1
    assert total == 33


def test_counterexamples_are_self_contained(report):
    for c in report.claims:
        for ce in c.counterexamples:
            assert set(ce) == {"operation", "inputs", "recorded"}
            json.dumps(ce["inputs"])
            json.dumps(ce["recorded"])


def test_audit_output_is_deterministic(report):
    first = canonical_json(audit_report_dict(report))
    second = canonical_json(audit_report_dict(run_audit()))
    assert first == second


# sha256 of what `rnalg audit` writes in each format; a change that alters the
# report on purpose moves the pin in the same change and says why
AUDIT_SHA256 = {
    "json": "9a17e1a18dd2b70068649475397928fcd8d131ac1169695eaac9febf399c1442",
    "markdown": "9babd5fd06868997b92d0eee580eca0c6f69d434b9dc3726f2cc9f5f03cdd841",
}


@pytest.mark.parametrize("fmt", sorted(AUDIT_SHA256))
def test_audit_output_bytes_are_pinned(fmt, capsys):
    assert main(["--out-format", fmt, "audit"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == AUDIT_SHA256[fmt]


def test_markdown_rendering_lists_every_claim(report):
    doc = audit_report_dict(report)
    text = render_markdown(doc)
    assert text.startswith("# Claims audit")
    for claim_id in EXPECTED_VERDICTS:
        assert f"## {claim_id}" in text
    assert "17 claims" in text
    # rows render in dict order, so each row shape pins its key order
    for line in (
        "- algebra=leftunit2, operator=e0-to-e1, passed=False",
        "- algebra=leftunit2, operator=proj-e1, is_rn=False, other_holds=True, agree=False",
        "- algebra=leftunit2, operator=zero, degree=0, zero=False",
        "- algebra=leftunit2, operator=id, premise_holds=False",
        "- algebra=pair3, operator=e0-only, premise_holds=True, induced_valid=True",
        "- algebra=pair3, operator=e0-only, equivalent=True, transported_valid=True, "
        "difference_in_domain=False, same_class=False",
    ):
        assert line + "\n" in text, line


def test_summary_tallies_verdicts(report):
    doc = audit_report_dict(report)
    assert doc["summary"]["claims"] == 17
    assert doc["summary"]["verdicts"] == {
        "confirmed-on-instances": 7,
        "refuted-by-counterexample": 9,
        "not-evaluable": 1,
    }


def test_fixture_extension_and_collision():
    fx = build_fixtures({"ext": CAT["zero1"]})
    assert "ext" in fx["algebras"]
    assert [label for label, _ in fx["operators"]["ext"]] == ["zero", "id"]
    with pytest.raises(InputError):
        build_fixtures({"pair3": CAT["pair3"]})
    with pytest.raises(InputError, match="fixture 'nonassoc': algebra is not associative"):
        build_fixtures({"nonassoc": Algebra.from_sparse(2, [(0, 0, 1, 1), (1, 1, 0, 1)])})


def test_unknown_claim_lookup_raises(report):
    with pytest.raises(KeyError):
        report.claim("no-such-claim")


def test_canonical_json_shape():
    text = canonical_json({"b": 1, "a": [True, None]})
    assert text == '{\n  "a": [\n    true,\n    null\n  ],\n  "b": 1\n}\n'


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def test_algebra_round_trip():
    a = CAT["pair3"]
    b = fileio.load_algebra(fileio.dump_algebra(a))
    assert b.c == a.c
    assert b.name == a.name


def test_linop_round_trip_and_convention_guard():
    m = operator([[0, Q(1, 2)], [3, 0]])
    doc = fileio.dump_linop(m)
    assert doc["matrix"][0][1] == "1/2"
    assert fileio.load_linop(doc) == m
    doc["convention"] = "rows act on the left"
    with pytest.raises(InputError):
        fileio.load_linop(doc)
    bad = fileio.dump_linop(m)
    bad["dim"] = 3
    with pytest.raises(InputError):
        fileio.load_linop(bad)


def test_bimodule_round_trip():
    a = CAT["leftunit2"]
    m = regular_representation(a, operator([[0, 0], [1, 0]]))
    n = fileio.load_bimodule(fileio.dump_bimodule(m))
    assert n.dim_v == m.dim_v
    assert all(x.eq(y) for x, y in zip(n.left, m.left))
    assert all(x.eq(y) for x, y in zip(n.right, m.right))
    assert n.xi.eq(m.xi)


def test_deformation_round_trip():
    a = CAT["leftunit2"]
    d = TruncatedDeformation.constant(a, Matrix.identity(2), 2)
    e = fileio.load_deformation(fileio.dump_deformation(d))
    assert e.nu == d.nu
    assert all(x == y for x, y in zip(e.p, d.p))


_NU_ROW = [["1", "0"], ["0", "1"]]  # nu(e_i, e_0), nu(e_i, e_1) for dim 2


@pytest.mark.parametrize("table", [
    [_NU_ROW, _NU_ROW, _NU_ROW],
    [_NU_ROW, [["1", "0", "0"], ["0", "1"]]],
    # the same 2 x 4 matrix as a valid table, so only the table shape refuses it
    [[["1", "0"], ["0", "1"], ["0", "0"], ["1", "1"]]],
], ids=["wrong-row-count", "wrong-vector-length", "one-row-of-dim2-vectors"])
def test_load_deformation_refuses_malformed_nu_tables(table):
    doc = fileio.dump_deformation(TruncatedDeformation.constant(CAT["leftunit2"],
                                                                Matrix.zeros(2, 2), 1))
    assert fileio.load_deformation(doc).order == 1
    doc["nu"][1] = table
    with pytest.raises(InputError):
        fileio.load_deformation(doc)


def test_iso_round_trip():
    iso = FormalIso(2, [Matrix.identity(2), operator([[0, 1], [2, 0]]),
                        Matrix.zeros(2, 2)])
    j = fileio.load_iso(fileio.dump_iso(iso))
    assert j.order == 2
    assert all(x == y for x, y in zip(j.phi, iso.phi))


def test_read_json_wraps_parse_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InputError):
        fileio.read_json(str(path))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


@pytest.fixture()
def files(tmp_path):
    def dump(name, doc):
        p = tmp_path / name
        fileio.write_json(str(p), doc)
        return str(p)

    a = CAT["leftunit2"]
    out = {
        "dir": tmp_path,
        "leftunit2": dump("leftunit2.json", fileio.dump_algebra(a)),
        "pair3": dump("pair3.json", fileio.dump_algebra(CAT["pair3"])),
        "zero2": dump("zero2.json", fileio.dump_linop(Matrix.zeros(2, 2))),
        "id2": dump("id2.json", fileio.dump_linop(Matrix.identity(2))),
        "proj_e1": dump("proj_e1.json", fileio.dump_linop(operator([[0, 0], [0, 1]]))),
        "triv": dump("triv.json", fileio.dump_deformation(
            TruncatedDeformation.constant(a, Matrix.zeros(2, 2), 2))),
        "iso_id": dump("iso_id.json", fileio.dump_iso(_identity_iso(2, 2))),
    }
    bad = fileio.dump_algebra(a)
    bad["c"].append([0, 0, 1, "1"])
    out["bad"] = dump("bad.json", bad)
    corrupt = TruncatedDeformation.constant(a, Matrix.zeros(2, 2), 2)
    table = [[[Q(0)] * 2 for _ in range(2)] for _ in range(2)]
    table[0][0][1] = Q(1)
    nu_k = from_cols([vec for row in table for vec in row])
    out["corrupt"] = dump("corrupt.json",
                          fileio.dump_deformation(corrupt.with_coefficient(1, nu_k=nu_k)))
    return out


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_check_assoc(files, capsys):
    code, out, _ = _run(capsys, ["check-assoc", files["leftunit2"]])
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, out, _ = _run(capsys, ["check-assoc", files["bad"]])
    assert code == 1
    assert json.loads(out)["violations"]


@pytest.mark.parametrize("text", ["[" + "7" * 5000 + "]", "[" * 100_000 + "]" * 100_000],
                         ids=["5000-digit-integer", "nested-100000-deep"])
def test_cli_refuses_json_that_python_cannot_decode(files, capsys, text):
    # neither is a JSONDecodeError: int() refuses the digits, the decoder recurses too deep
    path = files["dir"] / "undecodable.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = _run(capsys, ["check-assoc", str(path)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: not readable as JSON")


def test_cli_refuses_exponent_notation_at_once(files, capsys):
    start = time.perf_counter()
    code, _, err = _run(capsys, ["check-op", files["leftunit2"], files["zero2"],
                                 "--kind", "rb:1e1000000"])
    assert code == 2 and "'1e1000000'" in err
    doc = fileio.dump_algebra(CAT["leftunit2"])
    doc["c"][0][3] = "1e10000000"
    path = files["dir"] / "exponent.json"
    fileio.write_json(str(path), doc)
    code, _, err = _run(capsys, ["check-assoc", str(path)])
    assert code == 2 and err.startswith(f"error: {path}: ") and "'1e10000000'" in err
    assert time.perf_counter() - start < 1


def test_cli_check_op_kinds(files, capsys):
    code, out, _ = _run(capsys, ["check-op", files["leftunit2"], files["proj_e1"],
                                 "--kind", "rn"])
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["violations"]
    code, _, _ = _run(capsys, ["check-op", files["leftunit2"], files["proj_e1"],
                               "--kind", "nijenhuis"])
    assert code == 0
    code, _, _ = _run(capsys, ["check-op", files["leftunit2"], files["proj_e1"],
                               "--kind", "rb:-1"])
    assert code == 0


def test_cli_solve_modes(files, capsys):
    code, out, _ = _run(capsys, ["solve", files["pair3"], "--kind", "rn"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["variables"]) == 9
    assert len(doc["polynomials"]) == 52
    code, out, _ = _run(capsys, ["solve", files["pair3"], "--kind", "rn", "--mod", "2"])
    assert code == 0
    assert json.loads(out)["count"] == 56
    code, out, _ = _run(capsys, ["solve", files["leftunit2"], "--kind", "rn",
                                 "--groebner"])
    assert code == 0
    assert json.loads(out)["complete"] is True
    code, out, _ = _run(capsys, ["solve", files["leftunit2"], "--kind", "rn",
                                 "--linear"])
    assert code == 0
    assert "inconsistent" in json.loads(out)


def test_cli_solve_mod_does_not_build_the_rational_system(files, capsys, monkeypatch):
    # the enumeration reduces the raw residuals itself; the system over Q is unused there
    def refuse(*args):
        raise AssertionError("build_identity_system called")

    monkeypatch.setattr("rnalg.polysys.build_identity_system", refuse)
    code, out, _ = _run(capsys, ["solve", files["pair3"], "--kind", "rn", "--mod", "2"])
    assert code == 0
    assert json.loads(out)["count"] == 56


def test_cli_solve_mod_prints_the_answer_without_search_nodes(files, capsys):
    code, out, _ = _run(capsys, ["solve", files["pair3"], "--kind", "rn", "--mod", "3"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"check", "prime", "dim", "kind", "count", "solutions"}
    assert doc["count"] == 180


def test_cli_star_writes_algebra(files, capsys, tmp_path):
    target = str(tmp_path / "star_out.json")
    code, out, _ = _run(capsys, ["star", files["leftunit2"], files["id2"],
                                 "-o", target])
    assert code == 0
    doc = json.loads(out)
    assert doc["associative"] is True
    written = fileio.load_algebra(fileio.read_json(target))
    assert written.c == CAT["leftunit2"].c


def test_cli_check_rep_regular(files, capsys):
    code, out, _ = _run(capsys, ["check-rep", files["leftunit2"], files["id2"],
                                 "--regular"])
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    code, _, _ = _run(capsys, ["check-rep", files["leftunit2"], files["zero2"],
                               "--regular"])
    assert code == 0


def test_cli_cohomology_table(files, capsys):
    code, out, _ = _run(capsys, ["cohomology", files["leftunit2"], files["zero2"],
                                 "--regular", "--max-degree", "2"])
    assert code == 0
    doc = json.loads(out)
    assert [d["dimH"] for d in doc["degrees"]] == [None, None, 0]


def test_cli_cohomology_refuses_a_non_bimodule(files, tmp_path, capsys):
    # two orthogonal idempotents, e_0 acting on the left as 2 Id: only
    # left-action-multiplicative fails, so no complex is built on it
    docs = {"alg": {"dim": 2, "c": [[0, 0, 0, "1"], [1, 1, 1, "1"]]},
            "op": fileio.dump_linop(operator([[1, 0], [0, 0]])),
            "rep": {"dimV": 2, "l": [[["2", "0"], ["0", "2"]], [["0", "0"], ["0", "0"]]],
                    "r": [[["0", "0"], ["0", "0"]]] * 2, "xi": [["1", "0"], ["0", "1"]]}}
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        fileio.write_json(paths[name], doc)
    code, out, err = _run(capsys, ["cohomology", paths["alg"], paths["op"],
                                   "--rep", paths["rep"], "--max-degree", "3"])
    assert (code, out) == (2, "")
    assert err == "error: not a bimodule: left-action-multiplicative fails at (0, 0)\n"
    # check-rep still reports the same file as a failed check
    code, out, _ = _run(capsys, ["check-rep", paths["alg"], paths["op"], "--rep", paths["rep"]])
    assert code == 1
    assert [v["condition"] for v in json.loads(out)["standard_profile"]["violations"]] == [
        "left-action-multiplicative"]
    # on a non-associative algebra the regular actions are refused before any axiom
    for argv in (["cohomology", files["bad"], files["zero2"], "--max-degree", "2"],
                 ["deform", "rigidity", files["bad"], files["zero2"]]):
        code, out, err = _run(capsys, argv)
        assert (code, out, err) == (2, "", "error: algebra is not associative\n"), argv


def test_cli_deform_check(files, capsys):
    code, out, _ = _run(capsys, ["deform", "check", files["leftunit2"], files["triv"]])
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, out, _ = _run(capsys, ["deform", "check", files["leftunit2"],
                                 files["corrupt"]])
    assert code == 1
    code, _, err = _run(capsys, ["deform", "check", files["pair3"], files["triv"]])
    assert code == 2
    assert "error" in err


def test_cli_deform_equiv(files, capsys):
    code, out, _ = _run(capsys, ["deform", "equiv", files["leftunit2"],
                                 files["triv"], files["triv"], files["iso_id"]])
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, _, _ = _run(capsys, ["deform", "equiv", files["leftunit2"],
                               files["triv"], files["corrupt"], files["iso_id"]])
    assert code == 1


def test_cli_deform_rigidity(files, capsys):
    code, out, _ = _run(capsys, ["deform", "rigidity", files["leftunit2"],
                                 files["zero2"]])
    assert code == 0
    assert json.loads(out)["verdict"] == "rigid"


def test_cli_input_errors_exit_two(files, capsys, tmp_path):
    code, _, err = _run(capsys, ["check-assoc", str(tmp_path / "missing.json")])
    assert code == 2
    assert "error" in err
    broken = tmp_path / "broken.json"
    broken.write_text("{oops", encoding="utf-8")
    code, _, _ = _run(capsys, ["check-assoc", str(broken)])
    assert code == 2
    # integer fields must be JSON integers: strings and booleans are refused
    rep = fileio.dump_bimodule(regular_representation(CAT["leftunit2"], Matrix.zeros(2, 2)))
    rep["dimV"] = "2"
    deform = fileio.read_json(files["triv"])
    deform["order"] = "1"
    check_rep = ["check-rep", files["leftunit2"], files["zero2"], "--rep"]
    check_deform = ["deform", "check", files["leftunit2"]]
    cases = {
        "rep.json": (rep, check_rep),
        "deform.json": (deform, check_deform),
        "bool_dim.json": ({"dim": True, "c": []}, ["check-assoc"]),
        "bool_coeff.json": ({"dim": 1, "c": [[0, 0, 0, True]]}, ["check-assoc"]),
        # list fields must be lists at every nesting level
        "c_scalar.json": ({"dim": 1, "c": 7}, ["check-assoc"]),
        "l_scalar.json": ({**rep, "dimV": 2, "l": 3}, check_rep),
        "r_scalar.json": ({**rep, "dimV": 2, "r": 3}, check_rep),
        "nu_scalar.json": ({**deform, "order": 1, "nu": 5}, check_deform),
        "nu_table_scalar.json": ({**deform, "order": 1, "nu": [5]}, check_deform),
        "nu_row_scalar.json": ({**deform, "order": 1, "nu": [[5]]}, check_deform),
        "p_scalar.json": ({**deform, "order": 1, "p": 5}, check_deform),
    }
    iso = {**fileio.read_json(files["iso_id"]), "phi": 5}
    cases["phi_scalar.json"] = (iso, ["deform", "equiv", files["leftunit2"],
                                      files["triv"], files["triv"]])
    for name, (doc, argv) in cases.items():
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = _run(capsys, argv + [str(path)])
        assert code == 2, name
        assert "error" in err, name


_REP_FILE = fileio.dump_bimodule(regular_representation(CAT["leftunit2"], Matrix.zeros(2, 2)))
_REP_REFUSALS = {
    "rho": ({**_REP_FILE, "rho": _REP_FILE["xi"]}, "bimodule: unsupported key 'rho'"),
    "action-count": (fileio.dump_bimodule(regular_representation(CAT["pair3"],
                                                                 Matrix.zeros(3, 3))),
                     "action count != algebra dimension"),
    "no-xi": ({k: v for k, v in _REP_FILE.items() if k != "xi"}, "bimodule carries no xi"),
}
_REP_COMMANDS = [["check-rep", "leftunit2", "zero2", "--rep"],
                 ["cohomology", "leftunit2", "zero2", "--max-degree", "2", "--rep"]]


@pytest.mark.parametrize("doc, argv, message", [
    ({"dim": 2}, ["check-assoc"], "algebra: missing key 'c'"),
    ({"dim": 2}, ["check-op", "leftunit2", "--kind", "rn"], "operator: missing key 'matrix'"),
    ({"l": []}, ["check-rep", "leftunit2", "zero2", "--rep"], "bimodule: missing key 'dimV'"),
    ({"order": 1}, ["deform", "check", "leftunit2"], "deformation: missing key 'nu'"),
    ({"order": 1}, ["deform", "equiv", "leftunit2", "triv", "triv"], "iso: missing key 'phi'"),
    *[(doc, argv, message) for doc, message in _REP_REFUSALS.values() for argv in _REP_COMMANDS],
], ids=["algebra", "operator", "bimodule", "deformation", "iso",
        *[f"{case}-{argv[0]}" for case in _REP_REFUSALS for argv in _REP_COMMANDS]])
def test_cli_schema_errors_name_the_file(files, capsys, tmp_path, doc, argv, message):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = [files.get(x, x) for x in argv]
    if argv[0] == "check-op":
        argv.insert(2, str(path))
    else:
        argv.append(str(path))
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("command", [["check-rep"], ["cohomology", "--max-degree", "2"]],
                         ids=["check-rep", "cohomology"])
def test_cli_refuses_a_bimodule_without_actions_at_once(files, capsys, tmp_path, command):
    # 40 bytes naming dimV = 10^9 and no actions: nothing dimV-sized may be built
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dimV": 10 ** 9, "l": [], "r": []}), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = _run(capsys, [*command, files["leftunit2"], files["zero2"], "--rep",
                                   str(path)])
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == f"error: {path}: a bimodule needs one action per algebra basis element\n"


def test_cli_audit_schema_error_names_the_fixture_file(capsys, tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps({"dim": 2}), encoding="utf-8")
    code, out, err = _run(capsys, ["audit", str(tmp_path)])
    assert code == 2
    assert out == ""
    assert err == f"error: {tmp_path / 'bad.json'}: algebra: missing key 'c'\n"


def test_cli_audit_refuses_a_non_associative_fixture_by_name(capsys, tmp_path):
    # e0 e0 = e1 and e1 e1 = e0: (e0 e0) e1 = e0 but e0 (e0 e1) = 0
    (tmp_path / "skew.json").write_text(json.dumps({"dim": 2, "c": [[0, 0, 1, "1"],
                                                                   [1, 1, 0, "1"]]}),
                                        encoding="utf-8")
    code, out, err = _run(capsys, ["audit", str(tmp_path)])
    assert code == 2
    assert out == ""
    assert err == "error: fixture 'skew': algebra is not associative\n"


def test_cli_usage_errors_exit_two(files):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--budget", "0", "check-assoc", files["leftunit2"]])
    assert exc.value.code == 2


def test_cli_budget_exhaustion_exits_three(files, capsys):
    code, _, err = _run(capsys, ["--budget", "1", "cohomology", files["leftunit2"],
                                 files["zero2"], "--regular", "--max-degree", "1"])
    assert code == 3
    assert "budget exhausted" in err
    # the residuals leaving degree 2 guard amb(4) = 32 coordinates without building them
    argv = ["cohomology", files["leftunit2"], files["zero2"], "--regular", "--max-degree", "2"]
    code, _, err = _run(capsys, ["--budget", "16", *argv])
    assert code == 3
    assert "cochain space at degree 4 needs 32 coordinates, budget is 16" in err
    assert _run(capsys, ["--budget", "32", *argv])[0] == 0


def test_cli_refuses_a_dim_one_complex_past_the_degree_cap(files, capsys, monkeypatch):
    # on zero1 every cochain space has one coordinate, so only the fixed degree cap,
    # which the budget does not move, stops the cubic growth of delta_n and psi_n
    monkeypatch.setenv("RN_BUDGET", str(10 ** 12))
    zero1, zero = str(files["dir"] / "zero1.json"), str(files["dir"] / "zero.json")
    fileio.write_json(zero1, fileio.dump_algebra(CAT["zero1"]))
    fileio.write_json(zero, fileio.dump_linop(Matrix.zeros(1, 1)))
    for argv in (["cohomology", zero1, zero, "--max-degree", "100000"],
                 ["--budget", str(10 ** 12), "cohomology", zero1, zero, "--max-degree", "221"]):
        start = time.perf_counter()
        code, out, err = _run(capsys, argv)
        assert code == 3 and out == ""
        assert ("budget exhausted: cochain stage: degree 223 needs 50176 Kronecker factor "
                "products, cap 50000") in err
        assert time.perf_counter() - start < 1


def test_cli_groebner_budget_exhaustion_exits_three(files, capsys):
    code, out, _ = _run(capsys, ["solve", files["pair3"], "--kind", "rn", "--groebner"])
    assert code == 0
    doc = json.loads(out)
    assert doc["complete"] is True and len(doc["basis"]) == 26
    assert doc["pairs_processed"] > 0 and doc["pairs_skipped"] > 0
    code, out, err = _run(capsys, ["--budget", "1", "solve", files["pair3"], "--kind", "rn",
                                   "--groebner"])
    assert code == 3 and out == ""
    assert "budget exhausted: groebner stage: 1 S-pairs reduced, cap 1" in err


def test_cli_mod_budget_caps_the_nodes_visited(files, capsys, monkeypatch):
    # the zero algebra has no residuals: all 5^9 matrices solve, far past the default cap
    monkeypatch.delenv("RN_BUDGET", raising=False)
    zero3 = str(files["dir"] / "zero3.json")
    fileio.write_json(zero3, {"dim": 3, "c": []})
    code, out, err = _run(capsys, ["solve", zero3, "--kind", "rn", "--mod", "5"])
    assert code == 3 and out == ""
    assert "budget exhausted: mod-p enumeration stage: 50001 nodes visited, cap 50000" in err


def test_cli_refuses_oversized_algebras_before_building(files, capsys, monkeypatch):
    # fixed caps that the budget does not move: dim^3 structure constants when
    # the file is loaded, dim^5 residual coefficients before the identity system
    monkeypatch.setenv("RN_BUDGET", str(10 ** 12))
    huge, zero32 = str(files["dir"] / "huge.json"), str(files["dir"] / "zero32.json")
    fileio.write_json(huge, {"dim": 100000, "c": []})
    fileio.write_json(zero32, {"dim": 32, "c": []})
    for argv in (["check-assoc", huge], ["--budget", str(10 ** 12), "check-assoc", huge]):
        code, out, err = _run(capsys, argv)
        assert code == 3 and out == ""
        assert ("budget exhausted: algebra load stage: dim 100000 needs "
                "1000000000000000 structure constants, cap 50000") in err
    for argv in (["solve", zero32, "--kind", "rn", "--mod", "2"],
                 ["--budget", str(10 ** 12), "solve", zero32, "--kind", "rn"]):
        code, out, err = _run(capsys, argv)
        assert code == 3 and out == ""
        assert ("budget exhausted: identity system stage: dim 32 needs 33554432 "
                "coefficients (dim^3 residuals x dim^2 unknowns), cap 50000") in err
    # every catalog algebra is admitted by both
    for name, a in CAT.items():
        assert build_identity_system(fileio.load_algebra(fileio.dump_algebra(a)), parse_kind("rn"))


def test_cli_refuses_a_deformation_order_past_the_series_cap(files, capsys, monkeypatch):
    # the series algebra over Q[t]/(t^(order+1)) has dimension dim (order + 1); its cube
    # meets the same fixed cap as a loaded algebra, which the budget does not move
    monkeypatch.setenv("RN_BUDGET", str(10 ** 12))
    a = CAT["leftunit2"]
    paths = {}
    for order in (17, 18, 600):
        paths[order] = str(files["dir"] / f"order{order}.json")
        fileio.write_json(paths[order], fileio.dump_deformation(
            TruncatedDeformation.constant(a, Matrix.zeros(2, 2), order)))
    iso = str(files["dir"] / "iso600.json")
    fileio.write_json(iso, fileio.dump_iso(_identity_iso(2, 600)))
    code, out, _ = _run(capsys, ["deform", "check", files["leftunit2"], paths[17]])
    assert code == 0 and json.loads(out)["passed"] is True
    code, out, err = _run(capsys, ["deform", "check", files["leftunit2"], paths[18]])
    assert code == 3 and out == ""
    assert ("budget exhausted: deformation series stage: dim 2 at order 18 makes a "
            "dimension-38 algebra, which needs 54872 structure constants, cap 50000") in err
    for argv in (["deform", "check", files["leftunit2"], paths[600]],
                 ["--budget", str(10 ** 12), "deform", "equiv", files["leftunit2"],
                  paths[600], paths[600], iso]):
        start = time.perf_counter()
        code, out, err = _run(capsys, argv)
        assert code == 3 and out == ""
        assert "deformation series stage: dim 2 at order 600 makes a dimension-1202" in err
        assert time.perf_counter() - start < 5


def test_cli_budget_env_variable(files, capsys, monkeypatch):
    monkeypatch.setenv("RN_BUDGET", "1")
    code, _, _ = _run(capsys, ["cohomology", files["leftunit2"], files["zero2"],
                               "--regular", "--max-degree", "1"])
    assert code == 3
    monkeypatch.setenv("RN_BUDGET", "plenty")
    code, _, _ = _run(capsys, ["cohomology", files["leftunit2"], files["zero2"],
                               "--regular", "--max-degree", "1"])
    assert code == 2


def test_cli_markdown_output(files, capsys):
    code, out, _ = _run(capsys, ["--out-format", "markdown", "check-assoc",
                                 files["leftunit2"]])
    assert code == 0
    assert out.lstrip().startswith("#")


# ---------------------------------------------------------------------------
# Fuzzed deformation and iso files: the outcome is an exit code, never a traceback
# ---------------------------------------------------------------------------

_FUZZ_ALGEBRA = fileio.dump_algebra(CAT["leftunit2"])
_FUZZ_DEFORMATION = fileio.dump_deformation(
    TruncatedDeformation.constant(CAT["leftunit2"], Matrix.zeros(2, 2), 1).with_coefficient(
        1, p_k=operator([[0, 1], [0, 0]])))
_FUZZ_ISO = fileio.dump_iso(FormalIso(1, [Matrix.identity(2), operator([[0, 1], [2, 0]])]))
# dimension 0, empty tables, mismatched orders and missing keys, written out
_FUZZ_EDGES = [
    [], 5, {}, {"nu": _FUZZ_DEFORMATION["nu"], "p": _FUZZ_DEFORMATION["p"]},
    {"phi": _FUZZ_ISO["phi"]},
    {"order": 0, "nu": [[]], "p": [[[]]]},
    {"order": 1, "nu": [[], []], "p": [[[]], [[]]]},
    {"order": 0, "nu": [], "p": []},
    {"order": 2, "nu": _FUZZ_DEFORMATION["nu"], "p": _FUZZ_DEFORMATION["p"]},
    {"order": 0, "phi": [[[]]]},
    {"order": 0, "phi": []},
    {"order": 2, "phi": _FUZZ_ISO["phi"]},
]
_FUZZ_SCALARS = st.one_of(st.integers(-1, 3), st.booleans(), st.none(),
                          st.sampled_from(["0", "1", "-1/2", "x", "", "1/0"]))
_FUZZ_JSON = st.recursive(
    _FUZZ_SCALARS,
    lambda kids: st.one_of(st.lists(kids, max_size=3),
                           st.dictionaries(st.sampled_from(["order", "nu", "p", "phi"]),
                                           kids, max_size=3)),
    max_leaves=8)


_FUZZ_ORDERS = st.sampled_from([1, 1, 1, 0, 2, -1, True, "1"])


@st.composite
def _mutated(draw, value):
    """value, a nonempty nested list, with one node replaced, dropped or duplicated."""
    value = copy.deepcopy(value)
    parent, key = value, draw(st.integers(0, len(value) - 1))
    # descend mostly to the leaves, where a replaced entry can still be valid
    while isinstance(parent[key], list) and parent[key] and draw(st.integers(0, 3)):
        parent, key = parent[key], draw(st.integers(0, len(parent[key]) - 1))
    action = draw(st.sampled_from(["replace", "drop", "duplicate"]))
    if action == "replace":
        parent[key] = draw(st.one_of(st.sampled_from(["0", "1", "-1/2"]), _FUZZ_JSON))
    elif action == "drop":
        del parent[key]
    else:
        parent.insert(key, copy.deepcopy(parent[key]))
    return value


# integer headers: bools, strings, floats, signs and dims past the load cap
_FUZZ_HEADERS = {"order": _FUZZ_ORDERS,
                 "dim": st.sampled_from([2, 2, 2, 3, 1, 0, -1, True, False, "2", 2.0, None,
                                         10 ** 5, 10 ** 9])}


def _fuzzed(doc, edges=_FUZZ_EDGES, headers=_FUZZ_HEADERS):
    """doc with each field kept, mutated or replaced, or a written-out edge case."""
    fields = {k: headers[k] if k in headers
              else st.one_of(st.just(v), _mutated(v), _FUZZ_JSON) if isinstance(v, list) and v
              else st.one_of(st.just(v), _FUZZ_JSON)
              for k, v in doc.items()}
    return st.one_of(st.fixed_dictionaries(fields), st.sampled_from(edges))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(
    st.tuples(st.just("check"), _fuzzed(_FUZZ_DEFORMATION), st.just(_FUZZ_ISO)),
    st.tuples(st.just("equiv"), _fuzzed(_FUZZ_DEFORMATION), st.just(_FUZZ_ISO)),
    st.tuples(st.just("equiv"), st.just(_FUZZ_DEFORMATION), _fuzzed(_FUZZ_ISO))))
def test_cli_deform_survives_malformed_files(case):
    command, deformation, iso = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in (("a", _FUZZ_ALGEBRA), ("d", deformation),
                          ("good", _FUZZ_DEFORMATION), ("iso", iso)):
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(doc), encoding="utf-8")
        if command == "check":
            argv = ["deform", "check", paths["a"], paths["d"]]
        else:
            argv = ["deform", "equiv", paths["a"], paths["good"], paths["d"], paths["iso"]]
        assert main(argv) in (0, 1, 2, 3)


_FUZZ_OPERATOR = fileio.dump_linop(operator([[0, 1], [0, 0]]))
# wrong shapes, bad entries and contradicted headers, written out
_FUZZ_ALGEBRA_EDGES = [
    [], 5, {}, {"dim": 2}, {"c": []}, {"dim": 3, "c": []}, {"dim": 1, "c": [[0, 0, 0, "1"]]},
    {"dim": 2, "c": [[0, 0, 0]]}, {"dim": 2, "c": [[0, 0, 2, "1"]]},
    {"dim": 2, "c": [[0, 0, 0, "1/0"]]}, {"dim": 2, "c": [], "basis": ["a"]},
    {"dim": 10 ** 5, "c": []}, {"dim": 10 ** 9, "c": [[0, 0, 0, "1"]]}, {"dim": 32, "c": []},
]
_FUZZ_OPERATOR_EDGES = [
    [], 5, {}, [[0, 1], [0, 0]], [[0, 1], [0]], [[0, 1]], [[]], {"dim": 10 ** 9, "matrix": [[0]]},
    {"dim": 2, "matrix": [[0, 1], [0]]}, {"dim": 2, "matrix": [["x", 0], [0, 0]]},
    {"dim": 2, "matrix": [[0, 1], [0, 0]], "convention": "row"},
]
# an operator header may claim a huge dim: its matrix, read first, contradicts it
_FUZZ_OPERATOR_HEADERS = {"dim": st.sampled_from([2, 2, 3, 0, -1, True, "2", 2.0, 10 ** 9])}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(
    st.tuples(st.just("solve"), _fuzzed(_FUZZ_ALGEBRA, _FUZZ_ALGEBRA_EDGES),
              st.just(_FUZZ_OPERATOR)),
    st.tuples(st.just("check-op"), _fuzzed(_FUZZ_ALGEBRA, _FUZZ_ALGEBRA_EDGES),
              st.just(_FUZZ_OPERATOR)),
    st.tuples(st.just("check-op"), st.just(_FUZZ_ALGEBRA),
              _fuzzed(_FUZZ_OPERATOR, _FUZZ_OPERATOR_EDGES, _FUZZ_OPERATOR_HEADERS))))
def test_cli_survives_malformed_algebra_and_operator_files(case):
    command, algebra, op = case
    with tempfile.TemporaryDirectory() as tmp:
        a, o = str(Path(tmp) / "a.json"), str(Path(tmp) / "o.json")
        Path(a).write_text(json.dumps(algebra), encoding="utf-8")
        Path(o).write_text(json.dumps(op), encoding="utf-8")
        if command == "solve":
            argv = ["solve", a, "--kind", "rn", "--mod", "2"]
        else:
            argv = ["check-op", a, o, "--kind", "rn"]
        assert main(argv) in (0, 1, 2, 3)


_FUZZ_BIMODULE = fileio.dump_bimodule(Bimodule(
    2, [operator([[1, 0], [0, 1]]), operator([[0, 0], [0, 0]])],
    [operator([[1, 0], [0, 0]]), operator([[0, 0], [1, 0]])], xi=operator([[0, 0], [1, 0]])))
_FUZZ_BIMODULE_EDGES = [
    [], 5, {}, {"dimV": 2}, {"l": [], "r": []}, {"dimV": 0, "l": [], "r": []},
    {"dimV": 0, "l": [[[]], [[]]], "r": [[[]], [[]]], "xi": [[]]},
    {"dimV": 1, "l": [[["1"]]], "r": [[["1"]]], "xi": [["1"]]},
    {**_FUZZ_BIMODULE, "xi": None}, {**_FUZZ_BIMODULE, "xi": [["1", "0"]]},
    {**_FUZZ_BIMODULE, "rho": [["0", "0"], ["0", "1/0"]]},
    {**_FUZZ_BIMODULE, "dimV": 10 ** 9}, {"dimV": 10 ** 9, "l": [], "r": []},
    {**_FUZZ_BIMODULE, "l": _FUZZ_BIMODULE["l"][:1]},
    {**_FUZZ_BIMODULE, "r": _FUZZ_BIMODULE["r"] + _FUZZ_BIMODULE["r"][:1]},
]
# mostly the right dimV, so that mutated actions reach the checks and the complex
_FUZZ_BIMODULE_HEADERS = {"dimV": st.sampled_from([2] * 8 + [1, 3, 0, -1, True, "2", 2.0,
                                                             None, 10 ** 9])}


def _one_field_fuzzed(doc, headers):
    """doc with one field fuzzed as _fuzzed fuzzes it and the others kept."""
    return st.sampled_from(sorted(doc)).flatmap(
        lambda k: _fuzzed({k: doc[k]}, [{}], headers).map(lambda part: {**doc, **part}))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(["check-rep", "cohomology"]),
       st.one_of(_fuzzed(_FUZZ_BIMODULE, _FUZZ_BIMODULE_EDGES, _FUZZ_BIMODULE_HEADERS),
                 _one_field_fuzzed(_FUZZ_BIMODULE, _FUZZ_BIMODULE_HEADERS)))
def test_cli_survives_malformed_bimodule_files(command, bimodule):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in (("a", _FUZZ_ALGEBRA), ("o", _FUZZ_OPERATOR), ("m", bimodule)):
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(doc), encoding="utf-8")
        argv = [command, paths["a"], paths["o"], "--rep", paths["m"]]
        if command == "cohomology":
            argv += ["--max-degree", "2"]
        assert main(argv) in (0, 1, 2, 3)
