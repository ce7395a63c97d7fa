"""Audit of the structural claims behind the operator machinery.

Every claim is evaluated on explicit fixture instances by one loop,
_Evidence.run: for each (row, inputs) case it runs the operation's runner
on the JSON inputs, records the row with the fields the claim reports,
and, when the claim's judge rejects the runner's record, refutes the
claim with the counterexample (operation, inputs, record).  _settle turns
the judged rows and the counterexamples into the verdict.  Runners read
JSON inputs only, so replay_counterexample re-runs a counterexample from
its record alone and compares the result with what the report stored.
Refuted claims are ordinary results, never errors: the audit's job is to
find out which claims survive contact with exact arithmetic.
"""

from __future__ import annotations

import functools
import json
from operator import itemgetter
from typing import NamedTuple

from . import fileio
from .algebra import (KIND_NIJENHUIS, KIND_RN, Algebra, check_associative,
                      check_morphism, check_operator, classify_square,
                      parse_kind, star_product)
from .catalog import catalog, operator
from .cohomology import ComplexBuilder, _first_nonzero, flatten
from .deformation import (FormalIso, TruncatedDeformation, check_deformation,
                          check_equivalence, cocycle_reports, infinitesimal_cocycle,
                          order1_pair, order1_system, rigidity_report,
                          same_cohomology_class, transport)
from .errors import InputError
from .exactlin import Matrix, kernel_basis, qstr
from .polysys import SymbolicMatrix, build_identity_system, enumerate_mod_p, verify_family
from .representation import (check_bimodule, check_rn_representation,
                             induce_representation, regular_representation)

VERSION = "0.1.0"

VERDICT_CONFIRMED = "confirmed-on-instances"
VERDICT_REFUTED = "refuted-by-counterexample"
VERDICT_NOT_EVALUABLE = "not-evaluable"


# Operator fixtures per catalog algebra.  Labels describe the action; the
# selection covers square-zero, idempotent, involutive and anti-involutive
# operators plus known passing and failing cases for every audited claim.
_OPERATOR_TABLE: dict[str, list[tuple[str, list[list[int]]]]] = {
    "zero1": [
        ("zero", [[0]]),
        ("id", [[1]]),
        ("triple", [[3]]),
    ],
    "leftunit2": [
        ("zero", [[0, 0], [0, 0]]),
        ("id", [[1, 0], [0, 1]]),
        ("e0-to-e1", [[0, 0], [1, 0]]),
        ("proj-e0", [[1, 0], [0, 0]]),
        ("proj-e1", [[0, 0], [0, 1]]),
        ("reflect-e1", [[1, 0], [0, -1]]),
        ("reflect-shear", [[1, 0], [1, -1]]),
        ("swap", [[0, 1], [1, 0]]),
        ("quarter-turn", [[0, -1], [1, 0]]),
    ],
    "pair3": [
        ("zero", [[0, 0, 0], [0, 0, 0], [0, 0, 0]]),
        ("id", [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        ("e0-only", [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
        ("e2-only", [[0, 0, 0], [0, 0, 0], [0, 0, 1]]),
        ("mid-to-ends", [[0, 1, 0], [0, 0, 0], [0, 1, 0]]),
        ("ends-projection", [[1, 0, 0], [0, 0, 0], [0, 0, 1]]),
        ("reflect-e1", [[1, 0, 0], [0, -1, 0], [0, 0, 1]]),
    ],
    "mat2": [
        ("zero", [[0] * 4 for _ in range(4)]),
        ("id", [[1 if i == j else 0 for j in range(4)] for i in range(4)]),
    ],
    "trunc3": [
        ("zero", [[0, 0, 0], [0, 0, 0], [0, 0, 0]]),
        ("id", [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        ("unit-to-top", [[0, 0, 0], [0, 0, 0], [1, 0, 0]]),
        ("reflect-x", [[1, 0, 0], [0, -1, 0], [0, 0, 1]]),
    ],
}

# Degree-1 cochains used by the coboundary and equivalence claims.
_COCHAIN_TABLE: dict[str, list[list[int]]] = {
    "zero1": [[3]],
    "leftunit2": [[0, 1], [2, 0]],
    "pair3": [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
    "trunc3": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
}

# Instances for the cohomology-complex claims: small enough for exact ranks.
_COMPLEX_INSTANCES = [
    ("zero1", "zero"),
    ("leftunit2", "zero"),
    ("leftunit2", "id"),
    ("pair3", "e0-only"),
    ("trunc3", "zero"),
]


def operator_fixtures() -> dict[str, list[tuple[str, Matrix]]]:
    return {
        name: [(label, operator(rows)) for label, rows in table]
        for name, table in _OPERATOR_TABLE.items()
    }


def build_fixtures(extra_algebras: dict[str, Algebra] | None = None) -> dict:
    """Catalog algebras and their operator fixtures; associative new extras get zero and id."""
    algebras = dict(catalog())
    operators = operator_fixtures()
    for name, a in (extra_algebras or {}).items():
        if name in algebras:
            raise InputError(f"fixture name {name!r} collides with the catalog")
        if not a.is_associative():
            raise InputError(f"fixture {name!r}: algebra is not associative")
        algebras[name] = a
        operators[name] = [("zero", Matrix.zeros(a.dim, a.dim)),
                           ("id", Matrix.identity(a.dim))]
    return {"algebras": algebras, "operators": operators}


class ClaimVerdict(NamedTuple):
    claim_id: str
    statement: str
    verdict: str
    instances: list
    counterexamples: list
    notes: list


class AuditReport(NamedTuple):
    version: str
    fixtures: dict
    claims: list[ClaimVerdict]

    def claim(self, claim_id: str) -> ClaimVerdict:
        for c in self.claims:
            if c.claim_id == claim_id:
                return c
        raise KeyError(f"no claim {claim_id!r} in this report")


# ---------------------------------------------------------------------------
# Operation runners.  Each consumes a JSON-able input record and returns a
# JSON-able result record; claims store both, and replay_counterexample
# re-runs the same runner to reproduce the stored result.
# ---------------------------------------------------------------------------


def _load(inputs: dict) -> tuple[Algebra, Matrix]:
    """The algebra and operator of an input record, star-deformed on request.

    Memoized on their canonical JSON, so cases share an Algebra and its caches.
    """
    return _load_json(json.dumps([inputs["algebra"], inputs["operator"],
                                  bool(inputs.get("star"))], sort_keys=True))


@functools.lru_cache(maxsize=256)
def _load_json(text: str) -> tuple[Algebra, Matrix]:
    algebra, matrix, star = json.loads(text)
    a = fileio.load_algebra(algebra)
    p = fileio.matrix_from_json(matrix)
    return (star_product(a, p) if star else a), p


def _builder(inputs: dict) -> ComplexBuilder:
    a, p = _load(inputs)
    return ComplexBuilder(a, p, regular_representation(a, p), None)


def _first_violation(doc: dict) -> dict:
    """A fileio check report cut down to passed and its first violation entry."""
    return {"passed": doc["passed"],
            "first_violation": doc["violations"][0] if doc["violations"] else None}


def _run_check_operator(inputs: dict) -> dict:
    a, p = _load(inputs)
    return _first_violation(fileio.identity_report_dict(
        check_operator(a, p, parse_kind(inputs["kind"]))))


def _run_check_associative(inputs: dict) -> dict:
    a, _ = _load(inputs)
    return _first_violation(fileio.assoc_report_dict(check_associative(a)))


def _run_star_morphism(inputs: dict) -> dict:
    a, p = _load(inputs)
    st = star_product(a, p)
    if inputs["direction"] == "into-deformed":
        rep = check_morphism(a, st, p, p, p)
    else:
        rep = check_morphism(st, a, p, p, p)
    first = rep.product_violations[0] if rep.product_violations else None
    return {"passed": rep.passed, "intertwines": rep.intertwines,
            "first_violation": None if first is None else
            {"pair": [first[0], first[1]], "residual": [qstr(x) for x in first[2]]}}


def _run_verify_family(inputs: dict) -> dict:
    a = fileio.load_algebra(inputs["algebra"])
    params = list(inputs["family"]["params"])
    assign = {(r, c): name for r, c, name in inputs["family"]["assign"]}
    fam = SymbolicMatrix.build(a.dim, params, assign)
    system = build_identity_system(a, parse_kind(inputs["kind"]))
    rep = verify_family(system, fam)
    return {"passed": rep.passed,
            "residuals": [poly.format(params) for poly in rep.residuals]}


def _run_classify_square(inputs: dict) -> dict:
    cls = classify_square(*_load(inputs))
    for case in cls.cases:
        if case.condition == inputs["condition"]:
            return {"condition": case.condition,
                    "equivalent_kind": case.equivalent_kind.label(),
                    "is_rn": case.is_rn, "other_holds": case.other_holds,
                    "agree": case.agree}
    return {"condition": inputs["condition"], "detected": False}


def _rep_record(std, rn) -> dict:
    return {"standard_ok": std.passed_standard, "rn_ok": rn.passed,
            "first_rn_violation": None if rn.passed else
            {"condition": rn.violations[0].condition,
             "indices": list(rn.violations[0].indices)}}


def _run_regular_representation(inputs: dict) -> dict:
    a, p = _load(inputs)
    m = regular_representation(a, p)
    return _rep_record(check_bimodule(a, m), check_rn_representation(a, p, m))


def _run_induce_representation(inputs: dict) -> dict:
    a, p = _load(inputs)
    out = induce_representation(a, p, fileio.load_bimodule(inputs["bimodule"]))
    return _rep_record(check_bimodule(a, out), check_rn_representation(a, p, out))


def _residual_record(res: Matrix) -> dict:
    w = _first_nonzero(res)
    return {"zero": res.is_zero(),
            "first_nonzero": None if w is None else [w.row, w.col, qstr(w.value)]}


def _run_psi_delta_residual(inputs: dict) -> dict:
    return _residual_record(_builder(inputs).psi_delta_residual(inputs["degree"]))


def _run_d_square_residual(inputs: dict) -> dict:
    return _residual_record(_builder(inputs).d_square_residual(inputs["degree"]))


def _run_operator_part(inputs: dict) -> dict:
    b = _builder(inputs)
    phi = fileio.matrix_from_json(inputs["cochain"])
    from_complex = [-x for x in b.psi(1).apply(flatten(phi))]
    claimed = flatten(b.p.mul(phi).sub(phi.mul(b.p)))
    diff = [x - y for x, y in zip(from_complex, claimed)]
    first = next(([i, qstr(x)] for i, x in enumerate(diff) if x), None)
    return {"matches": first is None, "first_difference": first}


def _run_infinitesimal_cocycle(inputs: dict) -> dict:
    rep = infinitesimal_cocycle(*_load(inputs), fileio.load_deformation(inputs["deformation"]))
    return {"in_constrained_subspace": rep.in_constrained_subspace,
            "differential_zero": rep.differential_zero,
            "is_cocycle": rep.is_cocycle,
            "first_nonzero": None if rep.first_nonzero is None else
            [rep.first_nonzero[0], qstr(rep.first_nonzero[1])]}


def _run_same_class(inputs: dict) -> dict:
    rep = same_cohomology_class(*_load(inputs),
                                fileio.load_deformation(inputs["deformation1"]),
                                fileio.load_deformation(inputs["deformation2"]))
    return {"difference_in_domain": rep.difference_in_domain,
            "same_class": rep.same_class, "witness_found": rep.witness is not None}


def _run_check_equivalence(inputs: dict) -> dict:
    d1 = fileio.load_deformation(inputs["deformation1"])
    d2 = fileio.load_deformation(inputs["deformation2"])
    iso = fileio.load_iso(inputs["iso"])
    rep = check_equivalence(d1, d2, iso)
    return {"passed": rep.ok, "violations": len(rep.violations)}


_RUNNERS = {
    "check_operator": _run_check_operator,
    "check_associative": _run_check_associative,
    "star_morphism": _run_star_morphism,
    "verify_family": _run_verify_family,
    "classify_square": _run_classify_square,
    "regular_representation": _run_regular_representation,
    "induce_representation": _run_induce_representation,
    "psi_delta_residual": _run_psi_delta_residual,
    "d_square_residual": _run_d_square_residual,
    "degree_one_operator_part": _run_operator_part,
    "infinitesimal_cocycle": _run_infinitesimal_cocycle,
    "same_cohomology_class": _run_same_class,
    "check_equivalence": _run_check_equivalence,
}


def replay_counterexample(ce: dict) -> dict:
    """Re-run a counterexample record; matches=True means exact reproduction."""
    runner = _RUNNERS.get(ce["operation"])
    if runner is None:
        raise InputError(f"unknown counterexample operation {ce['operation']!r}")
    recomputed = runner(ce["inputs"])
    return {"operation": ce["operation"],
            "matches": recomputed == ce["recorded"],
            "recomputed": recomputed}


def _ce(operation: str, inputs: dict, recorded: dict) -> dict:
    return {"operation": operation, "inputs": inputs, "recorded": recorded}


def _alg_op_inputs(a: Algebra, p: Matrix, **extra) -> dict:
    doc = {"algebra": fileio.dump_algebra(a), "operator": fileio.matrix_to_json(p)}
    doc.update(extra)
    return doc


# ---------------------------------------------------------------------------
# Claims
# ---------------------------------------------------------------------------


def _settle(verdict_rows: list[bool], counterexamples: list) -> str:
    if counterexamples:
        return VERDICT_REFUTED
    if verdict_rows and all(verdict_rows):
        return VERDICT_CONFIRMED
    return VERDICT_NOT_EVALUABLE


_passed = itemgetter("passed")


class _Evidence:
    """Instance rows, their verdicts and the counterexamples of one claim."""

    def __init__(self):
        self.rows: list[dict] = []
        self.oks: list[bool] = []
        self.counterexamples: list[dict] = []

    def run(self, op: str, cases, judge=_passed, fields=("passed",),
            judged_as: str | None = None) -> "_Evidence":
        """Run op on each (row, inputs) case, record the row, refute on failure.

        The judge reads the runner's record and returns True (the case
        holds), False (the record becomes a counterexample) or None (the
        case lies outside the claim and leaves no row).  A row gains the
        record's fields, then the judge's verdict under judged_as.
        """
        for row, inputs in cases:
            rec = _RUNNERS[op](inputs)
            ok = judge(rec)
            if ok is None:
                continue
            row.update((k, rec[k]) for k in fields)
            if judged_as:
                row[judged_as] = ok
            self.rows.append(row)
            self.oks.append(ok)
            if not ok:
                self.counterexamples.append(_ce(op, inputs, rec))
        return self

    def refute(self, op: str, inputs: dict) -> None:
        """Record a counterexample that no row judged: the runner's record as is."""
        self.counterexamples.append(_ce(op, inputs, _RUNNERS[op](inputs)))

    def verdict(self, claim_id: str, statement: str, notes=()) -> ClaimVerdict:
        return ClaimVerdict(claim_id, statement, _settle(self.oks, self.counterexamples),
                            self.rows, self.counterexamples, list(notes))


def _rep_ok(rec: dict) -> bool:
    return rec["standard_ok"] and rec["rn_ok"]


def _of_kind(fx: dict, op_kind) -> list:
    """(algebra name, algebra, label, operator) for every fixture operator of the kind."""
    return [(aname, a, label, p) for aname, a in fx["algebras"].items()
            for label, p in fx["operators"][aname] if check_operator(a, p, op_kind).passed]


def _kind_cases(of_kind: list, **extra):
    """(row, inputs) for every fixture operator in an _of_kind list."""
    return (({"algebra": aname, "operator": label}, _alg_op_inputs(a, p, **extra))
            for aname, a, label, p in of_kind)


def _claim_on_kind(of_kind: list, op: str, extra: dict, claim_id: str,
                   statement: str) -> ClaimVerdict:
    """A claim that op passes on every fixture operator of the given kind."""
    return _Evidence().run(op, _kind_cases(of_kind, **extra)).verdict(claim_id, statement)


def _claim_family_completeness(fx: dict) -> ClaimVerdict:
    claim_id = "rn-family-completeness"
    statement = ("Claimed: on the three-dimensional pair algebra the operators "
                 "satisfying both identities form a two-parameter linear family "
                 "supported on the middle basis column.")
    if "pair3" not in fx["algebras"]:
        return _Evidence().verdict(claim_id, statement, ["requires the pair3 fixture"])
    a = fx["algebras"]["pair3"]
    ops = dict(fx["operators"]["pair3"])

    def check(name: str, label: str):
        return {"check": name}, _alg_op_inputs(a, ops[label], kind="rn")

    ev = _Evidence()
    fam_inputs = {"algebra": fileio.dump_algebra(a), "kind": "rn",
                  "family": {"params": ["v", "q"], "assign": [[0, 1, "v"], [2, 1, "q"]]}}
    ev.run("verify_family", [({"check": "family-residuals"}, fam_inputs)],
           fields=("passed", "residuals"))
    # A family member with nonzero parameters fails the identities outright.
    ev.run("check_operator", [check("family-member-v1-q1", "mid-to-ends")])
    # Solutions outside the family, scaling the first or last basis vector:
    # here a passing check is the counterexample.
    ev.run("check_operator",
           [check(f"outside-family-{label}", label) for label in ("e0-only", "e2-only")],
           lambda rec: not rec["passed"])
    # The solution set is not even closed under addition.
    ev.run("check_operator", [check("sum-of-solutions", "ends-projection")])
    enum = enumerate_mod_p(a, KIND_RN, 2)
    ev.rows.append({"check": "mod-2-enumeration",
                    "solutions": len(enum.solutions), "candidates": 2 ** 9})
    return ev.verdict(claim_id, statement, [
        "the two-parameter family satisfies the identities only at the origin; "
        "the recorded residual polynomials vanish simultaneously only there",
        "operators scaling the first or last basis vector satisfy both "
        "identities but lie outside the claimed family",
        "two solutions with non-solution sum witness that the solution set is "
        "not a linear subspace",
    ])


def _agreement(rec: dict) -> bool | None:
    """A square-condition case counts only where the condition holds."""
    return None if rec.get("detected") is False else rec["agree"]


def _claim_square_condition(fx: dict, condition: str, claim_id: str,
                            statement: str) -> ClaimVerdict:
    cases = (({"algebra": aname, "operator": label}, _alg_op_inputs(a, p, condition=condition))
             for aname, a in fx["algebras"].items() for label, p in fx["operators"][aname])
    return _Evidence().run("classify_square", cases, _agreement,
                           ("is_rn", "other_holds", "agree")).verdict(claim_id, statement)


def _claim_regular_representation(rn: list) -> ClaimVerdict:
    return _Evidence().run("regular_representation", _kind_cases(rn), _rep_ok,
                           (), "passed").verdict(
        "regular-action-compatibility",
        "Assumed by the cohomology construction: the algebra acting on "
        "itself by multiplication with xi = P satisfies the four operator "
        "compatibility conditions whenever P satisfies both identities.",
        ["on a noncommutative base even P = Id fails the exchange "
         "conditions, so the complex built on these coefficients starts "
         "from an unverified premise"])


def _claim_induced_representation(rn: list) -> ClaimVerdict:
    ev = _Evidence()
    for row, inputs in _kind_cases(rn):
        if not _rep_ok(_run_regular_representation(inputs)):
            ev.rows.append(dict(row, premise_holds=False))
            continue
        m = regular_representation(*_load(inputs))
        ev.run("induce_representation",
               [(dict(row, premise_holds=True), dict(inputs, bimodule=fileio.dump_bimodule(m)))],
               _rep_ok, (), "induced_valid")
    return ev.verdict(
        "induced-representation-validity",
        "Twisting a compatible module action by the operator pair yields "
        "another compatible module action.",
        ["instances whose starting action fails the compatibility conditions "
         "are recorded with premise_holds=false and not evaluated"])


def _complex_instances(fx: dict):
    """(row, algebra, operator) for each complex instance the fixtures hold."""
    for aname, label in _COMPLEX_INSTANCES:
        ops = dict(fx["operators"].get(aname, []))
        if aname in fx["algebras"] and label in ops:
            yield {"algebra": aname, "operator": label}, fx["algebras"][aname], ops[label]


def _cochain_instances(fx: dict):
    """(row, algebra, operator, phi) for the complex instances with a cochain."""
    for row, a, p in _complex_instances(fx):
        table = _COCHAIN_TABLE.get(row["algebra"])
        if table is not None:
            yield row, a, p, operator(table)


def _claim_residual_grid(fx: dict, op_name: str, degrees, claim_id: str,
                         statement: str, notes: list[str]) -> ClaimVerdict:
    cases = ((dict(row, degree=n), _alg_op_inputs(a, p, degree=n))
             for row, a, p in _complex_instances(fx) for n in degrees)
    return _Evidence().run(op_name, cases, itemgetter("zero"), ("zero",)).verdict(
        claim_id, statement, notes)


def _claim_operator_part(fx: dict) -> ClaimVerdict:
    cases = ((row, _alg_op_inputs(a, p, cochain=fileio.matrix_to_json(phi)))
             for row, a, p, phi in _cochain_instances(fx))
    return _Evidence().run("degree_one_operator_part", cases, itemgetter("matches"),
                           ("matches",)).verdict(
        "degree-one-operator-part",
        "Claimed: the operator component of the degree-1 combined differential "
        "of a map f is the commutator P.f - f.P.",
        ["the two expressions differ exactly by P.P.f, so they agree only "
         "where the operator's square annihilates the cochain"])


def _claim_infinitesimal_cocycle(fx: dict) -> ClaimVerdict:
    ev = _Evidence()
    for row, a, p in _complex_instances(fx):
        inputs = _alg_op_inputs(a, p)
        kernel = kernel_basis(order1_system(a, p))
        vectors = [kernel.col_list(j) for j in range(kernel.cols)]
        bad = [vec for vec, rep in zip(vectors, cocycle_reports(a, p, vectors))
               if not rep.is_cocycle]
        ev.rows.append(dict(row, order1_solution_dim=kernel.cols, cocycle_failures=len(bad)))
        ev.oks.append(not bad)
        if bad:
            d = TruncatedDeformation.constant(a, p, 1).with_coefficient(
                1, *order1_pair(a.dim, bad[0]))
            ev.refute("infinitesimal_cocycle",
                      dict(inputs, deformation=fileio.dump_deformation(d)))
    return ev.verdict(
        "infinitesimal-is-cocycle",
        "Claimed: the order-1 coefficient pair of any deformation is a "
        "degree-2 cocycle of the combined complex.",
        ["the order-1 equations are linear in the coefficient pair, so the "
         "full solution space is a kernel and every basis vector is tested"])


def _claim_same_class(fx: dict) -> ClaimVerdict:
    ev = _Evidence()
    for row, a, p, phi in _cochain_instances(fx):
        iso = FormalIso(2, [Matrix.identity(a.dim), phi, Matrix.zeros(a.dim, a.dim)])
        d1 = TruncatedDeformation.constant(a, p, 2)
        d2 = transport(d1, iso)
        row.update(equivalent=check_equivalence(d1, d2, iso).ok,
                   transported_valid=check_deformation(d2).ok)
        pair = {"deformation1": fileio.dump_deformation(d1),
                "deformation2": fileio.dump_deformation(d2)}
        ev.run("same_cohomology_class", [(row, _alg_op_inputs(a, p, **pair))],
               itemgetter("same_class"), ("difference_in_domain", "same_class"))
        if not ev.oks[-1]:
            ev.refute("check_equivalence", dict(pair, iso=fileio.dump_iso(iso)))
    return ev.verdict(
        "equivalent-deformations-same-class",
        "Claimed: order-1 coefficients of two equivalent deformations lie in "
        "the same degree-2 class of the combined complex.",
        ["each instance transports the trivial deformation along Id + t*phi, "
         "so the pair is equivalent by construction; paired counterexamples "
         "record a passing equivalence check next to the failing class check"])


def _claim_rigidity(fx: dict) -> ClaimVerdict:
    # rows without a verdict: the claim is not decidable on instances
    ev = _Evidence()
    for row, a, p in _complex_instances(fx):
        rep = rigidity_report(a, p)
        ev.rows.append(dict(row, verdict=rep.verdict, dim_h2=rep.dim_h2,
                            residuals_zero=dict(rep.residuals_zero), reasons=list(rep.reasons)))
    return ev.verdict(
        "rigidity-criterion",
        "Claimed: a vanishing degree-2 quotient forces every deformation to "
        "be equivalent to the trivial one.",
        ["the conclusion quantifies over all deformations and is not "
         "decidable by finite instance checks; the operational criterion "
         "and its consistency gating are recorded per instance",
         "the supporting coboundary formula and square-zero property fail "
         "on some instances; see degree-one-operator-part and "
         "complex-squares-to-zero"])


def run_audit(fixtures: dict | None = None) -> AuditReport:
    """Evaluate every audited claim on the fixture set."""
    _load_json.cache_clear()  # each run loads its fixtures afresh, then once
    fx = fixtures or build_fixtures()
    fixtures_doc = {
        "algebras": {name: fileio.dump_algebra(a) for name, a in fx["algebras"].items()},
        "operators": {name: [{"label": label, "matrix": fileio.matrix_to_json(p)}
                             for label, p in ops]
                      for name, ops in fx["operators"].items()},
    }
    nijenhuis, rn = _of_kind(fx, KIND_NIJENHUIS), _of_kind(fx, KIND_RN)
    claims = [
        _claim_on_kind(
            nijenhuis, "check_associative", {"star": True},
            "star-product-associativity",
            "For P satisfying the twisted identity, the product "
            "a*b = a.P(b) + P(a).b - P(a.b) is associative."),
        _claim_on_kind(
            rn, "check_operator", {"star": True, "kind": "rn"},
            "star-preserves-operator",
            "An operator satisfying both identities still satisfies them on the "
            "algebra deformed by its own star product."),
        _claim_on_kind(
            rn, "star_morphism", {"direction": "into-deformed"},
            "star-morphism-into-deformed",
            "Claimed: P is an algebra morphism from the original product "
            "to its star deformation, P(a.b) = P(a)*P(b)."),
        _claim_on_kind(
            nijenhuis, "star_morphism", {"direction": "from-deformed"},
            "star-morphism-from-deformed",
            "P is an algebra morphism from the star deformation back to "
            "the original product, P(a*b) = P(a).P(b); this restates the "
            "twisted identity."),
        _claim_family_completeness(fx),
        _claim_square_condition(
            fx, "square_zero", "square-zero-weight-zero",
            "For P with P.P = 0, the combined identities hold exactly when "
            "the weight-zero averaging identity holds."),
        _claim_square_condition(
            fx, "idempotent", "idempotent-weight-neg-one",
            "Claimed: for P with P.P = P, the combined identities hold "
            "exactly when the weight -1 averaging identity holds."),
        _claim_square_condition(
            fx, "involutive", "involutive-modified-weight",
            "Claimed: for P with P.P = Id, the combined identities hold "
            "exactly when the modified identity of weight -1 holds."),
        _claim_square_condition(
            fx, "anti_involutive", "anti-involutive-modified-weight",
            "Claimed: for P with P.P = -Id, the combined identities hold "
            "exactly when the modified identity of weight +1 holds."),
        _claim_regular_representation(rn),
        _claim_induced_representation(rn),
        _claim_residual_grid(
            fx, "psi_delta_residual", (1, 2), "psi-delta-commutation",
            "Claimed: the correction maps intertwine the two rows of "
            "differentials, psi_(n+1) . delta_n = partial_n . psi_n.",
            ["recorded residuals are exact matrices; zero entries certify "
             "commutation on that instance and degree"]),
        _claim_residual_grid(
            fx, "d_square_residual", (0, 1, 2), "complex-squares-to-zero",
            "Claimed: the combined differential squares to zero in every degree.",
            ["the composite is evaluated on the constrained domain and "
             "reported in ambient coordinates"]),
        _claim_operator_part(fx),
        _claim_infinitesimal_cocycle(fx),
        _claim_same_class(fx),
        _claim_rigidity(fx),
    ]
    return AuditReport(VERSION, fixtures_doc, claims)


# ---------------------------------------------------------------------------
# Renderings
# ---------------------------------------------------------------------------


def claim_dict(c: ClaimVerdict) -> dict:
    return {"id": c.claim_id, "statement": c.statement, "verdict": c.verdict,
            "instances": c.instances, "counterexamples": c.counterexamples,
            "notes": c.notes}


def audit_report_dict(report: AuditReport) -> dict:
    tally: dict[str, int] = {}
    for c in report.claims:
        tally[c.verdict] = tally.get(c.verdict, 0) + 1
    return {"version": report.version,
            "fixtures": report.fixtures,
            "claims": [claim_dict(c) for c in report.claims],
            "summary": {"claims": len(report.claims), "verdicts": tally}}


def _instance_line(row: dict) -> str:
    return ", ".join(f"{k}={row[k]}" for k in row)


def render_markdown(doc: dict) -> str:
    lines = [f"# Claims audit (version {doc['version']})", ""]
    tally = doc["summary"]["verdicts"]
    lines.append(f"{doc['summary']['claims']} claims: "
                 + ", ".join(f"{v} {k}" for k, v in sorted(tally.items())))
    lines.append("")
    for c in doc["claims"]:
        lines.append(f"## {c['id']}")
        lines.append("")
        lines.append(c["statement"])
        lines.append("")
        lines.append(f"Verdict: **{c['verdict']}**")
        lines.append("")
        if c["instances"]:
            lines.append("Instances:")
            for row in c["instances"]:
                lines.append(f"- {_instance_line(row)}")
            lines.append("")
        if c["counterexamples"]:
            ops = ", ".join(sorted({ce["operation"] for ce in c["counterexamples"]}))
            lines.append(f"Counterexamples: {len(c['counterexamples'])} "
                         f"(replayable via {ops}); see the JSON report for full records.")
            lines.append("")
        for note in c["notes"]:
            lines.append(f"Note: {note}")
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"
