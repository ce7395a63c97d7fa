"""JSON input/output for all engine objects and reports.

Rationals travel as strings ("3", "-7/2") so nothing is ever rounded.
Matrices are row-major lists of string rows.  Every operator file carries a
convention header naming the column convention, and loading rejects a file
whose header disagrees rather than silently transposing.  Serialized
reports use sorted keys and no timestamps, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import Algebra, AssociativityReport, IdentityReport
from .cohomology import CohomologyResult
from .deformation import (DeformationReport, EquivalenceReport, FormalIso,
                          TruncatedDeformation)
from .errors import DEFAULT_BUDGET, BudgetError, InputError
from .exactlin import Matrix, parse_q, qstr
from .polysys import (EnumerationResult, GroebnerResult, LinearReduction,
                      MPoly, PolySystem)
from .representation import Bimodule

LINOP_CONVENTION = "P(e_j) = sum_i M[i][j] e_i"


def canonical_json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(data))


def read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from exc


def _require(data, key: str, where: str):
    if not isinstance(data, dict) or key not in data:
        raise InputError(f"{where}: missing key {key!r}")
    return data[key]


def _is_int(x) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{where}: need a list, got {type(value).__name__}")
    return value


def _require_list(data, key: str, where: str) -> list:
    return _list(_require(data, key, where), f"{where} {key}")


def _require_int(data, key: str, where: str) -> int:
    value = _require(data, key, where)
    if not _is_int(value):
        raise InputError(f"{where}: {key} must be an integer, got {value!r}")
    return value


def matrix_to_json(m: Matrix) -> list[list[str]]:
    return [[qstr(x) for x in row] for row in m.to_rows()]


def matrix_from_json(data, where: str = "matrix") -> Matrix:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise InputError(f"{where}: need a nonempty list of rows")
    width = len(data[0])
    rows = []
    for r in data:
        if len(r) != width:
            raise InputError(f"{where}: ragged rows")
        rows.append([parse_q(x) for x in r])
    return Matrix.from_rows(rows)


def vector_to_json(v) -> list[str]:
    return [qstr(x) for x in v]


def vector_from_json(data, where: str = "vector") -> list[Fraction]:
    return [parse_q(x) for x in _list(data, where)]


# ---------------------------------------------------------------------------
# Core objects
# ---------------------------------------------------------------------------


def dump_algebra(a: Algebra) -> dict:
    triples = []
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                v = a.c[i][j][k]
                if v:
                    triples.append([i, j, k, qstr(v)])
    out = {"dim": a.dim, "c": triples}
    if a.basis:
        out["basis"] = list(a.basis)
    if a.name:
        out["name"] = a.name
    return out


def load_algebra(data) -> Algebra:
    dim = _require(data, "dim", "algebra")
    if not _is_int(dim) or dim < 0:
        raise InputError("algebra: dim must be a nonnegative integer")
    if dim ** 3 > DEFAULT_BUDGET:  # a fixed cap: from_sparse allocates all of them
        raise BudgetError(f"algebra load stage: dim {dim} needs {dim ** 3} structure constants, "
                          f"cap {DEFAULT_BUDGET}")
    triples = []
    for entry in _require_list(data, "c", "algebra"):
        if not isinstance(entry, list) or len(entry) != 4:
            raise InputError("algebra: each c entry must be [i, j, k, coeff]")
        i, j, k, v = entry
        for idx in (i, j, k):
            if not _is_int(idx) or not 0 <= idx < dim:
                raise InputError(f"algebra: index {idx} out of range for dim {dim}")
        triples.append((i, j, k, parse_q(v)))
    basis = data.get("basis")
    if basis is not None and (not isinstance(basis, list) or len(basis) != dim):
        raise InputError("algebra: basis labels must match dim")
    return Algebra.from_sparse(dim, triples, basis=basis, name=data.get("name"))


def dump_linop(m: Matrix) -> dict:
    if m.rows != m.cols:
        raise InputError("operator must be square")
    return {"dim": m.rows, "matrix": matrix_to_json(m), "convention": LINOP_CONVENTION}


def load_linop(data) -> Matrix:
    dim = _require_int(data, "dim", "operator")
    conv = data.get("convention")
    if conv is not None and conv != LINOP_CONVENTION:
        raise InputError(f"operator: convention header {conv!r} is not {LINOP_CONVENTION!r}")
    m = matrix_from_json(_require(data, "matrix", "operator"), "operator")
    if m.rows != dim or m.cols != dim:
        raise InputError(f"operator: matrix is {m.rows}x{m.cols}, header says dim {dim}")
    return m


def dump_bimodule(m: Bimodule) -> dict:
    out = {
        "dimV": m.dim_v,
        "l": [matrix_to_json(x) for x in m.left],
        "r": [matrix_to_json(x) for x in m.right],
    }
    if not m.rho.eq(Matrix.identity(m.dim_v)):
        out["rho"] = matrix_to_json(m.rho)
    if m.xi is not None:
        out["xi"] = matrix_to_json(m.xi)
    return out


def load_bimodule(data) -> Bimodule:
    dim_v = _require_int(data, "dimV", "bimodule")
    left = [matrix_from_json(x, "bimodule l") for x in _require_list(data, "l", "bimodule")]
    right = [matrix_from_json(x, "bimodule r") for x in _require_list(data, "r", "bimodule")]
    rho = data.get("rho")
    xi = data.get("xi")
    return Bimodule(dim_v, left, right,
                    rho=matrix_from_json(rho, "bimodule rho") if rho is not None else None,
                    xi=matrix_from_json(xi, "bimodule xi") if xi is not None else None)


def dump_deformation(d: TruncatedDeformation) -> dict:
    return {
        "order": d.order,
        "nu": [[[vector_to_json(vec) for vec in row] for row in table] for table in d.nu],
        "p": [matrix_to_json(m) for m in d.p],
    }


def load_deformation(data) -> TruncatedDeformation:
    order = _require_int(data, "order", "deformation")
    nu = [[[vector_from_json(vec, "deformation nu") for vec in _list(row, "deformation nu")]
           for row in _list(table, "deformation nu")]
          for table in _require_list(data, "nu", "deformation")]
    p = [matrix_from_json(m, "deformation p") for m in _require_list(data, "p", "deformation")]
    return TruncatedDeformation(order, nu, p)


def dump_iso(iso: FormalIso) -> dict:
    return {"order": iso.order, "phi": [matrix_to_json(m) for m in iso.phi]}


def load_iso(data) -> FormalIso:
    order = _require_int(data, "order", "iso")
    phi = [matrix_from_json(m, "iso phi") for m in _require_list(data, "phi", "iso")]
    return FormalIso(order, phi)


def dump_polynomials(variables: list[str], polys: list[MPoly]) -> dict:
    return {
        "variables": list(variables),
        "polynomials": [[[list(m), qstr(c)] for m, c in p.sorted_terms()] for p in polys],
    }


def load_polynomials(data) -> tuple[list[str], list[MPoly]]:
    variables = _require_list(data, "variables", "polynomial system")
    nv = len(variables)
    polys = []
    for raw in _require_list(data, "polynomials", "polynomial system"):
        terms = {}
        for entry in _list(raw, "polynomial system polynomials"):
            if not isinstance(entry, list) or len(entry) != 2:
                raise InputError("polynomial system: each term must be [exponents, coeff]")
            exps, coef = entry
            if len(_list(exps, "polynomial system exponents")) != nv:
                raise InputError("polynomial system: exponent tuple length != variable count")
            if not all(_is_int(e) and e >= 0 for e in exps):
                raise InputError(f"polynomial system: exponents {exps} are not all ints >= 0")
            if tuple(exps) in terms:
                raise InputError(f"polynomial system: exponent tuple {exps} repeated")
            terms[tuple(exps)] = parse_q(coef)
        polys.append(MPoly(nv, terms))
    return list(variables), polys


# ---------------------------------------------------------------------------
# Report serialization (plain dicts of strings/ints/bools, ready for JSON)
# ---------------------------------------------------------------------------


def assoc_report_dict(r: AssociativityReport) -> dict:
    return {
        "check": "associativity",
        "passed": r.passed,
        "violations": [
            {"triple": [v.i, v.j, v.k], "residual": vector_to_json(v.residual)}
            for v in r.violations
        ],
    }


def identity_report_dict(r: IdentityReport) -> dict:
    return {
        "check": "operator-identity",
        "kind": r.kind.label(),
        "passed": r.passed,
        "violations": [
            {"pair": [v.i, v.j], "identity": v.identity,
             "residual": vector_to_json(v.residual)}
            for v in r.violations
        ],
    }


def cohomology_result_dict(r: CohomologyResult) -> dict:
    degrees = []
    for d in r.degrees:
        entry = {
            "degree": d.degree,
            "dim_space": d.dim_space,
            "dimZ": d.dim_z,
            "dimB": d.dim_b,
            "dimH": d.dim_h,
            "consistent": d.consistent,
            "residual_zero": dict(d.residual_zero),
        }
        if d.witnesses:
            entry["witnesses"] = {
                name: {"row": w.row, "col": w.col, "value": qstr(w.value)}
                for name, w in d.witnesses.items() if w is not None
            }
        degrees.append(entry)
    return {"check": "cohomology", "max_degree": r.max_degree, "degrees": degrees}


def deformation_report_dict(r: DeformationReport) -> dict:
    return {
        "check": "deformation",
        "order": r.order,
        "passed": r.ok,
        "convention_note": r.convention_note,
        "orders": [
            {
                "order": o.order,
                "passed": o.ok,
                "violations": [
                    {"equation": v.equation, "args": list(v.args),
                     "residual": vector_to_json(v.residual)}
                    for v in o.violations
                ],
            }
            for o in r.orders
        ],
    }


def equivalence_report_dict(r: EquivalenceReport) -> dict:
    return {
        "check": "deformation-equivalence",
        "order": r.order,
        "passed": r.ok,
        "violations": [
            {"equation": v.equation, "order": v.order, "args": list(v.args),
             "residual": vector_to_json(v.residual)}
            for v in r.violations
        ],
    }


def groebner_result_dict(r: GroebnerResult, variables: list[str]) -> dict:
    return {
        "check": "groebner",
        "complete": r.complete,
        "pairs_processed": r.pairs_processed,
        "pairs_skipped": r.pairs_skipped,
        "basis": None if r.basis is None else [p.format(variables) for p in r.basis],
    }


def enumeration_result_dict(r: EnumerationResult) -> dict:
    return {
        "check": "finite-field-enumeration",
        "prime": r.prime,
        "dim": r.dim,
        "kind": r.kind_label,
        "count": len(r.solutions),
        "solutions": [list(s) for s in r.solutions],
    }


def linear_reduction_dict(r: LinearReduction, variables: list[str]) -> dict:
    return {
        "check": "linear-reduction",
        "inconsistent": r.inconsistent,
        "constraints": [
            {"variable": variables[idx], "equals": p.format(variables)}
            for idx, p in r.constraints
        ],
        "residual": [p.format(variables) for p in r.residual],
    }


def poly_system_dict(s: PolySystem) -> dict:
    return s.to_dict()
