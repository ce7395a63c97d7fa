"""JSON input/output for all engine objects and reports.

Rationals travel as strings ("3", "-7/2") so nothing is ever rounded.
Matrices are row-major lists of string rows.  dump_linop writes an operator
as {dim, matrix, convention}, the header naming the column convention;
load_linop checks that header when it is present and rejects one that
disagrees rather than silently transposing.  The command line also reads an
operator file that is a bare list of rows, which has no header.  Serialized
reports use sorted keys and no timestamps, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

from .algebra import Algebra, AssociativityReport, IdentityReport
from .errors import DEFAULT_BUDGET, BudgetError, InputError
from .exactlin import Matrix, from_cols, parse_q, qstr

if TYPE_CHECKING:
    # the heavier layers load only when a command reads or writes their objects
    from .cohomology import CohomologyResult
    from .deformation import (DeformationReport, EquivalenceReport, FormalIso,
                              TruncatedDeformation)
    from .polysys import EnumerationResult, GroebnerResult, LinearReduction, PolySystem
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
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad syntax, bad UTF-8 and an integer past Python's
        # digit limit; RecursionError, arrays or objects nested too deep
        raise InputError(f"{path}: not readable as JSON ({exc})") from exc


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
    out = {"dim": a.dim, "c": [[i, j, k, qstr(v)] for i, j, k, v in a.triples()]}
    if a.basis:
        out["basis"] = list(a.basis)
    if a.name:
        out["name"] = a.name
    return out


def load_algebra(data) -> Algebra:
    dim = _require(data, "dim", "algebra")
    if not _is_int(dim) or dim < 0:
        raise InputError("algebra: dim must be a nonnegative integer")
    # a fixed cap on dim^3: the dense view Algebra.c has that many entries, and the
    # associator mu (mu (x) Id - Id (x) mu) has that many columns
    if dim ** 3 > DEFAULT_BUDGET:
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
    if m.xi is not None:
        out["xi"] = matrix_to_json(m.xi)
    return out


def load_bimodule(data) -> Bimodule:
    from .representation import Bimodule

    dim_v = _require_int(data, "dimV", "bimodule")
    if "rho" in data:
        raise InputError("bimodule: unsupported key 'rho'")
    left = [matrix_from_json(x, "bimodule l") for x in _require_list(data, "l", "bimodule")]
    right = [matrix_from_json(x, "bimodule r") for x in _require_list(data, "r", "bimodule")]
    xi = data.get("xi")
    return Bimodule(dim_v, left, right,
                    xi=matrix_from_json(xi, "bimodule xi") if xi is not None else None)


def dump_deformation(d: TruncatedDeformation) -> dict:
    # each nu_k is written as the dense table nu[i][j] = nu_k(e_i, e_j)
    dim = d.dim
    return {
        "order": d.order,
        "nu": [[[vector_to_json(m.col_list(i * dim + j)) for j in range(dim)]
                for i in range(dim)] for m in d.nu],
        "p": [matrix_to_json(m) for m in d.p],
    }


def _nu_from_json(table, dim: int) -> Matrix:
    """The dim x dim^2 coefficient matrix of a dense dim x dim table of dim-vectors."""
    rows = _list(table, "deformation nu")
    if len(rows) != dim or any(len(_list(row, "deformation nu")) != dim for row in rows):
        raise InputError("deformation nu: coefficient tables must be dim x dim")
    vectors = [vector_from_json(vec, "deformation nu") for row in rows for vec in row]
    if any(len(vec) != dim for vec in vectors):
        raise InputError("deformation nu: values must be dim-vectors")
    return from_cols(vectors)


def load_deformation(data) -> TruncatedDeformation:
    from .deformation import TruncatedDeformation

    order = _require_int(data, "order", "deformation")
    tables = _require_list(data, "nu", "deformation")
    # the first table fixes dim; the constructor refuses dim 0
    dim = len(_list(tables[0], "deformation nu")) if tables else 0
    nu = [_nu_from_json(table, dim) for table in tables]
    p = [matrix_from_json(m, "deformation p") for m in _require_list(data, "p", "deformation")]
    return TruncatedDeformation(order, nu, p)


def dump_iso(iso: FormalIso) -> dict:
    return {"order": iso.order, "phi": [matrix_to_json(m) for m in iso.phi]}


def load_iso(data) -> FormalIso:
    from .deformation import FormalIso

    order = _require_int(data, "order", "iso")
    phi = [matrix_from_json(m, "iso phi") for m in _require_list(data, "phi", "iso")]
    return FormalIso(order, phi)


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
    return {
        "variables": list(s.variables),
        "kind": s.kind.label(),
        "polynomials": [
            {
                "pair": [e.i, e.j],
                "coord": e.coord,
                "identity": e.identity,
                "terms": [[list(m), qstr(c)] for m, c in e.poly.sorted_terms()],
            }
            for e in s.entries
        ],
    }
