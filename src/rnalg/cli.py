"""Command line interface.

Every subcommand reads JSON files, runs one engine operation, and prints a
report to stdout (JSON by default, markdown on request).  Exit codes: 0 all
checks passed, 1 a checked property failed (the report carries the
violations), 2 input or usage error, 3 budget exhausted.  Commands that
only compute, such as solve or cohomology, exit 0 whenever they finish.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import fileio
from .algebra import check_associative, check_operator, parse_kind, star_product
from .audit import audit_report_dict, build_fixtures, render_markdown, run_audit
from .cohomology import cohomology_dims
from .deformation import (check_deformation, check_equivalence,
                          rigidity_report)
from .errors import BudgetError, InputError, resolve_budget
from .exactlin import Matrix, qstr
from .polysys import (build_identity_system, enumerate_mod_p, groebner_basis,
                      linear_reduce)
from .representation import (check_bimodule, check_rn_representation,
                             regular_representation)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _load_algebra(path: str):
    return fileio.load_algebra(fileio.read_json(path))


def _load_operator(path: str, dim: int) -> Matrix:
    data = fileio.read_json(path)
    if isinstance(data, list):
        m = fileio.matrix_from_json(data, "operator")
    else:
        m = fileio.load_linop(data)
    if m.rows != dim or m.cols != dim:
        raise InputError(f"operator is {m.rows}x{m.cols}, algebra has dimension {dim}")
    return m


def _check_base(a, d, where: str) -> None:
    # order-0 coefficients must reproduce the algebra the file names
    base = d.base_algebra()
    if base.dim != a.dim or base.c != a.c:
        raise InputError(f"{where}: order-0 product differs from the algebra file")


def _md_value(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    return str(v)


def _md_walk(key: str, value, depth: int, lines: list[str]) -> None:
    pad = "  " * depth
    if isinstance(value, dict):
        lines.append(f"{pad}- {key}:")
        for k, v in value.items():
            _md_walk(k, v, depth + 1, lines)
    elif isinstance(value, list) and any(isinstance(x, (dict, list)) for x in value):
        lines.append(f"{pad}- {key}:")
        for i, v in enumerate(value):
            _md_walk(str(i), v, depth + 1, lines)
    elif isinstance(value, list):
        lines.append(f"{pad}- {key}: {', '.join(_md_value(x) for x in value) or '(none)'}")
    else:
        lines.append(f"{pad}- {key}: {_md_value(value)}")


def _render_generic_markdown(doc: dict) -> str:
    title = doc.get("check", "report")
    lines = [f"# {title}", ""]
    for k, v in doc.items():
        if k == "check":
            continue
        _md_walk(k, v, 0, lines)
    return "\n".join(lines) + "\n"


def _emit(doc: dict, fmt: str, markdown=None) -> None:
    if fmt == "markdown":
        sys.stdout.write(markdown(doc) if markdown else _render_generic_markdown(doc))
    else:
        sys.stdout.write(fileio.canonical_json(doc))


def _condition_violations(violations) -> list[dict]:
    return [{"condition": v.condition, "indices": list(v.indices),
             "residual": [[qstr(x) for x in row] for row in v.residual]}
            for v in violations]


def _bimodule_for(args, a, p):
    if args.rep is not None:
        m = fileio.load_bimodule(fileio.read_json(args.rep))
        if m.dim_a != a.dim:
            raise InputError("bimodule action count differs from the algebra dimension")
        if m.xi is None:
            raise InputError("bimodule file carries no xi operator")
        return m
    return regular_representation(a, p)


def _cmd_check_assoc(args) -> int:
    a = _load_algebra(args.algebra)
    rep = check_associative(a)
    _emit(fileio.assoc_report_dict(rep), args.out_format)
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


def _cmd_check_op(args) -> int:
    a = _load_algebra(args.algebra)
    p = _load_operator(args.operator, a.dim)
    rep = check_operator(a, p, parse_kind(args.kind))
    _emit(fileio.identity_report_dict(rep), args.out_format)
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


def _cmd_solve(args) -> int:
    a = _load_algebra(args.algebra)
    kind = parse_kind(args.kind)
    system = build_identity_system(a, kind)
    if args.mod is not None:
        result = enumerate_mod_p(a, kind, args.mod)
        doc = fileio.enumeration_result_dict(result)
    elif args.groebner:
        result = groebner_basis(system.polynomials(), args.budget)
        if not result.complete:
            raise BudgetError(f"groebner stage: {result.pairs_processed} S-pairs reduced, "
                              f"cap {resolve_budget(args.budget)}")
        doc = fileio.groebner_result_dict(result, system.variables)
    elif args.linear:
        result = linear_reduce(system.polynomials())
        doc = fileio.linear_reduction_dict(result, system.variables)
    else:
        doc = fileio.poly_system_dict(system)
    _emit(doc, args.out_format)
    return EXIT_OK


def _cmd_star(args) -> int:
    a = _load_algebra(args.algebra)
    p = _load_operator(args.operator, a.dim)
    st = star_product(a, p)
    fileio.write_json(args.output, fileio.dump_algebra(st))
    summary = {"check": "star-product", "written": args.output,
               "associative": check_associative(st).passed}
    _emit(summary, args.out_format)
    return EXIT_OK


def _cmd_check_rep(args) -> int:
    a = _load_algebra(args.algebra)
    p = _load_operator(args.operator, a.dim)
    m = _bimodule_for(args, a, p)
    profile = check_bimodule(a, m)
    conditions = check_rn_representation(a, p, m)
    passed = profile.passed_standard and conditions.passed
    doc = {
        "check": "representation",
        "source": "regular" if args.rep is None else args.rep,
        "passed": passed,
        "standard_profile": {
            "passed": profile.passed_standard,
            "violations": _condition_violations(profile.standard.violations),
        },
        "operator_conditions": {
            "passed": conditions.passed,
            "violations": _condition_violations(conditions.violations),
        },
    }
    _emit(doc, args.out_format)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_cohomology(args) -> int:
    a = _load_algebra(args.algebra)
    p = _load_operator(args.operator, a.dim)
    m = _bimodule_for(args, a, p)
    result = cohomology_dims(a, p, m, args.max_degree, args.budget)
    _emit(fileio.cohomology_result_dict(result), args.out_format)
    return EXIT_OK


def _cmd_deform_check(args) -> int:
    a = _load_algebra(args.algebra)
    d = fileio.load_deformation(fileio.read_json(args.deformation))
    _check_base(a, d, args.deformation)
    rep = check_deformation(d)
    _emit(fileio.deformation_report_dict(rep), args.out_format)
    return EXIT_OK if rep.ok else EXIT_CHECK_FAILED


def _cmd_deform_equiv(args) -> int:
    a = _load_algebra(args.algebra)
    d1 = fileio.load_deformation(fileio.read_json(args.deformation1))
    d2 = fileio.load_deformation(fileio.read_json(args.deformation2))
    iso = fileio.load_iso(fileio.read_json(args.iso))
    _check_base(a, d1, args.deformation1)
    _check_base(a, d2, args.deformation2)
    rep = check_equivalence(d1, d2, iso)
    _emit(fileio.equivalence_report_dict(rep), args.out_format)
    return EXIT_OK if rep.ok else EXIT_CHECK_FAILED


def _cmd_deform_rigidity(args) -> int:
    a = _load_algebra(args.algebra)
    p = _load_operator(args.operator, a.dim)
    rep = rigidity_report(a, p, args.budget)
    doc = {"check": "rigidity", "verdict": rep.verdict,
           "dim_h2": rep.dim_h2, "residuals_zero": dict(rep.residuals_zero),
           "reasons": list(rep.reasons)}
    _emit(doc, args.out_format)
    return EXIT_OK


def _cmd_audit(args) -> int:
    extras = {}
    if args.fixdir is not None:
        if not os.path.isdir(args.fixdir):
            raise InputError(f"{args.fixdir}: not a directory")
        for entry in sorted(os.listdir(args.fixdir)):
            if not entry.endswith(".json"):
                continue
            path = os.path.join(args.fixdir, entry)
            extras[entry[:-5]] = fileio.load_algebra(fileio.read_json(path))
    report = run_audit(build_fixtures(extras) if extras else None)
    _emit(audit_report_dict(report), args.out_format,
          markdown=render_markdown)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rnalg",
        description="Exact checks for twisted and averaged operator identities "
                    "on finite-dimensional associative algebras.")
    parser.add_argument("--out-format", choices=("json", "markdown"),
                        default="json", help="report rendering (default json)")
    parser.add_argument("--budget", type=int, default=None,
                        help="override the RN_BUDGET work cap")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check-assoc", help="verify associativity of an algebra file")
    c.add_argument("algebra")
    c.set_defaults(fn=_cmd_check_assoc)

    c = sub.add_parser("check-op", help="check an operator identity on basis pairs")
    c.add_argument("algebra")
    c.add_argument("operator")
    c.add_argument("--kind", required=True,
                   help="rn | reynolds | nijenhuis | rb:W | mrb:W")
    c.set_defaults(fn=_cmd_check_op)

    c = sub.add_parser("solve", help="emit or analyze the identity polynomial system")
    c.add_argument("algebra")
    c.add_argument("--kind", required=True)
    mode = c.add_mutually_exclusive_group()
    mode.add_argument("--mod", type=int, metavar="P",
                      help="enumerate all solutions over the field with P elements")
    mode.add_argument("--groebner", action="store_true",
                      help="run Buchberger completion on the system")
    mode.add_argument("--linear", action="store_true",
                      help="eliminate the linear constraints exactly")
    c.set_defaults(fn=_cmd_solve)

    c = sub.add_parser("star", help="write the deformed product a*b = aP(b)+P(a)b-P(ab)")
    c.add_argument("algebra")
    c.add_argument("operator")
    c.add_argument("-o", "--output", required=True)
    c.set_defaults(fn=_cmd_star)

    c = sub.add_parser("check-rep", help="check module compatibility conditions")
    c.add_argument("algebra")
    c.add_argument("operator")
    group = c.add_mutually_exclusive_group()
    group.add_argument("--rep", default=None, help="bimodule file to check")
    group.add_argument("--regular", action="store_true",
                       help="use the algebra acting on itself (default)")
    c.set_defaults(fn=_cmd_check_rep)

    c = sub.add_parser("cohomology", help="compute cohomology dimensions")
    c.add_argument("algebra")
    c.add_argument("operator")
    group = c.add_mutually_exclusive_group()
    group.add_argument("--rep", default=None)
    group.add_argument("--regular", action="store_true")
    c.add_argument("--max-degree", type=int, required=True)
    c.set_defaults(fn=_cmd_cohomology)

    deform = sub.add_parser("deform", help="truncated deformation checks")
    dsub = deform.add_subparsers(dest="deform_command", required=True)

    c = dsub.add_parser("check", help="verify a truncated deformation order by order")
    c.add_argument("algebra")
    c.add_argument("deformation")
    c.set_defaults(fn=_cmd_deform_check)

    c = dsub.add_parser("equiv", help="check a formal isomorphism between deformations")
    c.add_argument("algebra")
    c.add_argument("deformation1")
    c.add_argument("deformation2")
    c.add_argument("iso")
    c.set_defaults(fn=_cmd_deform_equiv)

    c = dsub.add_parser("rigidity", help="evaluate the degree-2 rigidity criterion")
    c.add_argument("algebra")
    c.add_argument("operator")
    c.set_defaults(fn=_cmd_deform_rigidity)

    c = sub.add_parser("audit", help="run the claims audit over the fixture catalog")
    c.add_argument("fixdir", nargs="?", default=None,
                   help="directory of extra algebra JSON files")
    c.set_defaults(fn=_cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.budget is not None and args.budget <= 0:
        parser.error("--budget must be positive")
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
