"""Exact computer algebra for twisted and averaged operator identities.

The engine works over the rationals with no floating point anywhere: an
algebra is a structure-constant table, an operator is a matrix in the
column convention P(e_j) = sum_i M[i][j] e_i, and every check either
passes exactly or returns the offending basis indices with the exact
residual vector.

Importing the package loads the layers every command needs (errors,
exactlin, algebra, catalog).  The heavier layers (audit, cohomology,
deformation, polysys, representation) are imported when one of their
names is first read from the package: ``rnalg.cohomology_dims`` imports
the cohomology module then.  The command line imports in each command
only the layers that command runs.
"""

import importlib

from .algebra import (KIND_NIJENHUIS, KIND_REYNOLDS, KIND_RN, Algebra,
                      IdentityReport, IdentityViolation, OperatorKind,
                      check_associative, check_morphism, check_operator,
                      classify_square, modified_rota_baxter, parse_kind,
                      rota_baxter, star_product)
# imported eagerly so rnalg.catalog names the function, not the submodule
from .catalog import catalog, operator
from .errors import BudgetError, InputError
from .exactlin import (Matrix, from_cols, kernel_basis, kron, parse_q, qstr,
                       rank, rref, solve)

_LAZY = {
    "audit": ("AuditReport", "ClaimVerdict", "audit_report_dict", "build_fixtures",
              "render_markdown", "replay_counterexample", "run_audit"),
    "cohomology": ("ComplexBuilder", "CohomologyResult", "cohomology_dims"),
    "deformation": ("FormalIso", "TruncatedDeformation", "check_deformation",
                    "check_equivalence", "infinitesimal_cocycle", "order_residuals",
                    "rigidity_report", "same_cohomology_class", "transport"),
    "polysys": ("MPoly", "PolySystem", "SymbolicMatrix", "build_identity_system",
                "enumerate_mod_p", "groebner_basis", "linear_reduce", "verify_family"),
    "representation": ("Bimodule", "check_bimodule", "check_rn_representation",
                       "induce_representation", "induced_actions",
                       "regular_representation"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


__version__ = "0.1.0"

__all__ = [
    "Algebra", "AuditReport", "Bimodule", "BudgetError", "ClaimVerdict",
    "CohomologyResult", "ComplexBuilder", "FormalIso", "IdentityReport",
    "IdentityViolation", "InputError", "KIND_NIJENHUIS", "KIND_REYNOLDS",
    "KIND_RN", "MPoly", "Matrix", "OperatorKind", "PolySystem",
    "SymbolicMatrix", "TruncatedDeformation", "audit_report_dict",
    "build_fixtures", "build_identity_system", "catalog",
    "check_associative", "check_bimodule", "check_deformation",
    "check_equivalence", "check_morphism", "check_operator",
    "check_rn_representation", "classify_square", "cohomology_dims",
    "enumerate_mod_p", "from_cols", "groebner_basis",
    "induce_representation", "induced_actions", "infinitesimal_cocycle",
    "kernel_basis", "kron", "linear_reduce", "modified_rota_baxter",
    "operator", "order_residuals", "parse_kind", "parse_q", "qstr", "rank",
    "regular_representation", "render_markdown", "replay_counterexample",
    "rigidity_report", "rota_baxter", "rref", "run_audit",
    "same_cohomology_class", "solve", "star_product", "transport",
    "verify_family",
]
