"""Exact computer algebra for twisted and averaged operator identities.

The engine works over the rationals with no floating point anywhere: an
algebra is a structure-constant table, an operator is a matrix in the
column convention P(e_j) = sum_i M[i][j] e_i, and every check either
passes exactly or returns the offending basis indices with the exact
residual vector.
"""

from .algebra import (KIND_NIJENHUIS, KIND_REYNOLDS, KIND_RN, Algebra,
                      IdentityReport, IdentityViolation, OperatorKind,
                      check_associative, check_morphism, check_operator,
                      classify_square, modified_rota_baxter, parse_kind,
                      rota_baxter, star_product)
from .audit import (AuditReport, ClaimVerdict, audit_report_dict,
                    build_fixtures, render_markdown, replay_counterexample,
                    run_audit)
from .catalog import catalog, get_algebra, operator
from .cohomology import ComplexBuilder, CohomologyResult, cohomology_dims
from .deformation import (FormalIso, TruncatedDeformation, check_deformation,
                          check_equivalence, infinitesimal_cocycle,
                          order_residuals, rigidity_report,
                          same_cohomology_class, transport)
from .errors import BudgetError, InputError
from .exactlin import (Matrix, from_cols, kernel_basis, kron, parse_q, qstr,
                       rank, rref, solve)
from .polysys import (MPoly, PolySystem, SymbolicMatrix, build_identity_system,
                      enumerate_mod_p, groebner_basis, linear_reduce,
                      verify_family)
from .representation import (Bimodule, check_bimodule, check_rn_representation,
                             induce_representation, induced_actions,
                             regular_representation)

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
    "enumerate_mod_p", "from_cols", "get_algebra", "groebner_basis",
    "induce_representation", "induced_actions", "infinitesimal_cocycle",
    "kernel_basis", "kron", "linear_reduce", "modified_rota_baxter",
    "operator", "order_residuals", "parse_kind", "parse_q", "qstr", "rank",
    "regular_representation", "render_markdown", "replay_counterexample",
    "rigidity_report", "rota_baxter", "rref", "run_audit",
    "same_cohomology_class", "solve", "star_product", "transport",
    "verify_family",
]
