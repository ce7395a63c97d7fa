"""Write reference.json: the frozen answers the benchmark checks against.

    PYTHONPATH=src python3 perfbench/freeze.py [--check]

* F_p solution counts come from the oracle's brute-force scan, not from
  rnalg.
* Groebner digests are of rnalg's reduced bases on catalog algebras; each
  basis must pass the oracle's certificate and, when sympy imports, equal
  sympy.groebner(..., order="grevlex") exactly (reduced bases are unique).
* Dimension tables, rigidity verdicts, the check-rep exit code and the
  audit verdicts are isomorphism invariants read from the catalog
  originals; the seeded copies of every seed must reproduce them, which is
  what makes them an oracle for the timed runs.

With --check the file is recomputed and compared instead of written.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")


def sympy_basis(plain: dict, kind: str):
    """The reduced grevlex basis from sympy as oracle polynomials, or None."""
    try:
        import sympy
    except ImportError:
        return None
    from fractions import Fraction

    n = plain["dim"] ** 2
    gens = sympy.symbols(" ".join(f"P_{i}" for i in range(n)))
    polys = []
    for *_, f in oracle.identity_system(plain["dim"], plain["c"], kind):
        expr = 0
        for m, c in f.items():
            term = sympy.Rational(c.numerator, c.denominator)
            for g, e in zip(gens, m):
                term *= g ** e
            expr += term
        polys.append(expr)
    if not polys:
        return []
    basis = sympy.groebner(polys, *gens, order="grevlex")
    out = []
    for g in basis.exprs:
        terms = sympy.Poly(g, *gens).terms()
        out.append({tuple(m): Fraction(int(c.p), int(c.q)) for m, c in terms})
    return out


def compute() -> dict:
    import rnalg

    ctx = workloads.Context(1, {"complex": {}, "solve": {}, "cli": {}})
    ref = {"complex": {}, "solve": {"groebner": {}, "counts": {}}, "cli": {}}
    for name, deg, coh_ops, rig_ops in workloads.COMPLEX_PLAN:
        a = ctx.algebras[name]
        for label, p in ctx.operators[name].items():
            r = rnalg.cohomology_dims(a, p, rnalg.regular_representation(a, p), deg)
            ref["complex"][f"{name}/{label}/coh{deg}"] = workloads.cohomology_invariant(
                workloads.cohomology_record(r))
            ref["complex"][f"{name}/{label}/rigidity"] = workloads.rigidity_record(
                rnalg.rigidity_report(a, p))
    for name, kind in workloads.GROEBNER_CASES:
        plain = ctx.plain(name)
        system = rnalg.build_identity_system(ctx.algebras[name], rnalg.parse_kind(kind))
        rec = workloads.groebner_record(rnalg.groebner_basis(system.polynomials()))
        basis = [oracle.from_record(t) for t in rec["basis"]]
        inputs = [f for *_, f in oracle.identity_system(plain["dim"], plain["c"], kind)]
        problem = oracle.groebner_certificate(inputs, basis)
        if problem is not None:
            raise SystemExit(f"{name}/{kind}: rnalg basis fails the certificate: {problem}")
        theirs = sympy_basis(plain, kind)
        if theirs is not None and sorted(map(oracle.to_record, theirs)) != \
                sorted(map(oracle.to_record, basis)):
            raise SystemExit(f"{name}/{kind}: rnalg basis differs from sympy's")
        print(f"groebner {name}/{kind}: {len(basis)} elements, certificate ok, "
              f"sympy {'equal' if theirs is not None else 'not installed'}", file=sys.stderr)
        ref["solve"]["groebner"][f"{name}/{kind}"] = workloads.digest(rec["basis"])
    for name, kind, p in workloads.ENUM_CASES:
        plain = ctx.plain(name)
        count = len(oracle.solutions_mod_p(plain["dim"], plain["c"], kind, p))
        ref["solve"]["counts"][f"{name}/{kind}/mod{p}"] = count
        print(f"count {name}/{kind}/mod{p}: {count}", file=sys.stderr)
    ref["cli"]["groebner/pair3/nijenhuis"] = ref["solve"]["groebner"]["pair3/nijenhuis"]
    a = ctx.algebras["pair3"]
    p = ctx.operators["pair3"]["e0-only"]
    m = rnalg.regular_representation(a, p)
    passed = (rnalg.check_bimodule(a, m).passed_standard
              and rnalg.check_rn_representation(a, p, m).passed)
    ref["cli"]["check-rep/pair3/e0-only"] = 0 if passed else 1
    with tempfile.TemporaryDirectory() as tmp:
        workloads.write_cli_fixtures(ctx, tmp)
        extras = {}
        fixdir = os.path.join(tmp, "fixdir")
        for entry in sorted(os.listdir(fixdir)):
            extras[entry[:-5]] = _load(os.path.join(fixdir, entry))
    report = rnalg.run_audit(rnalg.build_fixtures(extras))
    ref["cli"]["audit-verdicts"] = {c.claim_id: c.verdict for c in report.claims}
    return ref


def _load(path: str):
    from rnalg import fileio

    return fileio.load_algebra(fileio.read_json(path))


def main() -> int:
    ref = compute()
    text = json.dumps(ref, indent=1, sort_keys=True) + "\n"
    if "--check" in sys.argv[1:]:
        with open(REFERENCE, encoding="utf-8") as fh:
            same = fh.read() == text
        print("reference.json is up to date" if same else "reference.json differs")
        return 0 if same else 1
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
