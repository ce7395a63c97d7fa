"""The three workloads: task lists, result records and oracle checks.

A task is one call a user of rnalg would make.  `run` is the timed call;
`record` turns its result into plain data whose canonical JSON is the
task's digest; `check` compares that record with the oracle and returns
None or (expected, got).  Records and checks never go through rnalg, so
the gate shares no code with the timed path.

Workloads (why each was chosen is in NOTES.md):

* complex -- cohomology_dims and rigidity_report on regular
  representations of catalog algebras and their seeded copies;
* solve   -- identity systems, linear reduction, Groebner bases and F_p
  enumeration, plus the two dimension-1 reductions of ROADMAP item 4;
* cli     -- a fixed script of `python -m rnalg.cli` commands on JSON
  files written during set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import inputs
import oracle
from inputs import qstr

WORKLOADS = ("complex", "solve", "cli")
KINDS = ("rn", "reynolds", "nijenhuis", "rb:1", "rb:-1", "mrb:1", "mrb:-1")

# (algebra, max degree for cohomology_dims, operators for cohomology_dims,
#  operators for rigidity_report); None means every operator fixture.  The
#  subsets keep one pass near 13 s, so two passes fit in a 30 s run.  They
#  also place the quantiles inside groups of similar tasks rather than on a
#  jump between groups: per pass, 10 leftunit2 tasks, 14 pair3 rigidity
#  tasks (the median falls in their middle), 4 trunc3 rigidity tasks (the
#  p75 of two passes falls among them) and 6 heavy tasks.
COMPLEX_PLAN = (
    ("leftunit2", 3, ("zero", "id", "e0-to-e1", "swap", "quarter-turn"), ()),
    ("pair3", 3, ("zero",), None),
    ("trunc3", 3, ("zero",), ("zero", "id")),
    ("mat2", 2, ("id",), ()),
)
GROEBNER_CASES = tuple(("leftunit2", k) for k in KINDS) + tuple(
    ("pair3", k) for k in ("nijenhuis", "rb:1", "rb:-1", "mrb:1", "mrb:-1"))
ENUM_CASES = (("mat2", "rn", 2), ("pair3", "rn", 3), ("pair3", "reynolds", 3),
              ("trunc3", "rn", 3), ("leftunit2", "rn", 5))
# ROADMAP item 4: dimension-1 algebras e0*e0 = c*e0, kind rn, p = 3
DEFECT_CASES = (("e0e0=3e0", "3"), ("e0e0=1/3e0", "1/3"))
DEFECT_NOTE = "ROADMAP item 4: mod-p reduction of the content-normalized system"

# minimum passes per run, so the tail percentile always has its samples
MIN_PASSES = {"complex": 2, "solve": 4, "cli": 3}
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def nearest_rank(q: float, samples: int) -> int:
    """1-based nearest-rank position of percentile q, in exact arithmetic."""
    return max(1, -(-round(q * 10) * samples // 1000))


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for q in TAIL_LADDER:
        if samples - nearest_rank(q, samples) >= 10:
            return q
    return 50.0


def digest(record) -> str:
    """sha256 of canonical JSON; top-level keys starting with "_" are left out."""
    if isinstance(record, dict):
        record = {k: v for k, v in record.items() if not k.startswith("_")}
    return hashlib.sha256(inputs.canonical(record).encode("utf-8")).hexdigest()


class Raised:
    """A task's call raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.name = type(exc).__name__
        self.message = str(exc)

    def record(self) -> dict:
        return {"raised": self.name, "message": self.message}


class Task:
    __slots__ = ("tid", "run", "record", "check", "known_defect")

    def __init__(self, tid, run, record, check, known_defect=None):
        self.tid = tid
        self.run = run
        self.record = record
        self.check = check
        self.known_defect = known_defect


def _terms(poly) -> list:
    return [[list(m), qstr(c)] for m, c in sorted(poly.terms.items())]


def _guard(record_fn):
    """Records of a Raised result are the exception; checks see them as such."""
    def wrapped(result):
        return result.record() if isinstance(result, Raised) else record_fn(result)
    return wrapped


def _expect_value(expected):
    def check(rec):
        return None if rec == expected else (expected, rec)
    return check


# ---------------------------------------------------------------------------
# Set-up shared by all workloads
# ---------------------------------------------------------------------------


class Context:
    """Seeded inputs plus the rnalg objects built from them."""

    def __init__(self, seed: int, reference: dict):
        import rnalg
        from rnalg.audit import operator_fixtures

        self.rnalg = rnalg
        self.reference = reference
        cat = rnalg.catalog()
        fixtures = operator_fixtures()
        base = {}
        for name, a in cat.items():
            triples = [(i, j, k, a.c[i][j][k]) for i in range(a.dim)
                       for j in range(a.dim) for k in range(a.dim) if a.c[i][j][k]]
            base[name] = {"dim": a.dim, "c": triples,
                          "operators": {label: p.to_rows() for label, p in fixtures.get(name, [])}}
        self.data = inputs.generate(seed, base)
        # variant "" is the catalog original, "_s" the seeded copy
        self.algebras = {}
        self.operators = {}
        for name, a in cat.items():
            self.algebras[name] = a
            self.operators[name] = dict(fixtures.get(name, []))
        for name, entry in self.data["seeded"].items():
            key = name + "_s"
            self.algebras[key] = rnalg.Algebra.from_sparse(
                entry["dim"], [tuple(t) for t in entry["c"]], name=key)
            self.operators[key] = {label: rnalg.Matrix.from_rows(
                [[Fraction(x) for x in row] for row in rows])
                for label, rows in entry["operators"].items()}

    def plain(self, key: str) -> dict:
        """Plain-data algebra (dim, triples, operators) for the oracle."""
        if key.endswith("_s"):
            return self.data["seeded"][key[:-2]]
        return self.data["originals"][key]


# ---------------------------------------------------------------------------
# complex
# ---------------------------------------------------------------------------


def cohomology_record(r) -> dict:
    return {"max_degree": r.max_degree, "degrees": [
        {"degree": d.degree, "dim_space": d.dim_space, "dim_z": d.dim_z, "dim_b": d.dim_b,
         "dim_h": d.dim_h, "consistent": d.consistent,
         "residual_zero": dict(sorted(d.residual_zero.items())),
         "witnesses": {k: (None if w is None else [w.row, w.col, qstr(w.value)])
                       for k, w in sorted(d.witnesses.items())}}
        for d in r.degrees]}


def cohomology_invariant(rec: dict) -> dict:
    """The basis-independent part of a dimension table: witnesses dropped."""
    if "degrees" not in rec:
        return rec
    return {"max_degree": rec["max_degree"],
            "degrees": [{k: v for k, v in d.items() if k != "witnesses"}
                        for d in rec["degrees"]]}


def rigidity_record(r) -> dict:
    return {"verdict": r.verdict, "dim_h2": r.dim_h2,
            "residuals_zero": dict(sorted(r.residuals_zero.items())),
            "reasons": list(r.reasons)}


def complex_tasks(ctx: Context) -> list[Task]:
    rn = ctx.rnalg
    ref = ctx.reference["complex"]
    tasks = []
    for name, deg, coh_ops, rig_ops in COMPLEX_PLAN:
        for key in (name, name + "_s"):
            a = ctx.algebras[key]
            for label, p in ctx.operators[key].items():
                if coh_ops is None or label in coh_ops:
                    def run(a=a, p=p, deg=deg):
                        return rn.cohomology_dims(a, p, rn.regular_representation(a, p), deg)
                    expected = ref[f"{name}/{label}/coh{deg}"]
                    tasks.append(Task(
                        f"complex/{key}/{label}/coh{deg}", run,
                        _guard(cohomology_record),
                        lambda rec, e=expected: _expect_value(e)(cohomology_invariant(rec))))
                if rig_ops is None or label in rig_ops:
                    expected = ref[f"{name}/{label}/rigidity"]
                    tasks.append(Task(
                        f"complex/{key}/{label}/rigidity",
                        lambda a=a, p=p: rn.rigidity_report(a, p),
                        _guard(rigidity_record), _expect_value(expected)))
    # A fixed interleaving, the same for every seed: light and heavy tasks are
    # spread over the pass, so the latency quantiles sample the whole run and
    # not two short stretches of it.
    random.Random("complex-task-order").shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def system_record(s) -> dict:
    return {"entries": [[e.i, e.j, e.coord, e.identity, _terms(e.poly)] for e in s.entries]}


def check_system(plain: dict, kind: str):
    def check(rec):
        expected = [[i, j, k, ident, oracle.to_record(poly)] for i, j, k, ident, poly
                    in oracle.identity_system(plain["dim"], plain["c"], kind)]
        got = rec.get("entries")
        if got == expected:
            return None
        return (f"{len(expected)} polynomials ({digest(expected)[:12]})",
                f"{len(got) if got is not None else rec} ({digest(got)[:12]})")
    return check


def _oracle_inputs(plain: dict, kind: str) -> list[dict]:
    return [poly for *_, poly in oracle.identity_system(plain["dim"], plain["c"], kind)]


def linear_record(r) -> dict:
    return {"inconsistent": r.inconsistent,
            "constraints": [[v, _terms(p)] for v, p in r.constraints],
            "residual": [_terms(p) for p in r.residual]}


def check_linear(plain: dict, kind: str):
    def check(rec):
        if "residual" not in rec:
            return ("a linear reduction", rec)
        problem = oracle.linear_certificate(
            _oracle_inputs(plain, kind),
            [(v, oracle.from_record(t)) for v, t in rec["constraints"]],
            [oracle.from_record(t) for t in rec["residual"]],
            rec["inconsistent"], plain["dim"] ** 2)
        return None if problem is None else ("a sound linear reduction", problem)
    return check


def groebner_record(r) -> dict:
    return {"complete": r.complete,
            "basis": None if r.basis is None else [_terms(p) for p in r.basis]}


def check_groebner(plain: dict, kind: str, ref_digest: str):
    def check(rec):
        if rec.get("complete") is not True:
            return ("a complete basis", rec)
        problem = oracle.groebner_certificate(
            _oracle_inputs(plain, kind), [oracle.from_record(t) for t in rec["basis"]])
        if problem is not None:
            return ("a reduced Groebner basis", problem)
        got = digest(rec["basis"])
        return None if got == ref_digest else (f"basis digest {ref_digest}", got)
    return check


def enum_record(r) -> dict:
    return {"prime": r.prime, "count": len(r.solutions),
            "solutions": sorted(list(s) for s in r.solutions)}


def check_enum(plain: dict, kind: str, p: int, count: int):
    def check(rec):
        if rec.get("count") != count:
            return (f"{count} solutions", rec.get("count", rec))
        sols = [tuple(s) for s in rec["solutions"]]
        if len(set(sols)) != len(sols):
            return ("distinct solutions", "duplicates")
        n = plain["dim"]
        for s in sols:
            m = [s[r * n:(r + 1) * n] for r in range(n)]
            if not oracle.identity_holds(n, plain["c"], kind, m, p):
                return ("every listed matrix solves the system", list(s))
        return None
    return check


def check_defect(triples, kind: str, p: int):
    def check(rec):
        got = rec.get("raised") or f"solutions {rec.get('solutions')}"
        if not oracle.defined_mod_p(triples, kind, p):
            return None if rec.get("raised") == "InputError" else (
                f"InputError: the structure constants are not defined mod {p}", got)
        sols = sorted(list(s) for s in oracle.solutions_mod_p(1, triples, kind, p))
        return None if rec.get("solutions") == sols else (f"solutions {sols}", got)
    return check


def solve_tasks(ctx: Context) -> list[Task]:
    rn = ctx.rnalg
    ref = ctx.reference["solve"]
    tasks = []
    systems = {}  # filled by the system task of the same pass
    for name in sorted(ctx.data["originals"]):
        a = ctx.algebras[name]
        plain = ctx.plain(name)
        for kind in KINDS:
            def build(a=a, kind=kind, key=(name, kind)):
                s = rn.build_identity_system(a, rn.parse_kind(kind))
                systems[key] = s
                return s
            tasks.append(Task(f"solve/{name}/{kind}/system", build,
                              _guard(system_record), check_system(plain, kind)))
            tasks.append(Task(f"solve/{name}/{kind}/linear",
                              lambda key=(name, kind): rn.linear_reduce(
                                  systems[key].polynomials()),
                              _guard(linear_record), check_linear(plain, kind)))
    for name, kind in GROEBNER_CASES:
        tasks.append(Task(f"solve/{name}/{kind}/groebner",
                          lambda key=(name, kind): rn.groebner_basis(
                              systems[key].polynomials()),
                          _guard(groebner_record),
                          check_groebner(ctx.plain(name), kind,
                                         ref["groebner"][f"{name}/{kind}"])))
    for name, kind, p in ENUM_CASES:
        for key in (name, name + "_s"):
            a = ctx.algebras[key]
            tasks.append(Task(f"solve/{key}/{kind}/mod{p}",
                              lambda a=a, kind=kind, p=p: rn.enumerate_mod_p(
                                  a, rn.parse_kind(kind), p),
                              _guard(enum_record),
                              check_enum(ctx.plain(key), kind, p,
                                         ref["counts"][f"{name}/{kind}/mod{p}"])))
    for label, coeff in DEFECT_CASES:
        triples = [[0, 0, 0, coeff]]
        a = rn.Algebra.from_sparse(1, [(0, 0, 0, Fraction(coeff))], name=label)
        tasks.append(Task(f"solve/{label}/rn/mod3",
                          lambda a=a: rn.enumerate_mod_p(a, rn.parse_kind("rn"), 3),
                          _guard(enum_record), check_defect(triples, "rn", 3),
                          known_defect=DEFECT_NOTE))
    return tasks


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

EXIT_OK, EXIT_CHECK_FAILED, EXIT_INPUT, EXIT_BUDGET = 0, 1, 2, 3  # README "Exit codes"
CLI_MOD_CASES = (("leftunit2", 5), ("pair3", 3), ("trunc3", 3))


class CliResult:
    def __init__(self, code: int, stdout: bytes):
        self.code = code
        self.stdout = stdout


def cli_record(result: CliResult) -> dict:
    """Exit code and stdout hash; "_stdout" is kept for the checks, not the digest."""
    return {"exit": result.code, "stdout_sha256": hashlib.sha256(result.stdout).hexdigest(),
            "_stdout": result.stdout.decode("utf-8", "replace")}


def _cli_check(code: int, content=None):
    def check(rec):
        if "exit" not in rec:
            return (f"exit {code}", rec)
        if rec["exit"] != code:
            return (f"exit {code}", f"exit {rec['exit']}")
        if content is None:
            return None
        try:
            doc = json.loads(rec["_stdout"])
        except ValueError:
            return ("a JSON report", rec["_stdout"][:80])
        return content(doc)
    return check


def _markdown_check(line: str):
    exit_ok = _cli_check(EXIT_OK)

    def check(rec):
        problem = exit_ok(rec)
        if problem is None and line not in rec["_stdout"].splitlines():
            problem = (f"a markdown report with the line {line!r}", rec["_stdout"][:80])
        return problem
    return check


def parse_formatted(text: str, variables: list[str]) -> dict:
    """A polynomial as the CLI prints it ("2*P_0_1^2 - P_1_1 + 3") -> dict."""
    n = len(variables)
    index = {v: i for i, v in enumerate(variables)}
    poly: dict = {}
    if text == "0":
        return poly
    tokens = text.replace(" - ", " + -").split(" + ")
    for tok in tokens:
        sign = 1
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        coeff = Fraction(1)
        exps = [0] * n
        for factor in tok.split("*"):
            name, _, power = factor.partition("^")
            if name in index:
                exps[index[name]] += int(power or 1)
            else:
                coeff *= Fraction(factor)
        poly = oracle.p_add(poly, {tuple(exps): sign * coeff})
    return poly


def write_cli_fixtures(ctx: Context, workdir: str) -> None:
    """JSON inputs for the cli script, in the formats the README points to."""
    def write(rel: str, doc) -> None:
        with open(os.path.join(workdir, rel), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)

    for sub in ("alg", "op", "fixdir", "def"):
        os.makedirs(os.path.join(workdir, sub), exist_ok=True)
    for name in inputs.SEEDED_ALGEBRAS:
        for key in (name, name + "_s"):
            plain = ctx.plain(key)
            algebra = {"dim": plain["dim"], "c": plain["c"], "name": key}
            write(f"alg/{key}.json", algebra)
            if key.endswith("_s"):
                write(f"fixdir/{key}.json", algebra)
            for label, rows in plain["operators"].items():
                write(f"op/{key}_{label}.json", {"dim": plain["dim"], "matrix": rows,
                                                 "convention": "P(e_j) = sum_i M[i][j] e_i"})
    plain = ctx.plain("trunc3")
    n = plain["dim"]
    c = oracle.constants(n, plain["c"])
    table = [[[qstr(sum((v for k2, v in c.get((i, j), []) if k2 == k), Fraction(0)))
               for k in range(n)] for j in range(n)] for i in range(n)]
    zeros = [[["0"] * n for _ in range(n)] for _ in range(n)]
    zero_m = [["0"] * n for _ in range(n)]
    ident = [["1" if r == s else "0" for s in range(n)] for r in range(n)]
    write("def/trunc3_zero.json", {"order": 1, "nu": [table, zeros], "p": [zero_m, zero_m]})
    write("def/iso_identity.json", {"order": 1, "phi": [ident, zero_m]})
    with open(os.path.join(workdir, "bad.json"), "w", encoding="utf-8") as fh:
        fh.write('{"dim": 2, "c": [[0, 0, 0, "1"]')


def cli_tasks(ctx: Context, workdir: str, in_process: bool = False) -> list[Task]:
    ref = ctx.reference["cli"]
    complex_ref = ctx.reference["complex"]
    counts = ctx.reference["solve"]["counts"]
    env = dict(os.environ)
    env.pop("RN_BUDGET", None)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(ctx.rnalg.__file__))

    def runner(argv):
        if in_process:
            return lambda: _run_in_process(argv, workdir)
        cmd = [sys.executable, "-m", "rnalg.cli", *argv]
        return lambda: _run_child(cmd, workdir, env)

    tasks = []

    def add(tid, argv, check):
        tasks.append(Task(f"cli/{tid}", runner(argv), _guard(cli_record), check))

    for name in inputs.SEEDED_ALGEBRAS:
        for key in (name, name + "_s"):
            add(f"check-assoc/{key}", ["check-assoc", f"alg/{key}.json"],
                _cli_check(EXIT_OK, lambda d: None if d.get("passed") is True
                           else ("passed: true", d.get("passed"))))
    for name in inputs.SEEDED_ALGEBRAS:
        key = name + "_s"
        plain = ctx.plain(key)
        holds = oracle.identity_holds(plain["dim"], plain["c"], "rn",
                                      plain["operators"]["id"])
        add(f"check-op/{key}/id/rn", ["check-op", f"alg/{key}.json", f"op/{key}_id.json",
                                      "--kind", "rn"],
            _cli_check(EXIT_OK if holds else EXIT_CHECK_FAILED))
    for name in inputs.SEEDED_ALGEBRAS:
        plain = ctx.plain(name)
        holds = oracle.identity_holds(plain["dim"], plain["c"], "nijenhuis",
                                      plain["operators"]["zero"])
        add(f"check-op/{name}/zero/nijenhuis", ["check-op", f"alg/{name}.json",
                                                 f"op/{name}_zero.json", "--kind", "nijenhuis"],
            _cli_check(EXIT_OK if holds else EXIT_CHECK_FAILED))
    plain = ctx.plain("leftunit2")
    holds = oracle.identity_holds(plain["dim"], plain["c"], "rn", plain["operators"]["swap"])
    add("check-op/leftunit2/swap/rn", ["check-op", "alg/leftunit2.json",
                                        "op/leftunit2_swap.json", "--kind", "rn"],
        _cli_check(EXIT_OK if holds else EXIT_CHECK_FAILED))
    for name, p in CLI_MOD_CASES:
        key = name + "_s"
        plain = ctx.plain(key)
        add(f"solve-mod/{key}/rn/{p}", ["solve", f"alg/{key}.json", "--kind", "rn",
                                         "--mod", str(p)],
            _cli_check(EXIT_OK, _mod_content(plain, "rn", p, counts[f"{name}/rn/mod{p}"])))
    add("solve/leftunit2/rn", ["solve", "alg/leftunit2.json", "--kind", "rn"],
        _cli_check(EXIT_OK, _system_content(ctx.plain("leftunit2"), "rn")))
    add("solve-groebner/pair3/nijenhuis", ["solve", "alg/pair3.json", "--kind", "nijenhuis",
                                           "--groebner"],
        _cli_check(EXIT_OK, _groebner_content(ctx.plain("pair3"), "nijenhuis",
                                              ref["groebner/pair3/nijenhuis"])))
    add("solve-linear/pair3/rn", ["solve", "alg/pair3.json", "--kind", "rn", "--linear"],
        _cli_check(EXIT_OK, _linear_content(ctx.plain("pair3"), "rn")))
    plain = ctx.plain("leftunit2_s")
    assoc = oracle.star_is_associative(plain["dim"], plain["c"],
                                       plain["operators"]["e0-to-e1"])
    add("star/leftunit2_s/e0-to-e1", ["star", "alg/leftunit2_s.json",
                                      "op/leftunit2_s_e0-to-e1.json", "-o", "star_out.json"],
        _cli_check(EXIT_OK, lambda d: None if d.get("associative") is assoc
                   else (f"associative: {assoc}", d.get("associative"))))
    add("check-rep/pair3_s/e0-only", ["check-rep", "alg/pair3_s.json",
                                      "op/pair3_s_e0-only.json", "--regular"],
        _cli_check(ref["check-rep/pair3/e0-only"]))
    expected = complex_ref["trunc3/zero/coh3"]
    expected2 = {"max_degree": 2, "degrees": expected["degrees"][:3]}
    add("cohomology/trunc3_s/zero/2", ["cohomology", "alg/trunc3_s.json",
                                       "op/trunc3_s_zero.json", "--regular",
                                       "--max-degree", "2"],
        _cli_check(EXIT_OK, lambda d: _expect_value(expected2)(_cli_cohomology(d))))
    plain = ctx.plain("trunc3")
    ok = oracle.identity_holds(plain["dim"], plain["c"], "rn", plain["operators"]["zero"])
    add("deform-check/trunc3/zero", ["deform", "check", "alg/trunc3.json",
                                     "def/trunc3_zero.json"],
        _cli_check(EXIT_OK if ok else EXIT_CHECK_FAILED))
    add("deform-equiv/trunc3/identity", ["deform", "equiv", "alg/trunc3.json",
                                         "def/trunc3_zero.json", "def/trunc3_zero.json",
                                         "def/iso_identity.json"],
        _cli_check(EXIT_OK))
    rig = complex_ref["leftunit2/zero/rigidity"]
    add("deform-rigidity/leftunit2_s/zero", ["deform", "rigidity", "alg/leftunit2_s.json",
                                             "op/leftunit2_s_zero.json"],
        _cli_check(EXIT_OK, lambda d: None if d.get("verdict") == rig["verdict"]
                   and d.get("dim_h2") == rig["dim_h2"]
                   else (rig["verdict"], (d.get("verdict"), d.get("dim_h2")))))
    verdicts = ref["audit-verdicts"]
    add("audit/fixdir", ["audit", "fixdir"],
        _cli_check(EXIT_OK, lambda d: _expect_value(verdicts)(
            {c["id"]: c["verdict"] for c in d.get("claims", [])})))
    add("markdown/check-assoc/pair3_s", ["--out-format", "markdown", "check-assoc",
                                         "alg/pair3_s.json"],
        _markdown_check("- passed: yes"))
    add("exit2/missing-file", ["check-assoc", "alg/missing.json"], _cli_check(EXIT_INPUT))
    add("exit2/malformed-json", ["check-assoc", "bad.json"], _cli_check(EXIT_INPUT))
    add("exit3/cohomology-budget", ["--budget", "10", "cohomology", "alg/pair3.json",
                                    "op/pair3_zero.json", "--regular", "--max-degree", "3"],
        _cli_check(EXIT_BUDGET))
    return tasks


def _cli_cohomology(doc: dict) -> dict:
    return {"max_degree": doc.get("max_degree"), "degrees": [
        {"degree": d["degree"], "dim_space": d["dim_space"], "dim_z": d["dimZ"],
         "dim_b": d["dimB"], "dim_h": d["dimH"], "consistent": d["consistent"],
         "residual_zero": dict(sorted(d["residual_zero"].items()))}
        for d in doc.get("degrees", [])]}


def _mod_content(plain, kind, p, count):
    check = check_enum(plain, kind, p, count)
    return lambda d: check({"count": d.get("count"), "solutions": d.get("solutions", [])})


def _system_content(plain, kind):
    check = check_system(plain, kind)

    def content(d):
        entries = [[e["pair"][0], e["pair"][1], e["coord"], e["identity"],
                    sorted([list(m), c] for m, c in e["terms"])]
                   for e in d.get("polynomials", [])]
        return check({"entries": entries})
    return content


def _groebner_content(plain, kind, ref_digest):
    def content(d):
        if d.get("complete") is not True:
            return ("complete: true", d.get("complete"))
        basis = [parse_formatted(t, _variables(plain)) for t in d["basis"]]
        problem = oracle.groebner_certificate(_oracle_inputs(plain, kind), basis)
        if problem is not None:
            return ("a reduced Groebner basis", problem)
        got = digest([oracle.to_record(g) for g in basis])
        return None if got == ref_digest else (f"basis digest {ref_digest}", got)
    return content


def _linear_content(plain, kind):
    def content(d):
        names = _variables(plain)
        constraints = [(names.index(c["variable"]), parse_formatted(c["equals"], names))
                       for c in d.get("constraints", [])]
        residual = [parse_formatted(t, names) for t in d.get("residual", [])]
        problem = oracle.linear_certificate(_oracle_inputs(plain, kind), constraints,
                                            residual, d.get("inconsistent"), len(names))
        return None if problem is None else ("a sound linear reduction", problem)
    return content


def _variables(plain) -> list[str]:
    n = plain["dim"]
    return [f"P_{r}_{c}" for r in range(n) for c in range(n)]


def _run_child(cmd, workdir, env) -> CliResult:
    proc = subprocess.run(cmd, cwd=workdir, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=170)
    return CliResult(proc.returncode, proc.stdout)


def _run_in_process(argv, workdir) -> CliResult:
    from rnalg import cli

    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 1
    finally:
        os.chdir(cwd)
    return CliResult(code, out.getvalue().encode("utf-8"))


def build_tasks(workload: str, ctx: Context, workdir: str | None,
                in_process: bool = False) -> list[Task]:
    if workload == "complex":
        return complex_tasks(ctx)
    if workload == "solve":
        return solve_tasks(ctx)
    if workload == "cli":
        write_cli_fixtures(ctx, workdir)
        return cli_tasks(ctx, workdir, in_process)
    raise ValueError(f"unknown workload {workload!r}")
