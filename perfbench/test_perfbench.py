"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py

They check that inputs are a pure function of the seed, that the oracle
rejects wrong answers, that the seeded copies reproduce the frozen
invariants on three seeds, that traced runs repeat their counts exactly
and keep the untraced digests, and that the command refuses to run
without the rnalg sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import oracle  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

worker._load_rnalg(SRC)

with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)


def _context(seed: int) -> workloads.Context:
    return workloads.Context(seed, REFERENCE)


def test_same_seed_gives_byte_identical_inputs():
    a = inputs.canonical(_context(7).data)
    b = inputs.canonical(_context(7).data)
    c = inputs.canonical(_context(8).data)
    assert a == b
    assert a != c


def test_change_of_basis_is_unimodular():
    import random

    for seed in range(20):
        for n in (1, 2, 3, 4):
            t, tinv = inputs.change_of_basis(random.Random(seed), n)
            prod = [[sum(t[i][k] * tinv[k][j] for k in range(n)) for j in range(n)]
                    for i in range(n)]
            assert prod == [[int(i == j) for j in range(n)] for i in range(n)]
            assert max(abs(x) for row in t + tinv for x in row) <= 3


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in (20, 64, 100, 116, 376, 1000, 20000):
        q = workloads.tail_percentile(n)
        assert n - workloads.nearest_rank(q, n) >= 10
    assert workloads.tail_percentile(64) == 75.0
    assert workloads.tail_percentile(100) == 90.0
    assert workloads.tail_percentile(376) == 95.0
    assert workloads.nearest_rank(50.0, 7) == 4


def _first_pass(workload: str, seed: int, tmp_path, in_process=False, tracer=None):
    ctx = _context(seed)
    tasks = workloads.build_tasks(workload, ctx, str(tmp_path), in_process)
    return tasks, worker.run_passes(tasks, 0.0, 1, tracer=tracer, check=tracer is None)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_copies_match_the_invariants(seed, tmp_path):
    ctx = _context(seed)
    tasks = [t for t in workloads.build_tasks("complex", ctx, None) if "_s/" in t.tid]
    tasks += [t for t in workloads.build_tasks("solve", ctx, None) if "_s/" in t.tid]
    for task in tasks:
        rec = task.record(task.run())
        assert task.check(rec) is None, task.tid
    cli = {t.tid: t for t in workloads.build_tasks("cli", ctx, str(tmp_path))}
    task = cli["cli/audit/fixdir"]
    assert task.check(task.record(task.run())) is None


def test_oracle_rejects_wrong_answers():
    ctx = _context(1)
    tasks = {t.tid: t for t in workloads.solve_tasks(ctx)}
    for tid, t in tasks.items():  # the linear and Groebner tasks read these systems
        if tid.startswith("solve/pair3/") and tid.endswith("/system"):
            t.run()
    enum = tasks["solve/pair3_s/rn/mod3"]
    rec = enum.record(enum.run())
    assert enum.check(rec) is None
    dropped = dict(rec, count=rec["count"] - 1, solutions=rec["solutions"][1:])
    assert enum.check(dropped) is not None
    wrong = dict(rec, solutions=[[1] * 9] + rec["solutions"][1:])
    assert enum.check(wrong) is not None

    gb = tasks["solve/pair3/rb:1/groebner"]
    rec = gb.record(gb.run())
    assert gb.check(rec) is None
    assert gb.check(dict(rec, basis=rec["basis"][1:])) is not None

    system = tasks["solve/pair3/rn/system"]
    rec = system.record(system.run())
    assert system.check(rec) is None
    assert system.check(dict(rec, entries=rec["entries"][:-1])) is not None

    lin = tasks["solve/pair3/rn/linear"]
    rec = lin.record(lin.run())
    assert lin.check(rec) is None
    assert lin.check(dict(rec, residual=rec["residual"][1:])) is not None

    coh = next(t for t in workloads.complex_tasks(ctx) if t.tid.endswith("/coh3"))
    rec = coh.record(coh.run())
    assert coh.check(rec) is None
    bad = json.loads(json.dumps(rec))
    bad["degrees"][0]["dim_z"] += 1
    assert coh.check(bad) is not None


def test_known_defects_are_reported_as_failures():
    ctx = _context(1)
    for task in workloads.solve_tasks(ctx):
        if task.known_defect:
            rec = task.record(task.run())
            assert task.check(rec) is not None, task.tid


def test_parse_formatted_reads_cli_polynomials():
    from rnalg import MPoly

    names = ["P_0_0", "P_0_1", "P_1_0", "P_1_1"]
    p = MPoly(4, {(2, 0, 0, 0): Fraction(3, 2), (0, 1, 1, 0): Fraction(-1),
                  (0, 0, 0, 1): Fraction(1), (0, 0, 0, 0): Fraction(-7)})
    assert workloads.parse_formatted(p.format(names), names) == dict(p.terms)


@pytest.mark.parametrize("workload", ["solve", "cli"])
def test_traced_runs_repeat_counts_and_keep_digests(workload, tmp_path):
    from tracer import Tracer

    _, plain = _first_pass(workload, 1, tmp_path / "plain")
    counts = []
    for run in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            _, res = _first_pass(workload, 1, tmp_path / f"t{run}", in_process=True,
                                 tracer=tracer)
        finally:
            tracer.uninstall()
        assert res["digests"] == plain["digests"]
        counts.append({k: v for k, (v, unit) in tracer.metrics().items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["polysys.build_identity_system.calls"] > 0


def test_groebner_reference_equals_sympy():
    pytest.importorskip("sympy")
    import freeze

    ctx = _context(1)
    for name, kind in workloads.GROEBNER_CASES:
        basis = freeze.sympy_basis(ctx.plain(name), kind)
        # reduced bases are unique; rnalg lists them by ascending leading monomial
        basis.sort(key=lambda g: oracle.grevlex(oracle.lead(g)))
        got = workloads.digest([oracle.to_record(g) for g in basis])
        assert got == REFERENCE["solve"]["groebner"][f"{name}/{kind}"], (name, kind)


def test_oracle_counts_equal_reference_counts():
    ctx = _context(1)
    for (name, kind, p) in workloads.ENUM_CASES:
        if name == "mat2":
            continue  # 65,536 points: covered by freeze.py --check
        plain = ctx.plain(name)
        count = len(oracle.solutions_mod_p(plain["dim"], plain["c"], kind, p))
        assert count == REFERENCE["solve"]["counts"][f"{name}/{kind}/mod{p}"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
