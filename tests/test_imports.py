"""Which layers a command loads (and which stdlib modules they avoid), the package's lazily served
names, and the immutability of its records."""

from __future__ import annotations

import ast
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_tracer_targets import _load_tracer

import rnalg
from rnalg import fileio
from rnalg.catalog import catalog
from rnalg.exactlin import Matrix

SRC = os.path.dirname(os.path.dirname(rnalg.__file__))
EVERY_COMMAND = ["rnalg", "rnalg.algebra", "rnalg.catalog", "rnalg.cli", "rnalg.errors",
                 "rnalg.exactlin", "rnalg.fileio"]

# run cli.main on argv in this process, then print its exit code and the rnalg modules loaded
LOADED = """
import contextlib, io, json, sys
from rnalg import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "rnalg")]))
"""


def _python(*args, cwd=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("RN_BUDGET", None)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("layers")
    fileio.write_json(str(path / "pair3.json"), fileio.dump_algebra(catalog()["pair3"]))
    fileio.write_json(str(path / "zero3.json"), fileio.dump_linop(Matrix.zeros(3, 3)))
    from rnalg.deformation import FormalIso, TruncatedDeformation

    constant = TruncatedDeformation.constant(catalog()["pair3"], Matrix.zeros(3, 3), 1)
    fileio.write_json(str(path / "constant.json"), fileio.dump_deformation(constant))
    identity = FormalIso(1, [Matrix.identity(3), Matrix.zeros(3, 3)])
    fileio.write_json(str(path / "identity.json"), fileio.dump_iso(identity))
    return path


def _loaded(workdir, argv):
    proc = _python("-c", LOADED, *argv, cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    assert code == 0
    return modules


@pytest.mark.parametrize("argv", [
    ["check-assoc", "pair3.json"],
    ["check-op", "pair3.json", "zero3.json", "--kind", "rn"],
    ["star", "pair3.json", "zero3.json", "-o", "star.json"],
], ids=["check-assoc", "check-op", "star"])
def test_algebra_commands_load_only_the_base_layers(workdir, argv):
    assert _loaded(workdir, argv) == EVERY_COMMAND


def test_solve_mod_loads_polysys_and_no_other_layer(workdir):
    modules = _loaded(workdir, ["solve", "pair3.json", "--kind", "rn", "--mod", "2"])
    assert modules == sorted(EVERY_COMMAND + ["rnalg.polysys"])


@pytest.mark.parametrize("argv,layers", [
    (["solve", "pair3.json", "--kind", "rn"], ["polysys"]),
    (["solve", "pair3.json", "--kind", "rn", "--linear"], ["polysys"]),
    (["solve", "pair3.json", "--kind", "rn", "--groebner"], ["polysys"]),
    (["check-rep", "pair3.json", "zero3.json", "--regular"], ["representation"]),
    (["cohomology", "pair3.json", "zero3.json", "--regular", "--max-degree", "1"],
     ["cohomology", "representation"]),
    (["deform", "check", "pair3.json", "constant.json"], ["deformation"]),
    (["deform", "equiv", "pair3.json", "constant.json", "constant.json", "identity.json"],
     ["deformation"]),
    (["deform", "rigidity", "pair3.json", "zero3.json"],
     ["cohomology", "deformation", "representation"]),
], ids=["solve", "solve-linear", "solve-groebner", "check-rep", "cohomology", "deform-check",
        "deform-equiv", "deform-rigidity"])
def test_each_command_loads_the_layers_it_runs_and_no_other(workdir, argv, layers):
    assert _loaded(workdir, argv) == sorted(EVERY_COMMAND + [f"rnalg.{m}" for m in layers])


def test_audit_loads_every_module(workdir):
    package = ["rnalg"] + [f"rnalg.{m.name}" for m in pkgutil.iter_modules(rnalg.__path__)]
    assert _loaded(workdir, ["audit"]) == sorted(package)


def test_no_layer_loads_dataclasses_or_inspect():
    proc = _python("-c", "import sys, rnalg.audit; "
                         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_records_of_every_layer_refuse_assignment():
    from rnalg import algebra, audit, cohomology, deformation, polysys, representation

    a, p = catalog()["pair3"], Matrix.zeros(3, 3)
    regular = representation.regular_representation(a, p)
    for record, field in [
        (algebra.check_associative(a), "violations"),
        (algebra.parse_kind("rb:1"), "weight"),
        (polysys.enumerate_mod_p(a, algebra.KIND_RN, 2), "solutions"),
        (representation.check_bimodule(a, regular), "standard"),
        (cohomology.cohomology_dims(a, p, regular, 1), "degrees"),
        (deformation.rigidity_report(a, p), "verdict"),
        (audit.ClaimVerdict("id", "statement", "confirmed", [], [], []), "verdict"),
    ]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)


def test_every_public_name_is_the_object_its_submodule_defines():
    for name in rnalg.__all__:
        value = getattr(rnalg, name)
        assert vars(sys.modules[value.__module__])[name] is value, name


def test_star_import_binds_every_public_name_in_a_fresh_interpreter():
    proc = _python("-c", "from rnalg import *; import rnalg; "
                         "print(sum(name in globals() for name in rnalg.__all__))")
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == len(rnalg.__all__) == 61


def test_catalog_stays_the_function_after_the_audit_loads():
    proc = _python("-c", "import rnalg.audit, rnalg; "
                         "assert callable(rnalg.catalog); print(sorted(rnalg.catalog()))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(sorted(catalog()))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rnalg.no_such_name
    assert not hasattr(rnalg, "cli_main")


def test_cli_help_raises_no_warning():
    proc = _python("-W", "error", "-m", "rnalg.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stdout.startswith("usage: rnalg")


# Kept with no caller in src/: queries on the reports callers get back (AuditReport.claim,
# DeformationReport.first_violation), the writer of the operator format the command line
# reads (fileio.dump_linop), the exact value the tests use as an oracle (MPoly.evaluate), and
# the dense structure-constant cube the benchmark's workloads read (Algebra.c).
KEPT_WITHOUT_CALLER = {"claim", "first_violation", "dump_linop", "evaluate", "c"}


def _module_level_names(tree: ast.Module):
    """The Name nodes that a module's top-level assignments bind."""
    for stmt in tree.body:
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name):
                    yield node


def test_every_function_method_and_class_has_a_caller_in_src():
    # a name counts as called if src/ reads it as a name, an attribute or an imported name,
    # and a method only if src/ reads it as an attribute; public names and the names the
    # benchmark's tracer wraps or counts are called from outside the package.  Module-level
    # assignments count as definitions too.
    defined, read, attributes = [], set(), set()
    for path in sorted(Path(rnalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(node.id, f"{path.name}:{node.lineno}", read)
                    for node in _module_level_names(tree)]
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((node.name, f"{path.name}:{node.lineno}",
                                attributes if id(node) in methods else read))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.rpartition(".")[2])
    tracer = _load_tracer()
    traced = {qual.rpartition(".")[2] for table in (tracer.TARGETS, tracer.COUNTED)
              for _, qual in table.values()}
    allowed = set(rnalg.__all__) | traced | KEPT_WITHOUT_CALLER
    assert [(name, where) for name, where, calls in defined
            if name not in calls | allowed
            and not (name.startswith("__") and name.endswith("__"))] == []
