"""Layer trace taken from outside the program.

`Tracer.install()` wraps the public entry points of every rnalg module
named in TARGETS.  A module-level function is rebound in every rnalg.*
module that holds the same object, because `cohomology`, `deformation`
and `audit` bind `rank`, `kernel_basis` and friends with
`from .exactlin import ...`; a method is patched on its class.  Each call
records a span (name, start, end, parent span, task id) in memory; the
spans are written out when the run ends and the per-layer metrics are
derived from them.  A span's self time is its duration minus the time its
direct child spans and the tracer's counter hooks cover.  Hot accessors (`Matrix.at`, `Matrix.apply`,
...) are not wrapped; `MPoly.leading_monomial` and `ComplexBuilder.amb`
are counted without a span.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# span name -> (rnalg module, qualified name); the module is the layer
TARGETS = {
    "exactlin.mul": ("exactlin", "Matrix.mul"),
    "exactlin.add": ("exactlin", "Matrix.add"),
    "exactlin.sub": ("exactlin", "Matrix.sub"),
    "exactlin.scale": ("exactlin", "Matrix.scale"),
    "exactlin.transpose": ("exactlin", "Matrix.transpose"),
    "exactlin.hstack": ("exactlin", "Matrix.hstack"),
    "exactlin.vstack": ("exactlin", "Matrix.vstack"),
    "exactlin.kron": ("exactlin", "kron"),
    "exactlin.rank": ("exactlin", "rank"),
    "exactlin.rref": ("exactlin", "rref"),
    "exactlin.kernel_basis": ("exactlin", "kernel_basis"),
    "exactlin.solve": ("exactlin", "solve"),
    "algebra.multiply": ("algebra", "Algebra.multiply"),
    "algebra.check_operator": ("algebra", "check_operator"),
    "algebra.check_associative": ("algebra", "check_associative"),
    "algebra.star_product": ("algebra", "star_product"),
    "algebra.check_morphism": ("algebra", "check_morphism"),
    "algebra.classify_square": ("algebra", "classify_square"),
    "polysys.build_identity_system": ("polysys", "build_identity_system"),
    "polysys.linear_reduce": ("polysys", "linear_reduce"),
    "polysys.groebner_basis": ("polysys", "groebner_basis"),
    "polysys.reduce_poly": ("polysys", "reduce_poly"),
    "polysys.s_polynomial": ("polysys", "s_polynomial"),
    "polysys.enumerate_mod_p": ("polysys", "enumerate_mod_p"),
    "polysys.verify_family": ("polysys", "verify_family"),
    "representation.regular_representation": ("representation", "regular_representation"),
    "representation.check_bimodule": ("representation", "check_bimodule"),
    "representation.check_rn_representation": ("representation", "check_rn_representation"),
    "representation.induce_representation": ("representation", "induce_representation"),
    "cohomology.cohomology_dims": ("cohomology", "cohomology_dims"),
    "cohomology.delta": ("cohomology", "ComplexBuilder.delta"),
    "cohomology.psi": ("cohomology", "ComplexBuilder.psi"),
    "cohomology.rno_basis": ("cohomology", "ComplexBuilder.rno_basis"),
    "cohomology.d_ambient": ("cohomology", "ComplexBuilder.d_ambient"),
    "cohomology.d": ("cohomology", "ComplexBuilder.d"),
    "cohomology.d_square_residual": ("cohomology", "ComplexBuilder.d_square_residual"),
    "cohomology.psi_delta_residual": ("cohomology", "ComplexBuilder.psi_delta_residual"),
    "cohomology.image_closed": ("cohomology", "ComplexBuilder.image_closed"),
    "deformation.check_deformation": ("deformation", "check_deformation"),
    "deformation.order_residuals": ("deformation", "order_residuals"),
    "deformation.check_equivalence": ("deformation", "check_equivalence"),
    "deformation.infinitesimal_cocycle": ("deformation", "infinitesimal_cocycle"),
    "deformation.same_cohomology_class": ("deformation", "same_cohomology_class"),
    "deformation.rigidity_report": ("deformation", "rigidity_report"),
    "audit.run_audit": ("audit", "run_audit"),
    "cli.main": ("cli", "main"),
}

ELEMENTWISE = ("add", "sub", "scale", "transpose", "hstack", "vstack")
FILEIO_LOAD_PREFIXES = ("load_",)
FILEIO_LOAD_NAMES = ("read_json",)
FILEIO_DUMP_PREFIXES = ("dump_",)
FILEIO_DUMP_NAMES = ("canonical_json", "write_json")

# counter name -> (rnalg module, qualified name), counted without a span
COUNTED = {
    "polysys.leading_monomial": ("polysys", "MPoly.leading_monomial"),
    "cohomology.amb": ("cohomology", "ComplexBuilder.amb"),
}

LAYERS = ("exactlin", "algebra", "polysys", "representation", "cohomology",
          "deformation", "audit", "fileio", "cli")


def _nnz(m) -> int:
    return sum(1 for x in m.entries if x)


class Tracer:
    """Wraps rnalg entry points; collects spans and counters for one run."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []  # (name id, start, end, parent index, task id)
        self.stack: list[int] = []
        self.hidden: dict[int, float] = {}  # span index -> time spent in counter hooks
        self.task = ""
        self.counts = {name: 0 for name in COUNTED}
        self.max_amb = 0
        self.mul_nnz = 0
        self.mul_entries_in = 0
        self.mul_entries_out = 0
        self.kron_entries_out = 0
        self.rank_max_entries = 0
        self.rank_full = 0
        self.terms = 0
        self.pairs_processed = 0
        self.enum_points = 0
        self.enum_solutions = 0
        self.bytes_out = 0
        self._restore: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import rnalg.cli  # noqa: F401  (with the package, loads every submodule)

        mods = {name: mod for name, mod in sys.modules.items()
                if name == "rnalg" or name.startswith("rnalg.")}
        for span, (layer, qual) in TARGETS.items():
            self._wrap(mods, f"rnalg.{layer}", qual, self._span_wrapper(span))
        fileio = mods["rnalg.fileio"]
        for attr in sorted(vars(fileio)):
            fn = getattr(fileio, attr)
            if not callable(fn) or getattr(fn, "__module__", None) != "rnalg.fileio":
                continue
            if attr.startswith(FILEIO_LOAD_PREFIXES) or attr in FILEIO_LOAD_NAMES:
                self._wrap(mods, "rnalg.fileio", attr, self._span_wrapper("fileio.load"))
            elif (attr.startswith(FILEIO_DUMP_PREFIXES) or attr.endswith("_dict")
                  or attr in FILEIO_DUMP_NAMES):
                self._wrap(mods, "rnalg.fileio", attr, self._span_wrapper("fileio.dump"))
        for counter, (layer, qual) in COUNTED.items():
            self._wrap(mods, f"rnalg.{layer}", qual, self._count_wrapper(counter))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def _wrap(self, mods: dict, modname: str, qual: str, make) -> None:
        mod = mods[modname]
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, make(original, qual))
            return
        original = getattr(mod, qual)
        wrapper = make(original, qual)
        for holder in mods.values():
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._restore.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    # -- wrappers ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _span_wrapper(self, span: str):
        observe = getattr(self, "_observe_" + span.replace(".", "_"), None)
        before = getattr(self, "_before_" + span.replace(".", "_"), None)

        def make(fn, qual):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                parent = self.stack[-1] if self.stack else -1
                if before is not None:
                    self._hook(parent, before, *args, **kwargs)
                name = self._name_id(span)
                idx = len(self.spans)
                self.spans.append(None)
                self.stack.append(idx)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self.stack.pop()
                    self.spans[idx] = (name, start, end, parent, self.task)
                if observe is not None:
                    self._hook(parent, observe, result, *args, **kwargs)
                return result
            return wrapper
        return make

    def _hook(self, parent: int, fn, *args, **kwargs) -> None:
        """Run a counter hook; its time is the tracer's, not the parent span's."""
        t0 = time.perf_counter()
        fn(*args, **kwargs)
        if parent >= 0:
            self.hidden[parent] = self.hidden.get(parent, 0.0) + time.perf_counter() - t0

    def _count_wrapper(self, counter: str):
        def make(fn, qual):
            if counter == "cohomology.amb":
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    self.counts[counter] += 1
                    result = fn(*args, **kwargs)
                    if result > self.max_amb:
                        self.max_amb = result
                    return result
                return wrapper

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counts[counter] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    # counters read at layer boundaries, outside the span's clock

    def _before_exactlin_mul(self, a, b):
        self.mul_nnz += _nnz(a) + _nnz(b)
        self.mul_entries_in += len(a.entries) + len(b.entries)

    def _observe_exactlin_mul(self, result, *args, **kwargs):
        self.mul_entries_out += len(result.entries)

    def _observe_exactlin_kron(self, result, *args, **kwargs):
        self.kron_entries_out += len(result.entries)

    def _observe_exactlin_rank(self, result, m, *args, **kwargs):
        self.rank_max_entries = max(self.rank_max_entries, m.rows * m.cols)
        if result == min(m.rows, m.cols):
            self.rank_full += 1

    def _observe_polysys_build_identity_system(self, result, *args, **kwargs):
        self.terms += sum(len(e.poly.terms) for e in result.entries)

    def _observe_polysys_groebner_basis(self, result, *args, **kwargs):
        self.pairs_processed += result.pairs_processed

    def _observe_polysys_enumerate_mod_p(self, result, a, kind, p):
        self.enum_points += p ** (a.dim * a.dim)
        self.enum_solutions += len(result.solutions)

    def _observe_fileio_dump(self, result, *args, **kwargs):
        if isinstance(result, str):  # canonical_json: the bytes a report takes
            self.bytes_out += len(result.encode("utf-8"))

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """span name -> (calls, self seconds), from the recorded spans."""
        child = [self.hidden.get(idx, 0.0) for idx in range(len(self.spans))]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            slot = out.setdefault(self.names[name], [0, 0.0])
            slot[0] += 1
            slot[1] += (end - start) - child[idx]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: name -> (value, unit)."""
        st = self.self_times()

        def calls(name):
            return st.get(name, (0, 0.0))[0]

        def self_s(name):
            return st.get(name, (0, 0.0))[1]

        out: dict[str, tuple[float, str]] = {}
        for short in ("mul", "kron", "rank", "kernel_basis", "solve"):
            out[f"exactlin.{short}.calls"] = (calls(f"exactlin.{short}"), "count")
            out[f"exactlin.{short}.self_s"] = (self_s(f"exactlin.{short}"), "s")
        out["exactlin.mul.nnz_frac"] = (
            self.mul_nnz / self.mul_entries_in if self.mul_entries_in else 0.0, "ratio")
        out["exactlin.mul.entries_out"] = (self.mul_entries_out, "count")
        out["exactlin.kron.entries_out"] = (self.kron_entries_out, "count")
        out["exactlin.rank.max_entries"] = (self.rank_max_entries, "count")
        rank_calls = calls("exactlin.rank")
        out["exactlin.rank.full_frac"] = (
            self.rank_full / rank_calls if rank_calls else 0.0, "ratio")
        out["exactlin.elementwise.calls"] = (
            sum(calls(f"exactlin.{s}") for s in ELEMENTWISE), "count")
        out["exactlin.elementwise.self_s"] = (
            sum(self_s(f"exactlin.{s}") for s in ELEMENTWISE), "s")
        for short in ("multiply", "check_operator", "check_associative", "star_product"):
            out[f"algebra.{short}.calls"] = (calls(f"algebra.{short}"), "count")
            out[f"algebra.{short}.self_s"] = (self_s(f"algebra.{short}"), "s")
        for short in ("build_identity_system", "linear_reduce", "groebner_basis",
                      "reduce_poly", "s_polynomial", "enumerate_mod_p"):
            out[f"polysys.{short}.calls"] = (calls(f"polysys.{short}"), "count")
            out[f"polysys.{short}.self_s"] = (self_s(f"polysys.{short}"), "s")
        out["polysys.build_identity_system.terms"] = (self.terms, "count")
        out["polysys.groebner_basis.pairs_processed"] = (self.pairs_processed, "count")
        out["polysys.leading_monomial.calls"] = (
            self.counts["polysys.leading_monomial"], "count")
        enum_s = self_s("polysys.enumerate_mod_p")
        out["polysys.enumerate_mod_p.points"] = (self.enum_points, "count")
        out["polysys.enumerate_mod_p.points_per_s"] = (
            self.enum_points / enum_s if enum_s else 0.0, "1/s")
        out["polysys.enumerate_mod_p.solutions"] = (self.enum_solutions, "count")
        for short in ("regular_representation", "check_bimodule",
                      "check_rn_representation", "induce_representation"):
            out[f"representation.{short}.calls"] = (calls(f"representation.{short}"), "count")
            out[f"representation.{short}.self_s"] = (self_s(f"representation.{short}"), "s")
        for short in ("cohomology_dims", "delta", "psi", "rno_basis", "d_ambient", "d",
                      "d_square_residual", "psi_delta_residual", "image_closed"):
            out[f"cohomology.{short}.calls"] = (calls(f"cohomology.{short}"), "count")
            out[f"cohomology.{short}.self_s"] = (self_s(f"cohomology.{short}"), "s")
        out["cohomology.max_amb"] = (self.max_amb, "count")
        for short in ("check_deformation", "order_residuals", "check_equivalence",
                      "infinitesimal_cocycle", "same_cohomology_class", "rigidity_report"):
            out[f"deformation.{short}.calls"] = (calls(f"deformation.{short}"), "count")
            out[f"deformation.{short}.self_s"] = (self_s(f"deformation.{short}"), "s")
        out["audit.run_audit.calls"] = (calls("audit.run_audit"), "count")
        out["audit.run_audit.self_s"] = (self_s("audit.run_audit"), "s")
        for short in ("load", "dump"):
            out[f"fileio.{short}.calls"] = (calls(f"fileio.{short}"), "count")
            out[f"fileio.{short}.self_s"] = (self_s(f"fileio.{short}"), "s")
        out["fileio.bytes_out"] = (self.bytes_out, "count")
        out["cli.main.calls"] = (calls("cli.main"), "count")
        out["cli.main.self_s"] = (self_s("cli.main"), "s")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (
                sum(v[1] for k, v in st.items() if k.split(".")[0] == layer), "s")
        return out

    def write_spans(self, path: str) -> None:
        """One JSON array per line: name, start, end, parent span, task id."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, task in self.spans:
                fh.write(json.dumps([self.names[name], round(start, 9), round(end, 9),
                                     parent, task]))
                fh.write("\n")
