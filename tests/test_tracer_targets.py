"""The benchmark's layer trace must keep working on rnalg: names and counters."""

from __future__ import annotations

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

from rnalg.exactlin import Matrix, kron, rank

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # load the tracer by path without installing it; it wraps nothing until install()
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _dense_nnz(m: Matrix) -> int:
    return sum(1 for row in m.to_rows() for x in row if x)


def test_every_traced_name_resolves_on_rnalg():
    tracer = _load_tracer()
    for table in (tracer.TARGETS, tracer.COUNTED):
        for name, (layer, qual) in table.items():
            module = importlib.import_module(f"rnalg.{layer}")
            owner, _, attr = qual.rpartition(".")
            # a method is patched on its own class, so it must be defined there
            holder = vars(getattr(module, owner)) if owner else vars(module)
            assert callable(holder.get(attr)), (name, qual)


def test_counter_hooks_read_exact_nonzero_counts():
    tracer = _load_tracer()
    a = Matrix.from_rows([[1, 0, Fraction(-1, 2)], [0, 0, 0]])
    b = Matrix.from_rows([[0, 2], [0, 0], [3, 0]])
    product, k = a.mul(b), kron([a, b])
    for m in (a, b, product, k, a.sub(a)):
        assert tracer._nnz(m) == _dense_nnz(m)
    t = tracer.Tracer()
    t._before_exactlin_mul(a, b)
    t._observe_exactlin_mul(product, a, b)
    t._observe_exactlin_kron(k, [a, b])
    t._observe_exactlin_rank(rank(a), a)
    assert t.mul_nnz == _dense_nnz(a) + _dense_nnz(b) == 4
    assert t.mul_entries_in >= t.mul_nnz
    assert t.mul_entries_out >= _dense_nnz(product) == 2
    assert t.kron_entries_out >= _dense_nnz(k) == 4
    assert (t.rank_max_entries, t.rank_full) == (6, 0)
