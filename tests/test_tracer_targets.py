"""Every rnalg name the benchmark's layer trace wraps must still exist."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves_on_rnalg():
    # load the tracer by path without installing it; it wraps nothing until install()
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for table in (tracer.TARGETS, tracer.COUNTED):
        for name, (layer, qual) in table.items():
            module = importlib.import_module(f"rnalg.{layer}")
            owner, _, attr = qual.rpartition(".")
            # a method is patched on its own class, so it must be defined there
            holder = vars(getattr(module, owner)) if owner else vars(module)
            assert callable(holder.get(attr)), (name, qual)
