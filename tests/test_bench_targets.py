"""The traced benchmark replay wraps names the program must keep binding."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{name}" for module, name, _, _ in spans.TARGETS
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert spans.TARGETS and not missing, missing
