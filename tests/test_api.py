"""Names that code outside the package looks up by string.

``from trfuse import *`` reads ``trfuse.__all__``, and the benchmark's tracer
replaces the functions listed in ``bench/spans.py``'s ``TRACED`` table by
module and attribute name. Deleting or renaming one of those names breaks
them only at run time, so this suite checks that every one resolves.
"""

import importlib
import importlib.util
from pathlib import Path

import trfuse

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_exported_and_traced_names_resolve():
    missing = [name for name in trfuse.__all__ if not hasattr(trfuse, name)]
    assert not missing, f"trfuse.__all__ names that do not resolve: {missing}"

    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = [f"{module}.{attr}" for module, attr, *_ in spans.TRACED
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing, f"bench/spans.py traces names that do not exist: {missing}"
