"""Every name that the benchmark's layer tracer wraps exists in the package,
so that renaming a traced function fails here and not only in the slower
benchmark smoke suite."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_is_present():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = tracing.SPANS + tracing.COUNTERS
    for module in sorted({name.split(".")[0] for name in names}):
        importlib.import_module(f"{tracing.PACKAGE}.{module}")
    tracer = tracing.Tracer(names).install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
