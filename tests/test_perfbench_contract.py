"""The names the benchmark's span recorder wraps must exist in perigrowth.

`perfbench/spans.py` looks each (module, name) up with getattr when a traced
run starts, so a function renamed or deleted here makes every traced
benchmark run fail.  The file is loaded as it is, never edited.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from perigrowth.decomposition import CoverReport

SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_exists():
    spans = load_spans()
    wrapped = [f for functions, _ in spans.LAYERS.values() for f in functions]
    wrapped += list(spans.CALLS)
    assert wrapped
    for module_name, attr in wrapped:
        module = importlib.import_module(f"perigrowth.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_cover_report_keeps_counted_fields():
    fields = {f.name for f in dataclasses.fields(CoverReport)}
    assert {"covered", "module_sizes"} <= fields
