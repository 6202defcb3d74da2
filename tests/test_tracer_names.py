"""The benchmark's tracer names package functions, and each of them must still exist."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "mdpbench" / "tracer.py"


def test_every_function_the_tracer_names_exists():
    # tracer.layer_metrics raises KeyError for a named function that the package lacks,
    # so `mdpbench/run.py --trace 1` would crash on one deleted or renamed
    spec = importlib.util.spec_from_file_location("mdpbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    # <layer>.<function>.<statistic>, beside <layer>.self_s and <layer>.<counter>
    functions = {name.rsplit(".", 1)[0] for name, _, _ in tracer.LAYER_METRICS if name.count(".") == 2}
    assert len(functions) > 10
    missing = []
    for name in sorted(functions):
        layer, function = name.split(".")
        if not inspect.isfunction(getattr(importlib.import_module(f"mdpgeom.{layer}"), function, None)):
            missing.append(name)
    assert missing == []
