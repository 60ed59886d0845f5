"""Every function that the benchmark's tracer wraps must exist in quiverk3.

``perfbench/spans.py`` names its targets as (module, attribute) pairs and
patches them by name, so deleting or renaming one of them breaks
``perfbench/run.py --trace 1``. This test reads the list and resolves each
name the way the tracer does; it changes nothing under ``perfbench/``.
"""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = []
    for mod_name, attr, _ in spans.TARGETS:
        home = importlib.import_module(f"quiverk3.{mod_name}")
        if "." in attr:  # a method, patched on its class
            cls_name, meth = attr.split(".")
            found = meth in getattr(getattr(home, cls_name, None), "__dict__", {})
        else:
            found = callable(getattr(home, attr, None))
        if not found:
            missing.append(f"{mod_name}.{attr}")
    assert not missing, f"perfbench/spans.py TARGETS missing from quiverk3: {missing}"
