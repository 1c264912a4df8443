"""The traced benchmark run (`bench/run.py --trace 1`) wraps specball
functions and methods by name, as listed in `bench/spans.py`, and reads
fields of the closure reports; a rename in `src/` would break it only when
it runs.  `runpy` reads the file without importing it as a module or
writing bytecode next to it."""

import dataclasses
import importlib
import re
import runpy
from pathlib import Path

from specball.liegen import DegreeReport

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_trace_target_resolves():
    targets = runpy.run_path(str(SPANS))["TARGETS"]
    assert targets
    for name, module, path in targets:
        owner = importlib.import_module(module)
        if "." in path:
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(owner, cls_name)), f"{name}: {module}.{path}"
        else:
            assert callable(getattr(owner, path, None)), f"{name}: {module}.{path}"


def test_report_fields_read_by_the_trace_exist():
    # `Tracer._closure_result` sums these over the reports `closure` returns
    read = set(re.findall(r"\brep\.(\w+)", SPANS.read_text()))
    assert {"brackets_evaluated", "gl_rank"} <= read
    assert read <= {f.name for f in dataclasses.fields(DegreeReport)}
