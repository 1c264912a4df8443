"""The traced benchmark run (`bench/run.py --trace 1`) wraps specball
functions and methods by name, as listed in `bench/spans.py`, and reads
fields of the closure reports; a rename in `src/` would break it only when
it runs.  `runpy` reads the file without importing it as a module or
writing bytecode next to it."""

import dataclasses
import importlib
import json
import re
import runpy
import sys
from pathlib import Path

from specball import cli, flows
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


def test_flows_counters_are_fed(monkeypatch, tmp_path):
    """A refactor that stops routing the numerics through the traced
    functions would leave their counters at 0 in every traced run."""
    spans = runpy.run_path(str(SPANS))
    # register every name the tracer will replace, so monkeypatch undoes it
    mods = [m for name, m in sys.modules.items() if name.startswith("specball")]
    for _, module, path in spans["TARGETS"]:
        owner = importlib.import_module(module)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            monkeypatch.setattr(cls, attr, cls.__dict__[attr])
            continue
        orig = getattr(owner, path)
        for m in mods:
            for key, val in list(vars(m).items()):
                if val is orig:
                    monkeypatch.setattr(m, key, val)
    tracer = spans["Tracer"]()
    tracer.install()

    word = [{"overshear": {"theta": [1, 2], "f": "x11", "t": [0.3, 0.0]}}, {"transpose": {}}]
    A = [[[0.3, 0.0], [0.2, 0.0]], [[0.1, 0.0], [-0.2, 0.0]]]
    flows.apply_word(flows.word_from_json(word, 2), flows.matrix_from_json(A))
    (tmp_path / "w.json").write_text(json.dumps(word))
    (tmp_path / "A.json").write_text(json.dumps(A))
    assert cli.main(["orbit", "--word", str(tmp_path / "w.json"), "--matrix",
                     str(tmp_path / "A.json"), "--check-fibre",
                     "--out", str(tmp_path / "out.json")]) == 0

    metrics = tracer.metrics()
    for layer in ("flows.char_poly", "flows.poly_roots", "flows.overshear_flow",
                  "flows.eval_poly", "flows.atom_build", "polyring.parse_poly", "cli.main"):
        assert metrics[f"{layer}.calls"]["value"] > 0, layer
    # an overshear atom takes Theta f from the generator table: no field is
    # built or applied while the word is built and applied
    for layer in ("adjointfields.apply", "adjointfields.generator_field"):
        assert metrics[f"{layer}.calls"]["value"] == 0, layer
