"""The traced benchmark run reads the closure's time through the spans that
`bench/spans.py` puts around `liegen.closure` and `liegen._certify_degree`.
A refactor that moved the closure off those names would leave them at 0 in
every traced run; these tests run `generate` under the installed tracer."""

import importlib
import os
import runpy
import sys
from pathlib import Path

from specball import cli

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_closure_counters_are_fed(monkeypatch):
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

    assert cli.main(["generate", "--n", "2", "--max-degree", "2", "--out", os.devnull]) == 0

    metrics = tracer.metrics()
    calls = dict(zip(tracer.names, tracer.calls))
    assert calls["liegen.closure"] == 1 and calls["liegen.certify"] == 3
    for layer in ("liegen.closure", "liegen.certify"):
        assert metrics[f"{layer}.self_s"]["value"] > 0, layer
    # grade 2 takes no bracket and keeps no vector: the lemmas prove it
    assert metrics["liegen.brackets"]["value"] == 6 + 0
    assert metrics["liegen.accepted"]["value"] == 3 + 9 + 0
    # the seeds are read off the generator tables and the closure brackets
    # integer vectors: no polynomial or field is built, bracketed, scaled or
    # projected, at n = 2 or n = 3
    assert cli.main(["generate", "--n", "3", "--max-degree", "2", "--out", os.devnull]) == 0
    metrics = tracer.metrics()
    idle = [name[:-len(".calls")] for name in metrics
            if name.startswith(("polyring.", "adjointfields.")) and name.endswith(".calls")]
    assert len(idle) == 9
    for layer in idle + ["liegen.vectorize", "linalg.exact_reduce"]:
        assert metrics[f"{layer}.calls"]["value"] == 0, layer
