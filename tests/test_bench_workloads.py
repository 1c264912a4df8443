"""Every operation of the three benchmark workloads, run once and checked by
the workload's own oracle.  The checks read the public data of specball
(`Monomial.powers`, `Polynomial.terms`, `VectorField.components`, the CLI
reports), so a change that breaks them fails here, not only as incorrect
outputs in a benchmark run.  The bench modules are imported from `bench/`
without writing bytecode next to them."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("name", ["closure", "slices", "flows"])
def test_bench_workload_checks_pass(monkeypatch, tmp_path, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        workloads = importlib.import_module("workloads")
        ops = workloads.build(name, 3, tmp_path).ops
        assert ops
        problems = [f"{op.label}: {err}" for op in ops
                    if (err := op.check(op.call())) is not None]
    finally:
        for module in ("workloads", "oracles"):
            sys.modules.pop(module, None)
    assert problems == []
