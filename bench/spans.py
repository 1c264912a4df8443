"""Spans around the calls into each specball layer, for the traced run.

`Tracer.install` replaces the listed functions and methods by wrappers.  A
module that bound a function with `from ... import` holds its own reference,
so the wrapper is installed under every name in every specball module that
refers to the original.  Each call becomes a span (name, start, end,
parent); spans stay in memory and `write` saves them when the run ends.
Calls and self time (span time minus the time of its child spans) are
accumulated per name in the same wrapper.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# metric prefix -> (module, attribute path); several targets may share a prefix
TARGETS = [
    ("polyring.mul", "specball.polyring", "Polynomial.__mul__"),
    ("polyring.add", "specball.polyring", "Polynomial.__add__"),
    ("polyring.partial", "specball.polyring", "Polynomial.partial"),
    ("polyring.substitute_trace", "specball.polyring", "substitute_trace"),
    ("polyring.parse_poly", "specball.polyring", "parse_poly"),
    ("adjointfields.bracket", "specball.adjointfields", "bracket"),
    ("adjointfields.apply", "specball.adjointfields", "VectorField.apply"),
    ("adjointfields.scale_field", "specball.adjointfields", "scale_field"),
    ("adjointfields.generator_field", "specball.adjointfields", "generator_field"),
    ("liegen.closure", "specball.liegen", "closure"),
    ("liegen.vectorize", "specball.liegen", "vectorize"),
    ("liegen.vectorize", "specball.liegen", "_SlProjector.vector"),
    ("liegen.certify", "specball.liegen", "_certify_degree"),
    ("liegen.verify_identity", "specball.liegen", "verify_identity"),
    ("linalg.exact_reduce", "specball.linalg", "ExactRowSpace.reduce"),
    ("linalg.mod_reduce", "specball.linalg", "ModularRowSpace.reduce"),
    ("linalg.clear_denominators", "specball.linalg", "clear_denominators"),
    ("linalg.matmul", "specball.linalg", "SparseMatrix.__matmul__"),
    ("kernelgrowth.restrict", "specball.kernelgrowth", "LinearDerivation.restrict"),
    ("kernelgrowth.kernel_dim", "specball.kernelgrowth", "kernel_dim_with_method"),
    ("kernelgrowth.jet_inequality", "specball.kernelgrowth", "jet_inequality"),
    ("kernelgrowth.weight_table", "specball.kernelgrowth", "weight_kernel_table"),
    ("flows.char_poly", "specball.flows", "char_poly"),
    ("flows.poly_roots", "specball.flows", "poly_roots"),
    ("flows.spectral_radius", "specball.flows", "spectral_radius"),
    ("flows.atom_build", "specball.flows", "atom_from_json"),
    ("flows.moebius", "specball.flows", "moebius"),
    ("flows.eval_poly", "specball.flows", "eval_poly_at_matrix"),
    ("flows.overshear_flow", "specball.flows", "overshear_flow"),
    ("cli.main", "specball.cli", "main"),
]

# the per-layer metrics reported (BENCHMARK.json lists the same names)
METRICS = [
    "polyring.mul.calls", "polyring.mul.self_s",
    "polyring.add.calls", "polyring.add.self_s",
    "polyring.partial.calls", "polyring.partial.self_s",
    "polyring.substitute_trace.calls", "polyring.substitute_trace.self_s",
    "polyring.parse_poly.calls", "polyring.parse_poly.self_s",
    "adjointfields.bracket.calls", "adjointfields.bracket.self_s",
    "adjointfields.apply.calls", "adjointfields.apply.self_s",
    "adjointfields.scale_field.calls", "adjointfields.scale_field.self_s",
    "adjointfields.generator_field.calls", "adjointfields.generator_field.self_s",
    "liegen.closure.self_s",
    "liegen.vectorize.calls", "liegen.vectorize.self_s",
    "liegen.certify.self_s",
    "liegen.verify_identity.self_s",
    "liegen.brackets", "liegen.accepted", "liegen.accept_ratio",
    "linalg.exact_reduce.calls", "linalg.exact_reduce.self_s",
    "linalg.clear_denominators.calls", "linalg.clear_denominators.self_s",
    "linalg.mod_reduce.calls", "linalg.mod_reduce.self_s",
    "linalg.matmul.calls", "linalg.matmul.self_s",
    "kernelgrowth.restrict.calls", "kernelgrowth.restrict.self_s",
    "kernelgrowth.kernel_dim.calls", "kernelgrowth.kernel_dim.self_s",
    "kernelgrowth.jet_inequality.self_s",
    "kernelgrowth.weight_table.calls",
    "flows.char_poly.calls", "flows.char_poly.self_s",
    "flows.poly_roots.calls", "flows.poly_roots.self_s",
    "flows.spectral_radius.self_s",
    "flows.atom_build.calls", "flows.atom_build.self_s",
    "flows.moebius.calls", "flows.moebius.self_s",
    "flows.eval_poly.calls", "flows.eval_poly.self_s",
    "flows.overshear_flow.calls", "flows.overshear_flow.self_s",
    "cli.main.calls", "cli.main.self_s",
    "trace.overhead_s",
]


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("accept_ratio") else "count"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("q")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.brackets = 0
        self.accepted = 0
        self._stack: list[list] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self.names.index(name)

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        stack, starts, ends = self._stack, self.starts, self.ends
        name_ids, parents, calls, self_s = self.name_ids, self.parents, self.calls, self.self_s
        clock = time.perf_counter
        on_result = self._closure_result if name == "liegen.closure" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1][0] if stack else -1)
            name_ids.append(nid)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def _closure_result(self, result):
        for rep in result.reports.values():
            self.brackets += rep.brackets_evaluated
            self.accepted += rep.gl_rank

    def install(self):
        """Wrap every target; specball must be imported in full first."""
        mods = [m for name, m in sys.modules.items()
                if name == "specball" or name.startswith("specball.")]
        for name, module, path in TARGETS:
            owner = importlib.import_module(module)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self._wrap(name, cls.__dict__[attr]))
                continue
            orig = getattr(owner, path)
            wrapped = self._wrap(name, orig)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

    def metrics(self) -> dict:
        """Every per-layer metric but trace.overhead_s, which needs an
        untraced round; a layer the workload never calls reads 0."""
        out = {}
        for metric in METRICS:
            if metric == "liegen.brackets":
                value = self.brackets
            elif metric == "liegen.accepted":
                value = self.accepted
            elif metric == "liegen.accept_ratio":
                value = self.accepted / self.brackets if self.brackets else 0.0
            elif metric == "trace.overhead_s":
                continue
            else:
                layer, kind = metric.rsplit(".", 1)
                i = self.names.index(layer)
                value = self.calls[i] if kind == "calls" else self.self_s[i]
            out[metric] = {"value": value, "unit": unit(metric)}
        return out

    def write(self, path: str):
        np.savez_compressed(path, names=np.array(self.names),
                            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
                            parent=np.frombuffer(self.parents, dtype=np.int64),
                            start=np.frombuffer(self.starts, dtype=np.float64),
                            end=np.frombuffer(self.ends, dtype=np.float64))
