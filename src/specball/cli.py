"""Command-line entry point for the verification suites and experiments.

Exit codes: 0 success, 2 usage error, 3 resource budget exhausted,
4 precondition violated, 5 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time
from importlib import resources

import numpy as np

from . import flows, kernelgrowth, liegen
from .adjointfields import emit_tables, generator_field, generator_ids, render_tables_text
from .polyring import parse_poly

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_PRECONDITION = 4
EXIT_VERIFICATION = 5

# the largest upper end of --m: a table to degree m holds weight counts of
# about m^2 log m bits, and `kernels` for n = 3 took about 0.3 s and 62 MB at
# m = 1000 (whole process, one CPU of a 2-CPU virtual machine)
MAX_DEGREE = 1000


def _write_output(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    # created with mode 0o666 less the umask, as open() would create the
    # report itself; mkstemp's 0o600 would outlive the rename
    tmp = os.path.join(os.path.dirname(os.path.abspath(out_path)),
                       f".specball-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            # one write, unless the system takes fewer bytes than asked
            view = memoryview(text.encode())
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _report(config: dict, payload: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "config": config, **payload}


_compact = json.JSONEncoder(separators=(",", ":")).encode


def _report_text(report: dict) -> str:
    """A JSON report with one top-level key per line and each value written
    compactly.  Without `indent` json encodes in C; with it, in Python."""
    return "{\n" + ",\n".join(f"  {_compact(k)}: {_compact(v)}" for k, v in report.items()) + "\n}"


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
    else:
        lo = hi = int(text)
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    if lo < 0:
        raise ValueError("degree must be non-negative")
    if hi > MAX_DEGREE:
        raise ValueError(f"degree {hi} is above the maximum --m of {MAX_DEGREE}")
    return lo, hi


def _csv_text(header: list[str], rows: list[list], config: dict) -> str:
    buf = io.StringIO()
    buf.write("# config: " + json.dumps({"schema_version": SCHEMA_VERSION, **config},
                                        sort_keys=True) + "\n")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# tables


def _golden_tables() -> dict:
    with resources.files("specball.data").joinpath("sl3_adjoint_tables.json").open() as fh:
        return json.load(fh)


def _table_structure(report: dict):
    """Order-insensitive structural form: parsed component polynomials and
    parsed action entries."""
    n = report["n"]
    gens = {}
    for entry in report["generators"]:
        gens[entry["generator"]] = {
            c["var"]: parse_poly(c["poly"], n) for c in entry["components"]}
    action = {}
    for var, row in zip(report["variables"], report["action"]):
        for gen, cell in zip(report["generator_order"], row):
            action[(var, gen)] = parse_poly(cell, n)
    return gens, action


def cmd_tables(args) -> int:
    config = {"command": "tables", "n": args.n, "format": args.format}
    report = emit_tables(args.n)
    matched = None
    if args.n == 3:
        # the emitted tables are the reference, key for key, so the parsed
        # structures are compared only when the JSON differs
        golden = _golden_tables()
        matched = report == golden or _table_structure(report) == _table_structure(golden)
    payload = _report(config, {"tables": report, "golden_match": matched})
    if args.format == "text":
        text = render_tables_text(report)
        if matched is not None:
            text += f"\n\ngolden_match: {matched}"
        _write_output(text, args.out)
    else:
        _write_output(_report_text(payload), args.out)
    if matched is False:
        return EXIT_VERIFICATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# identity verification


def cmd_verify(args) -> int:
    names = liegen.identity_names()
    if args.all:
        selected = names
    else:
        if args.id not in names:
            print(f"error: unknown identity id {args.id!r}; known: {', '.join(names)}",
                  file=sys.stderr)
            return EXIT_USAGE
        selected = [args.id]
    config = {"command": "verify", "n": args.n, "ids": selected, "seed": args.seed}
    results = [liegen.verify_identity(name, args.n, seed=args.seed) for name in selected]
    payload = _report(config, {"identities": [vars(r) for r in results]})
    if args.format == "text":
        lines = [f"{r.identity}: {'pass' if r.holds else 'FAIL'}"
                 f" (matches_printed={r.matches_printed})" for r in results]
        _write_output("\n".join(lines), args.out)
    else:
        _write_output(_report_text(payload), args.out)
    return EXIT_OK if all(r.holds for r in results) else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# generation closure


def cmd_generate(args) -> int:
    config = {"command": "generate", "n": args.n, "max_degree": args.max_degree,
              "method": args.method, "budget_ms": args.budget_ms,
              "budget_brackets": args.budget_brackets}
    # building the seeds is charged to --budget-ms: the closure gets what remains
    start = time.monotonic()
    seeds = liegen.build_seeds(args.n)
    budget_ms = (None if args.budget_ms is None
                 else args.budget_ms - (time.monotonic() - start) * 1000.0)
    result = liegen.closure(seeds, args.max_degree, budget_ms=budget_ms,
                            budget_brackets=args.budget_brackets)
    degrees = []
    for d in sorted(result.reports):
        rep = result.reports[d]
        degrees.append({
            "n": rep.n, "degree": rep.grade, "method": rep.method, "operands": rep.operands,
            "target_rank": rep.target_rank, "achieved_rank": rep.achieved_rank,
            "missing_witnesses": rep.missing_witnesses,
            "sl_component_rank": rep.sl_rank,
            "sl_target_component_rank": rep.sl_target_component_rank,
            "gl_component_rank": rep.gl_rank,
            "brackets_evaluated": rep.brackets_evaluated,
            "brackets_skipped": rep.brackets_skipped,
            "blocks": rep.blocks, "blocks_computed": rep.blocks_computed,
            "prime": rep.prime, "relation_rank": rep.relation_rank,
            "certified": rep.certified, "complete": rep.complete,
        })
    payload = _report(config, {"degrees": degrees, "complete": result.complete})
    _write_output(_report_text(payload), args.out)
    if not result.complete:
        return EXIT_RESOURCE
    if not all(d["certified"] for d in degrees):
        return EXIT_VERIFICATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# kernels / growth / jets


def _field_by_name(name: str, n: int):
    """The generator field labelled name (xi1, theta12, theta[10,2], ...)."""
    if n < 2:
        raise ValueError(f"a generator field needs n >= 2, got n={n}")
    gens = {g.label(): g for g in generator_ids(n)}
    name = name.lower()
    if name not in gens:
        raise ValueError(f"unknown field {name!r} for n={n}; known: {', '.join(gens)}")
    return generator_field(n, gens[name]), name


def cmd_kernels(args) -> int:
    lo, hi = _parse_range(args.m)
    field, fname = _field_by_name(args.field, args.n)
    config = {"command": "kernels", "n": args.n, "field": fname, "m": args.m}
    der = kernelgrowth.LinearDerivation.from_vector_field(field)
    table, method, degree = kernelgrowth.kernel_dim_with_method(der, hi)
    # weight_dp: the weight-zero count, which is dim_ker itself for diagonal fields
    rows = [[args.n, fname, m, kernelgrowth.slice_dim(der.nvars, m), k1, k2, method,
             k1 if method == "weights" else "", degree]
            for m, (k1, k2) in enumerate(table[lo:], start=lo)]
    header = ["n", "field", "m", "slice_dim", "dim_ker", "dim_ker_sq",
              "method", "weight_dp", "degree"]
    _write_output(_csv_text(header, rows, config), args.out)
    return EXIT_OK


def cmd_growth(args) -> int:
    lo, hi = _parse_range(args.m)
    if args.chain:
        if lo < 1:
            raise ValueError("the chain table starts at m = 1")
        config = {"command": "growth", "chain": True, "m": args.m}
        records = kernelgrowth.chain_kernel_dims(hi)
        records = [r for r in records if lo <= r.m <= hi]
        violated = [r.m for r in records if r.dim_ker > 3 * r.m]
        rows = [[3, "chain", r.m, r.slice_dim, r.dim_ker, r.dim_ker_sq, r.method,
                 3 * r.m, r.dim_ker <= 3 * r.m] for r in records]
        header = ["nvars", "field", "m", "slice_dim", "dim_ker", "dim_ker_sq",
                  "method", "bound_3m", "within_bound"]
        _write_output(_csv_text(header, rows, config), args.out)
        return EXIT_VERIFICATION if violated else EXIT_OK
    field, fname = _field_by_name(args.field, args.n)
    config = {"command": "growth", "n": args.n, "field": fname, "m": args.m}
    records, degree = kernelgrowth.growth_table(field, hi)
    records = [r for r in records if lo <= r.m <= hi]
    rows = [[args.n, fname, r.m, r.slice_dim, r.dim_ker, r.dim_ker_sq, r.method, degree]
            for r in records]
    header = ["n", "field", "m", "slice_dim", "dim_ker", "dim_ker_sq",
              "method", "degree"]
    _write_output(_csv_text(header, rows, config), args.out)
    return EXIT_OK


def cmd_jets(args) -> int:
    lo, hi = _parse_range(args.m)
    config = {"command": "jets", "n": args.n, "k": args.k, "m": args.m,
              "cumulative": args.cumulative}
    report = kernelgrowth.jet_inequality(args.n, args.k, hi, cumulative=args.cumulative)
    rows = [[r.m, r.lhs, r.rhs, r.holds] for r in report.rows if lo <= r.m <= hi]
    header = ["m", "lhs_jet_dim", "rhs_k_max_kernel", "holds"]
    text = _csv_text(header, rows, config)
    text += f"# crossover_m0: {report.crossover_m}\n"
    _write_output(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# orbit


def cmd_orbit(args) -> int:
    config = {"command": "orbit", "word": args.word, "matrix": args.matrix,
              "check_fibre": args.check_fibre}
    with open(args.matrix) as fh:
        A = flows.matrix_from_json(json.load(fh))
    with open(args.word) as fh:
        word = flows.word_from_json(json.load(fh), A.shape[0])
    fc0 = flows.char_poly(A)
    if not flows.in_symmetrized_polydisc(fc0):
        print("error: input matrix is not in the spectral ball", file=sys.stderr)
        return EXIT_PRECONDITION
    points = list(flows.word_trajectory(word, A))
    X = points[-1]
    fc1 = flows.char_poly(X)
    non_moebius = all(not isinstance(a, flows.Moebius) for a in word)
    drift = None
    if args.check_fibre and non_moebius:
        drift = float(np.max(np.abs(np.array(fc1.pi) - np.array(fc0.pi)))) if len(fc0) else 0.0
    trajectory = [flows.matrix_to_json(P) for P in points]
    payload = _report(config, {
        "n": A.shape[0],
        "result": trajectory[-1],
        "trajectory": trajectory,
        "in_ball": flows.in_symmetrized_polydisc(fc1),
        "fibre_drift": drift,
    })
    _write_output(_report_text(payload), args.out)
    if args.check_fibre and non_moebius and drift is not None and drift >= 1e-8:
        return EXIT_VERIFICATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _bounded(kind, low: float, strict: bool = False):
    """argparse type: a `kind` value of at least `low`, or above it if strict."""
    def parse(text: str):
        value = kind(text)
        if value < low or (strict and not value > low):
            raise argparse.ArgumentTypeError(f"must be {'>' if strict else '>='} {low}, got {text}")
        return value
    parse.__name__ = kind.__name__
    return parse


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The `specball` parser and its subcommand parsers by name, built on
    first use and shared by every later `main` call in the process (parsing
    leaves them unchanged)."""
    ap = argparse.ArgumentParser(prog="specball",
                                 description=__doc__.strip().splitlines()[0])
    # argparse names the subcommand by its dest when it is missing
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, n_default=None):
        p.add_argument("--out", default=None, help="output path (atomic write)")
        if n_default is not None:
            p.add_argument("--n", type=int, default=n_default)

    p = sub.add_parser("tables", help="emit generator and action tables")
    common(p, n_default=3)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("verify", help="check the bracket identity catalog")
    common(p, n_default=2)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the randomized identity instances")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--all", action="store_true")
    g.add_argument("--id", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="bracket-closure of the overshear seeds")
    common(p, n_default=2)
    p.add_argument("--max-degree", type=_bounded(int, 0), required=True)
    p.add_argument("--method", choices=["auto", "exact", "modular"], default="auto",
                   help="no effect: every grade has the pair-coordinate certificate")
    p.add_argument("--budget-ms", type=_bounded(float, 0, strict=True), default=None,
                   help="time budget of grades 0-1; grades >= 2 take no bracket")
    p.add_argument("--budget-brackets", type=_bounded(int, 0), default=None,
                   help="bracket budget of grades 0-1; grades >= 2 take no bracket")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("kernels", help="kernel dimensions on homogeneous slices")
    common(p, n_default=2)
    p.add_argument("--field", required=True, help="xi1, xi2, theta12, ...")
    p.add_argument("--m", required=True, help="degree range, e.g. 0..6")
    p.set_defaults(func=cmd_kernels)

    p = sub.add_parser("growth", help="kernel growth tables")
    common(p, n_default=2)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--chain", action="store_true",
                   help="use the 3-variable chain derivation")
    g.add_argument("--field", default=None)
    p.add_argument("--m", required=True)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("jets", help="jet dimension vs kernel growth table")
    common(p, n_default=2)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--cumulative", action="store_true",
                   help="sum homogeneous kernels over degrees <= m")
    p.set_defaults(func=cmd_jets)

    p = sub.add_parser("orbit", help="apply an automorphism word to a matrix")
    common(p)
    p.add_argument("--word", required=True, help="JSON word file")
    p.add_argument("--matrix", required=True, help="JSON matrix file")
    p.add_argument("--check-fibre", action="store_true")
    p.set_defaults(func=cmd_orbit)

    return ap, sub.choices


def main(argv: list[str] | None = None) -> int:
    """Run one command.  An argv that starts with a subcommand is parsed by
    that subcommand's parser alone, with the messages and exit codes of the
    whole parser; any other argv (none, -h, an unknown command) by the whole
    parser."""
    ap, commands = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = commands.get(argv[0]) if argv else None
    try:
        if command is None:
            args = ap.parse_args(argv)
        else:
            args, extra = command.parse_known_args(argv[1:])
            if extra:
                ap.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (liegen.PreconditionError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except flows.NumericsError as exc:
        print(f"numeric error: {exc} {exc.diagnostics}", file=sys.stderr)
        return EXIT_PRECONDITION
    except kernelgrowth.KernelCountError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
