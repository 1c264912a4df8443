"""One workload in one fresh process; started by run.py.

Prints READY and a JSON object once the inputs exist (set-up ends there):
`raw_s`, the raw seconds since run.py started the process (it passes its
`time.perf_counter()` reading, the same clock in every process, in
BENCH_SPAWNED), less the time spent sampling the host's speed, and `ref_s`,
those samples (see speed.py).  Set-up covers interpreter start, imports of
numpy and specball, input generation and file writes.  The worker then runs
whole rounds of the workload's operations and prints one JSON line with the
time of a round at reference speed, each operation's median, the raw round
times, the reference-loop samples, the operation counts and the peak
resident set.  With --setup-only it stops after READY.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import speed

MAX_PROBLEMS = 20
# a run has at least this many rounds, so each operation's median rejects a
# burst of host load that slows one of them
MIN_ROUNDS = 3


def run_round(ops, meter: speed.Meter) -> tuple[list[float], float, list[str]]:
    """Time each call of one round, then check the outputs.

    Returns each operation's time at reference speed, the round's raw
    seconds, and the problems found."""
    clock = time.perf_counter
    times, outputs = [], []
    start = clock()
    for op in ops:
        t0 = meter.now()
        try:
            out, err = op.call(), None
        except Exception as exc:  # an operation that raises counts as failed
            out, err = None, f"{type(exc).__name__}: {exc}"
        times.append(meter.now() - t0)
        outputs.append((out, err))
    raw = clock() - start
    problems = []
    for op, (out, err) in zip(ops, outputs):
        if err is None:
            try:
                err = op.check(out)
            except Exception as exc:  # malformed output
                err = f"unreadable output: {type(exc).__name__}: {exc}"
        if err:
            problems.append(f"{op.label}: {err}")
    return times, raw, problems


def _parse_args(workload_names) -> argparse.Namespace:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workload_names))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="start rounds until this much time has passed (at least MIN_ROUNDS)")
    ap.add_argument("--rounds", type=int, default=0, help="run exactly this many rounds")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args()


def main() -> int:
    spawned = float(os.environ["BENCH_SPAWNED"])
    with speed.Meter() as meter:
        import numpy as np
        import workloads
        from spans import Tracer
        args = _parse_args(workloads.WORKLOADS)
        out_dir = Path(args.out_dir)
        wl = workloads.build(args.workload, args.seed, out_dir / args.workload)
        setup = {"raw_s": time.perf_counter() - spawned - meter.sampling_s, "ref_s": meter.ref_s}
    print(f"READY {json.dumps(setup)}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    op_times, round_s, problems = [], [], []
    start = time.perf_counter()
    with speed.Meter() as meter:
        while True:
            times, raw_s, round_problems = run_round(wl.ops, meter)
            op_times.append(times)
            round_s.append(raw_s)
            problems += round_problems
            if args.rounds:
                if len(op_times) >= args.rounds:
                    break
            elif len(op_times) >= MIN_ROUNDS and time.perf_counter() - start >= args.seconds:
                break

    for line in problems[:MAX_PROBLEMS]:
        print(f"bench: {args.workload}: {line}", file=sys.stderr)
    op_s = [statistics.median(col) for col in zip(*op_times)]
    result = {
        # one round at reference speed: each operation at its median over the rounds
        "wall_s": sum(op_s),
        "op_s": dict(zip((op.label for op in wl.ops), op_s)),
        "round_s": round_s,
        "ref_s": meter.ref_s,
        "sampling_s": meter.sampling_s,
        "attempted": len(op_times) * len(wl.ops),
        "failed": len(problems),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
        tracer.write(str(out_dir / f"trace-{args.workload}.npz"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
