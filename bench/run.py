"""specball benchmark: one workload, one seed, one JSON line.

    python3 bench/run.py --workload closure|slices|flows --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/specball`.  Each workload
runs in a fresh worker process with one thread (BLAS pinned to 1) and calls
specball in-process, through its public functions and `specball.cli.main`.

--trace 0 prints the end-to-end metrics: `wall_s`, the time of one round of
the workload's fixed operations at reference speed (speed.py), each
operation at its median over the run's rounds (at least three, and rounds
start until S seconds have passed); `setup_s`, the median over
SETUP_REPEATS + 1 fresh processes of the time from process start to the end
of input generation, at reference speed (the median raw time times REF_S
over the median of every reference sample these processes took); and
`peak_rss_mb` of the worker that ran the rounds.

--trace 1 runs one round untraced and one round with spans around every
layer's public functions, each in a fresh process, and prints the per-layer
counts and self times plus `trace.overhead_s`, the traced `wall_s` minus
the untraced one.

The last line of standard output is the result; details go to
.bench_out/result-<workload>-<seed>-<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 6
# every run ends well inside the 180 s a run may take
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _worker_cmd(args, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--out-dir", str(OUT_DIR), *extra]


def _run_worker(cmd: list[str], env: dict, deadline: float) -> tuple[dict, dict | None]:
    """Start a worker; return (its set-up record, its result)."""
    env = dict(env, BENCH_SPAWNED=repr(time.perf_counter()))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        if not select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))[0]:
            raise subprocess.TimeoutExpired(cmd, DEADLINE_S)
        first = proc.stdout.readline().split(maxsplit=1)
        rest = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))[0]
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s run limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first[:1] != ["READY"] or proc.returncode != 0:
        raise BenchError(f"worker failed (exit code {proc.returncode})")
    lines = rest.strip().splitlines()
    return json.loads(first[1]), (json.loads(lines[-1]) if lines else None)


def _environment(worker: dict) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"git_sha": sha, "python": worker["python"], "numpy": worker["numpy"],
            "nproc": len(os.sched_getaffinity(0))}


def measure(args, env: dict, deadline: float) -> dict:
    if args.trace:
        _, plain = _run_worker(_worker_cmd(args, "--rounds", "1"), env, deadline)
        _, traced = _run_worker(_worker_cmd(args, "--rounds", "1", "--trace"), env, deadline)
        runs = [plain, traced]
        values = dict(traced["per_layer"])
        values["trace.overhead_s"] = {"value": traced["wall_s"] - plain["wall_s"], "unit": "s"}
    else:
        setups = [_run_worker(_worker_cmd(args, "--setup-only"), env, deadline)[0]
                  for _ in range(SETUP_REPEATS)]
        setup, main = _run_worker(_worker_cmd(args, "--seconds", str(args.seconds)), env, deadline)
        setups.append(setup)
        # one speed for all set-ups: most of a set-up is imports, whose speed
        # follows the reference loop's only on average
        ref_s = statistics.median(r for s in setups for r in s["ref_s"])
        setup_s = statistics.median(s["raw_s"] for s in setups) * speed.REF_S / ref_s
        runs = [main]
        values = {
            "wall_s": {"value": main["wall_s"], "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": all(r["failed"] == 0 for r in runs),
              "attempted": sum(r["attempted"] for r in runs),
              "failed": sum(r["failed"] for r in runs),
              "metrics": values}
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  environment=_environment(runs[0]),
                  workers=[{k: r[k] for k in ("wall_s", "op_s", "round_s", "ref_s", "sampling_s")}
                           for r in runs])
    if not args.trace:
        detail["setups"] = setups
    (OUT_DIR / f"result-{args.workload}-{args.seed}-{int(args.trace)}.json").write_text(
        json.dumps(detail, indent=1))
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["closure", "slices", "flows"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "specball" / "cli.py").is_file():
        print(f"bench: no specball sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        result = measure(args, env, time.monotonic() + DEADLINE_S)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
