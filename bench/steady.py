"""Steadiness check of the benchmark: two separate sets of runs of the same code.

    python3 bench/steady.py
    python3 bench/steady.py --traced

Each set runs every workload of BENCHMARK.json RUNS times, each run with its
own seed; the sets use different seeds.  For each end-to-end metric of each
workload it prints both sets' medians and quartiles, the spread (third minus
first quartile, as a share of the median) and the change of the second
median against the first.  A row agrees when both spreads are within a third
of the metric's bound in BENCHMARK.json and the second median is no worse
than the first by more than the bound; the spread of setup_s is printed but
not judged (README, "Noise").  The failed share of operations must be the
same in both sets.  Exits 1 if anything disagrees.

--traced instead makes two traced runs per workload with one seed and checks
that every count repeats exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
# set-up is imports, file writes and input generation, whose speed follows
# the reference loop's only roughly, so its spread is shown but not judged
SPREAD_NOT_JUDGED = {"setup_s"}


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_sets(spec: dict, workloads: list[str]) -> bool:
    results = {w: [[], []] for w in workloads}
    for k in range(2):
        for i in range(RUNS):
            for w in workloads:
                r = run_once(spec, w, 1000 * (k + 1) + i, 0)
                results[w][k].append(r)
                print(f"set {k + 1} run {i + 1} {w}: " + ", ".join(
                    f"{m}={v['value']:.4g}" for m, v in r["metrics"].items()), flush=True)
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    (ROOT / ".bench_out" / "steady.json").write_text(json.dumps(results, indent=1))

    ok = True
    print(f"\n{'workload':<8} {'metric':<12} {'median A':>10} {'Q1..Q3 A':>21} {'spread A':>9} "
          f"{'median B':>10} {'Q1..Q3 B':>21} {'spread B':>9} {'change':>8} {'bound':>6}  verdict")
    for w in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = []
            for k in range(2):
                q1, med, q3 = statistics.quantiles([r["metrics"][name]["value"] for r in results[w][k]], n=4)
                stats.append((q1, med, q3, (q3 - q1) / med))
            change = (stats[1][1] - stats[0][1]) / stats[0][1]
            worse = change if metric["better"] == "lower" else -change
            steady = name in SPREAD_NOT_JUDGED or all(s[3] <= bound / 3 for s in stats)
            agree = steady and worse <= bound
            ok = ok and agree
            cells = []
            for q1, med, q3, spread in stats:
                cells.append(f"{med:>10.4g} {f'{q1:.4g}..{q3:.4g}':>21} {spread:>9.2%}")
            print(f"{w:<8} {name:<12} {cells[0]} {cells[1]} {change:>+8.2%} {bound:>6.2f}  "
                  f"{'agree' if agree else 'DISAGREE'}")
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in results[w]]
        if shares[0] != shares[1]:
            ok = False
            print(f"{w}: failed share differs between the sets: {shares}")
    return ok


def check_traced(spec: dict, workloads: list[str]) -> bool:
    ok = True
    for w in workloads:
        a, b = (run_once(spec, w, 7, 1)["metrics"] for _ in range(2))
        counts = [m for m, v in a.items() if v["unit"] == "count"]
        differ = [m for m in counts if a[m]["value"] != b[m]["value"]]
        ok = ok and not differ
        print(f"{w}: {len(counts)} counts, {'identical' if not differ else 'DIFFER: ' + ', '.join(differ)};"
              f" trace.overhead_s {a['trace.overhead_s']['value']:.3f} / {b['trace.overhead_s']['value']:.3f}")
    return ok


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    ok = check_traced(spec, workloads) if args.traced else check_sets(spec, workloads)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
