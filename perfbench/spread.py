"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10                 # every workload
    python3 perfbench/spread.py --runs 1                  # one pass over all four
    python3 perfbench/spread.py --runs 5 --workload mc_study
    python3 perfbench/spread.py --runs 2 --trace 1 --same-seed

Each run is a fresh ``run.py`` process of ``run_seconds`` (BENCHMARK.json)
with its own seed: runs 1..N get seeds 1..N, or all seed 1 with
``--same-seed``.  Runs of the same seed must give every command the same
payload digest; a difference stops the script with an error.  For every
workload and metric this prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread (quartile
distance over the median) and, for end-to-end metrics, the bound from
``BENCHMARK.json``; ``!`` marks a spread above a third of the bound.
``failed_frac`` is failed operations over attempted ones across the runs.
``--out`` writes every run's values, the summary and the environment as
JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """(result, first output line, wall seconds) of one benchmark process;
    the first line holds the environment and the run's notes."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[0]), time.perf_counter() - start


def summarize(values: list) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--same-seed", action="store_true",
                        help="give every run seed 1 (to compare repeats)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workload or names:
        seeds = [1 if args.same_seed else 1 + i for i in range(args.runs)]
        runs, walls, failed, attempted, digests = [], [], 0, 0, {}
        for seed in seeds:
            result, head, wall = run_once(workload, seed, seconds, args.trace)
            runs.append(result)
            walls.append(wall)
            failed += result["failed"]
            attempted += result["attempted"]
            report["env"] = head["env"]
            now = head["notes"]["digests"]
            seen = digests.setdefault(seed, now)
            differ = sorted(k for k in seen.keys() | now.keys() if seen.get(k) != now.get(k))
            if differ:
                raise SystemExit(f"{workload} seed {seed}: payload digests differ "
                                 f"between runs for {differ}")
        summary = {}
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            summary[metric] = {"unit": first["unit"], "values": values,
                               **summarize(values)}
            s = summary[metric]
            bound = bounds.get(metric) if not args.trace else None
            flag = "!" if bound is not None and s["spread"] > bound / 3 else " "
            print(f"{workload:<17} {metric:<38} {s['median']:>12.6g} {s['unit']:<6} "
                  f"q1 {s['q1']:<10.6g} q3 {s['q3']:<10.6g} spread {s['spread']:.4f}"
                  + (f" bound {bound}{flag}" if bound is not None else ""))
        print(f"{workload:<17} {'failed_frac':<38} {failed / attempted:>12.6g} ratio "
              f"({failed}/{attempted}); wall {sum(walls):.0f} s over {len(walls)} runs")
        report["workloads"][workload] = {"seeds": seeds, "failed": failed,
                                         "digests": digests,
                                         "attempted": attempted, "wall_s": walls,
                                         "metrics": summary}
        sys.stdout.flush()
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
