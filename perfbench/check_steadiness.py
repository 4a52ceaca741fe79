#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Run from the repository root:

    python3 perfbench/check_steadiness.py [--workloads broad,overlap,churn]

For each workload it runs the benchmark ten times, on seeds 1..10, at
BENCHMARK.json's run_seconds, and reports for every end-to-end metric the
run-to-run spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound. It then runs ten more times on seeds 11..20 and checks that
each metric's second median is not worse than the first by more than the
bound. Flags a spread above its bound and any shifted median, and notes a
spread above a third of its bound; exits 1 if anything is flagged. The
summary is also written to .bench_out/steadiness.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEEDS = range(1, 11)
SECOND_SEEDS = range(11, 21)


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed "
                         f"(exit {done.returncode})")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median, median


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all)")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]

    flagged = []
    summary = {}
    for workload in workloads:
        sets = []
        for seeds in (FIRST_SEEDS, SECOND_SEEDS):
            runs = [run_once(workload, s, seconds) for s in seeds]
            sets.append({m["name"]: [r[m["name"]] for r in runs]
                         for m in metrics})
        print(f"\n{workload}: {len(FIRST_SEEDS)} runs, then "
              f"{len(SECOND_SEEDS)} on unused seeds ({seconds} s each)")
        print(f"  {'metric':26} {'median':>12} {'spread':>8} {'bound':>7} "
              f"{'median2':>12} {'shift':>8}  verdict")
        summary[workload] = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            s1, median1 = spread(sets[0][name])
            _, median2 = spread(sets[1][name])
            worse = (median2 - median1 if m["better"] == "lower"
                     else median1 - median2) / median1
            verdict = []
            if s1 > bound:
                verdict.append("SPREAD>BOUND")
            elif s1 > bound / 3:
                verdict.append("spread>bound/3")
            if worse > bound:
                verdict.append("SHIFTED")
            if any(v.isupper() for v in verdict):
                flagged.append(f"{workload}/{name}")
            print(f"  {name:26} {median1:12.4f} {s1:8.3f} {bound:7.3f} "
                  f"{median2:12.4f} {worse:+8.3f}  {' '.join(verdict) or 'ok'}")
            summary[workload][name] = {
                "values": sets[0][name], "confirm_values": sets[1][name],
                "median": median1, "spread": s1, "bound": bound,
                "confirm_median": median2, "worse_by": worse}

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(summary, indent=1))
    if flagged:
        print("\nflagged: " + ", ".join(flagged))
        sys.exit(1)
    print("\nall end-to-end metrics within their bounds")


if __name__ == "__main__":
    main()
