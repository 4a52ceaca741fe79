#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload broad --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/ (which builds the library
from the repository's own CMakeLists.txt) into .bench_build/perfbench; later
calls only rebuild what changed. The benchmark's own output is passed
through; its last line is the result object
{"correct", "attempted", "failed", "metrics"}. A traced run (--trace 1) also
writes Chrome trace-event JSON to .bench_out/. Exits non-zero, without a
result, when the build or the run fails, and non-zero after the result when
a notification disagrees with the oracle.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
BUILD_TIMEOUT_S = 840
WORKLOADS = ("broad", "overlap", "churn")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git sha when the tree is a git checkout, else a digest of the
    library sources and build file, so results stay attributable."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*")) + [ROOT / "CMakeLists.txt"]
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("the repository's CMakeLists.txt and src/ are missing; "
             "run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
    ]
    with open(BUILD / "build.log", "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as error:
                fail(f"build step {step[:2]} failed: {error}")
            if done.returncode != 0:
                log.flush()
                tail = (BUILD / "build.log").read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step {' '.join(step[:2])} exited "
                     f"{done.returncode}; see {BUILD / 'build.log'}")
    return BUILD / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    binary = build()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--git-sha", source_id()]
    if args.trace:
        OUT.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(OUT / f"trace-{args.workload}-seed{args.seed}.json")]
    # The window plus setups, the control probe, the oracle and, when traced,
    # the replica replay.
    timeout_s = args.seconds * 2 + 120
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=timeout_s, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {timeout_s} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if (not isinstance(result, dict) or
            set(result) != {"correct", "attempted", "failed", "metrics"}):
        print("\n".join(lines), file=sys.stderr)
        fail(f"run exited {done.returncode} without a result")
    print("\n".join(lines), flush=True)
    if done.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
