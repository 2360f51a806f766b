#!/usr/bin/env python3
"""Build and run the Revet layer-resolved benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/ (which builds the repository's libraries from source) into
.bench_build/perfbench; later calls rebuild incrementally. Prints the
benchmark's report and, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics.

Besides the checks the benchmark binary makes inside one run, this
script holds every count that must not depend on timing or on the seed
(optimized graph shapes, optimizer counts, worklist quanta per input)
in a ledger kept beside the binary, keyed by the binary's hash: a run
whose counts differ from an earlier run of the same binary fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
EXE = BUILD / "revet_perfbench"
WORKLOADS = ("compile_corpus", "serve_warm", "exec_parallel")
# A run must end within 180 s; leave room for start-up and the build
# check before the binary starts.
RUN_TIMEOUT_S = 165
BUILD_TIMEOUT_S = 840


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (
        ROOT / "src" / "core" / "revet.hh"
    ).is_file():
        die(f"no Revet sources under {ROOT}; run from the root of a checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(
        ["cmake", "--build", str(BUILD), "--target", "revet_perfbench",
         "-j", "2"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                die(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                die(f"build step {' '.join(cmd[:2])} exited {rc}")


def check_ledger(facts):
    """Compare @p facts with earlier runs of the same binary; return the
    keys whose values drifted, and record the new ones."""
    digest = hashlib.sha256(EXE.read_bytes()).hexdigest()[:16]
    path = BUILD / f"determinism-{digest}.json"
    ledger = json.loads(path.read_text()) if path.is_file() else {}
    drift = [k for k, v in facts.items() if k in ledger and ledger[k] != v]
    for k in drift:
        print(f"perfbench: count drifted from an earlier run: {k}: "
              f"{facts[k]!r} vs {ledger[k]!r}", file=sys.stderr)
    for k, v in facts.items():
        ledger.setdefault(k, v)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return drift


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if not 0 < args.seconds <= 60:
        die("--seconds must be in (0, 60]")

    build()
    facts_path = BUILD / f"facts-{args.workload}.json"
    cmd = [str(EXE), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--facts", str(facts_path)]
    if args.trace == "1":
        cmd += ["--trace-out", str(BUILD / f"spans-{args.workload}.jsonl")]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        die(f"benchmark binary exited {proc.returncode}")
    try:
        result = json.loads(lines[-1])
        facts = json.loads(facts_path.read_text())
    except (ValueError, OSError) as e:
        die(f"unreadable benchmark output: {e}")

    drift = check_ledger(facts)
    if drift:
        result["correct"] = False
        result["failed"] = min(result["attempted"],
                               result["failed"] + len(drift))

    for line in lines[:-1]:
        print(line)
    print(f"run wall time {time.monotonic() - started:.1f} s")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
