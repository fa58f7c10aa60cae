#!/usr/bin/env python3
"""Runs the repository benchmark: one workload, one seed, one timed phase.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run it from the root of a checkout. It builds perfbench/ (the simulator
libraries from src/ plus the harness) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, runs the harness, and prints the
harness's human-readable report followed, as the last line, by one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer metrics. The
full record (errors, notes, provenance) and, when traced, the span file are
written under .bench_results/. --selftest builds and runs the harness's own
unit tests.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = ".bench_results"
WORKLOADS = ["fig8-cold", "serve-mixed"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds @p target; returns the build directory."""
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(build_dir + ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
                           + gen, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", build_dir, "--target", target, "-j", jobs],
                       check=True, stdout=sys.stderr)
    return build_dir


def git_revision():
    """(revision, dirty) of the checkout, or ("unknown", None) outside git."""
    def git(*argv):
        return subprocess.run(["git", "-C", ROOT, *argv], capture_output=True, text=True,
                              check=True).stdout.strip()
    try:
        if os.path.realpath(git("rev-parse", "--show-toplevel")) != os.path.realpath(ROOT):
            return "unknown", None
        rev = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no") != ""
        return rev, dirty
    except (OSError, subprocess.CalledProcessError):
        return "unknown", None


def source_digest():
    """sha256 over the simulator sources and the benchmark, for runs outside git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def selftest():
    try:
        build_dir = build("perfbench_tests")
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    return subprocess.run([os.path.join(build_dir, "perfbench_tests")]).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    os.chdir(ROOT)  # relative paths keep the service's socket path short
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")

    expected = expected_metrics(args.trace)
    try:
        build_dir = build("perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record_path = os.path.join(RESULTS, tag + ".json")
    spans_path = os.path.join(RESULTS, tag + "-spans.json")
    work = os.path.join(RESULTS, f"work-{os.getpid()}")
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ".", "--goldens", os.path.join("perfbench", "goldens.txt"),
           "--work", work, "--out", record_path]
    if args.trace:
        cmd += ["--spans", spans_path]
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"harness exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if rc != 0:
        log(f"harness failed with exit code {rc}")
        return 1

    with open(record_path) as f:
        record = json.load(f)
    rev, dirty = git_revision()
    record["provenance"].update({"git_revision": rev, "git_dirty": dirty,
                                 "source_sha256": source_digest()})
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1)
    prov = record["provenance"]
    print("provenance: " + ", ".join(f"{k}={prov[k]}" for k in sorted(prov)))
    print(f"record: {record_path}" + (f", spans: {spans_path}" if args.trace else ""))

    metrics = record["metrics"]
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    if missing or extra:
        log(f"metric set differs from BENCHMARK.json: missing {missing}, unexpected {extra}")
        return 1
    for name, unit in expected.items():
        if metrics[name]["unit"] != unit:
            log(f"{name}: unit {metrics[name]['unit']} != BENCHMARK.json {unit}")
            return 1
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
