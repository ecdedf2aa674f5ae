#!/usr/bin/env python3
"""End-to-end benchmark of the IS2 pipeline: one command per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first run builds the `is2` library and
the benchmark binary from source into $CARGO_TARGET_DIR (default
.bench_build) and simulates the campaign into .bench_data/<source hash>
(cached for later runs of the same sources); each run's detailed report and
Perfetto trace land in .bench_work.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}: with --trace 0 every
end-to-end metric of BENCHMARK.json, with --trace 1 every per-layer metric
(a layer the workload does not exercise reads 0). The exit status is 0 when
every output check passed, 1 when one failed and 2 when the benchmark could
not run (no result line then).
"""
import argparse
import ctypes
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def die_with_parent():
    """Child processes get SIGKILL when this script dies."""
    try:
        ctypes.CDLL("libc.so.6", use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except OSError:
        pass


def run_logged(cmd, **kw):
    """Run a helper command with its output on stderr (stdout is reserved)."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          preexec_fn=die_with_parent, **kw).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("the repository sources (CMakeLists.txt, src/) are not next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]):
            fail("cmake configure failed")
    if run_logged(["cmake", "--build", build_dir, "-j", jobs]):
        fail("build failed")
    return build_dir


def data_dir():
    """The campaign cache for these sources.

    The cache holds shard files, auto-label output and the trained serving
    model, so it is keyed by a hash of everything that produces them: the
    library sources, the root build file and the benchmark's campaign code.
    Caches of other sources are removed.
    """
    files = ["CMakeLists.txt", "perfbench/campaign.hpp", "perfbench/campaign.cpp"]
    for top, dirs, names in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        files += sorted(os.path.relpath(os.path.join(top, n), ROOT) for n in names)
    h = hashlib.sha256()
    for rel in files:
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(rel.encode() + b"\0" + f.read() + b"\0")
    base = os.path.join(ROOT, ".bench_data")
    key = h.hexdigest()[:16]
    if os.path.isdir(base):
        for stale in set(os.listdir(base)) - {key}:
            shutil.rmtree(os.path.join(base, stale), ignore_errors=True)
    return os.path.join(base, key)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, preexec_fn=die_with_parent)
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="run the benchmark's self-tests")
    args = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if not args.selftest and not re.fullmatch(r"[a-z][a-z0-9_]*", args.workload or ""):
        fail(f"--workload must name a workload, got {args.workload!r}")

    build_dir = build()
    data = data_dir()
    if args.selftest:
        sys.exit(run_logged([os.path.join(build_dir, "perfbench_selftest"), data]))

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--data-dir", data, "--work-dir", work,
           "--git-sha", git_sha()]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          preexec_fn=die_with_parent)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode not in (0, 1) or len(lines) < 2:
        fail(f"{args.workload} exited with status {proc.returncode}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    for sub in os.listdir(work):  # disk tiers are scratch; keep traces
        if os.path.isdir(os.path.join(work, sub)):
            shutil.rmtree(os.path.join(work, sub), ignore_errors=True)

    # The metrics must be exactly the ones BENCHMARK.json declares, in its
    # units. Per-layer metrics of layers this workload never calls read 0.
    declared = bench["per_layer" if args.trace else "end_to_end"]
    got = result["metrics"]
    unknown = sorted(set(got) - {m["name"] for m in declared})
    if unknown:
        fail(f"metrics not declared in BENCHMARK.json: {unknown}")
    metrics = {}
    for m in declared:
        if m["name"] in got:
            if got[m["name"]]["unit"] != m["unit"]:
                fail(f"{m['name']}: unit {got[m['name']]['unit']!r}, declared {m['unit']!r}")
            metrics[m["name"]] = got[m["name"]]
        elif args.trace:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            fail(f"end-to-end metric {m['name']} missing from {args.workload}")
    result["metrics"] = metrics
    with open(os.path.join(work, "report.json"), "w") as f:
        json.dump({"detail": detail, "result": result}, f, indent=1)
    print(json.dumps(detail))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
