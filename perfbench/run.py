#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload frame_render --seed 1 \
        --seconds 10 --trace 0

Workloads: frame_render, sparw_orbit, serve_mix (see perfbench/README.md),
or `all` to run the three one after another. The library and the
benchmark are built from source (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, under the
checkout root. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. With --trace 1 the
span file is written next to the build and checked to parse and nest.
Exit status: 0 when every output check passed, non-zero otherwise.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("frame_render", "sparw_orbit", "serve_mix")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configure and build the benchmark; returns the binary's path."""
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    configure = ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(configure)
    steps.append(["cmake", "--build", str(out), "--target",
                  "cicero_perfbench", "-j", jobs])
    with open(out / ".lock", "w") as lock, open(log, "w") as logf:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            res = subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                                 timeout=BUILD_TIMEOUT_S, check=False)
            if res.returncode != 0:
                logf.flush()
                tail = log.read_text(errors="replace").splitlines()[-30:]
                sys.stderr.write("perfbench: build failed:\n" +
                                 "\n".join(tail) + "\n")
                return None
    binary = out / "cicero_perfbench"
    return binary if binary.exists() else None


def check_spans(path):
    """The span file must parse and every span must sit in its parent."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = {}
    for e in events:
        if e.get("ph") != "X":
            continue
        if e["args"]["id"] in spans:
            return "span id %s is not unique" % e["args"]["id"]
        if e["dur"] < 0:
            return "span %s ends before it starts" % e["name"]
        spans[e["args"]["id"]] = e
    for e in spans.values():
        parent = e["args"]["parent"]
        if parent == 0:
            continue
        p = spans.get(parent)
        if p is None:
            return "span %s has no parent %s" % (e["name"], parent)
        # Timestamps are printed in microseconds with ns resolution.
        if (e["ts"] < p["ts"] - 1e-3 or
                e["ts"] + e["dur"] > p["ts"] + p["dur"] + 2e-3):
            return "span %s is not inside %s" % (e["name"], p["name"])
    return None


def check_metrics(result, trace):
    """The metrics must be exactly the BENCHMARK.json set of the mode."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    with open(spec_path) as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        return "metrics differ from BENCHMARK.json: %s" % sorted(
            set(want.items()) ^ set(got.items()))
    return None


def run_one(binary, out, args, workload):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_path = None
    if args.trace:
        trace_path = out / ("spans-%s-%d.json" % (workload, args.seed))
        cmd += ["--trace-out", str(trace_path)]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                         check=False, text=True)
    lines = res.stdout.rstrip("\n").splitlines()
    if res.returncode not in (0, 1) or not lines:
        sys.stdout.write(res.stdout)
        sys.stderr.write("perfbench: %s exited with %d\n" %
                         (workload, res.returncode))
        return None, 1
    result = json.loads(lines[-1])
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    err = check_metrics(result, args.trace)
    if err:
        sys.stderr.write("perfbench: %s\n" % err)
        return None, 3
    if trace_path is not None:
        err = check_spans(trace_path)
        if err:
            sys.stderr.write("perfbench: span file check failed: %s\n" % err)
            result["correct"] = False
    return result, 0 if result["correct"] else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    status = 0
    for w in workloads:
        result, code = run_one(binary, out, args, w)
        if result is None:
            return code
        status = status or code
        results[w] = result
    if len(workloads) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return status


if __name__ == "__main__":
    sys.exit(main())
