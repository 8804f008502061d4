#!/usr/bin/env python3
"""End-to-end benchmark of dcolor: the CLI color pipeline, the batch
runner and the serve daemon, built from source and run as a user runs them.

    python3 perfbench/run.py --workload color_1m --seed 1 --seconds 15 \\
        --trace 0

--trace 0 measures the end-to-end metrics; --trace 1 is a separate run
that gives the per-layer metrics (see perfbench/README.md). Metric names
and units come from BENCHMARK.json at the repository root, and the last
stdout line is the result object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The first run in a checkout builds the library, the dcolor CLI and the
probe with CMake into $CARGO_TARGET_DIR (default .bench_build). Run from
the repository root.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from benchlib import Tally, check_metric_names, result_line  # noqa: E402
from harness import Harness  # noqa: E402
import workloads  # noqa: E402

BUILD_TYPE = "RelWithDebInfo"  # the root project's default
# A run must end within 180 s; the build before it is not counted.
RUN_DEADLINE_S = 170
SOURCES = ("src/CMakeLists.txt", "tools/CMakeLists.txt", "tools/dcolor.cpp")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures once, then (re)builds the CLI and the probe; the build
    log goes to <build_dir>/build.log. Serialized by a lock file so that
    concurrent runs in one checkout build once."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir, *generator,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "dcolor_cli", "perfbench_probe"])
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            for step in steps:
                if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                  cwd=ROOT).returncode != 0:
                    with open(log_path) as f:
                        tail = f.read().splitlines()[-20:]
                    print("\n".join(tail), file=sys.stderr)
                    fail(f"build failed, see {log_path}")


def source_digest():
    """sha256 over the files the benchmark builds from, so a result can be
    tied to its sources when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(
                os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_jiffies():
    """The first eight fields of /proc/stat's cpu line (user, nice,
    system, idle, iowait, irq, softirq, steal), or None off Linux."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_pct(before, after):
    """Share of CPU time the hypervisor gave to other guests while the
    run was measured. On a shared host this explains slow runs."""
    if not before or not after or len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return round(100.0 * delta[7] / sum(delta), 2) if sum(delta) else None


def provenance(h, args):
    _, info = h.probe_json("info", [])
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": len(os.sched_getaffinity(0)),
        "sim_threads": workloads.SIM_THREADS,
        "batch_workers": workloads.BATCH_WORKERS,
        "daemon_workers": workloads.SERVE_WORKERS,
        "client_connections": 2,
        "serve_cpus": sorted(workloads.serve_cpus()),
        "simd": info["simd"] if info else "unknown",
        "build_type": BUILD_TYPE,
        "commit": commit(),
        "source_sha256": source_digest(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES),
                        default="full",
                        help="smoke: small inputs, for the benchmark's tests")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    missing = [p for p in SOURCES if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail(f"not a dcolor checkout (missing {', '.join(missing)})")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    build(build_dir)

    work_dir = os.path.join(build_dir, "work",
                            f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    h = Harness(build_dir, work_dir, workloads.SIM_THREADS)

    def on_signal(signum, frame):
        raise RuntimeError(f"run took over {RUN_DEADLINE_S} s"
                           if signum == signal.SIGALRM else
                           f"stopped by {signal.Signals(signum).name}")

    signal.signal(signal.SIGALRM, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    signal.alarm(RUN_DEADLINE_S)
    try:
        prov = provenance(h, args)
        tally = Tally()
        run = workloads.Run(h, args.size, args.seed, args.seconds, tally)
        start = time.perf_counter()
        jiffies = cpu_jiffies()
        if args.trace:
            # Per-layer metrics name the workload that exercises each
            # layer, so a traced run measures all of them: the named
            # workload's layers first, then the others'.
            metrics, notes = {}, []
            for name in sorted(workloads.WORKLOADS,
                               key=lambda w: w != args.workload):
                layer_metrics, layer_notes = workloads.WORKLOADS[name][1](run)
                metrics |= layer_metrics
                notes += [f"{name}: {note}" for note in layer_notes]
        else:
            metrics, notes = workloads.WORKLOADS[args.workload][0](run)
        elapsed = time.perf_counter() - start
        prov["cpu_steal_pct"] = steal_pct(jiffies, cpu_jiffies())
    except Exception as e:  # report and print no result; children die below
        fail(f"{type(e).__name__}: {e}")
    finally:
        signal.alarm(0)
        h.kill_all()
        shutil.rmtree(work_dir, ignore_errors=True)

    if tally.failed:
        # A failed step may leave metrics uncomputed; the result still
        # names every metric, and `correct` is false.
        metrics = {name: metrics.get(name, 0.0) for name in units}
    try:
        check_metric_names(metrics, units)
    except ValueError as e:
        fail(str(e))

    print(json.dumps({"provenance": prov}))
    print(f"{args.workload} trace={args.trace} seed={args.seed}: "
          f"{elapsed:.1f} s on nproc={prov['nproc']}")
    for name in sorted(metrics):
        print(f"  {name:34s} {metrics[name]:>16.6g} {units[name]}")
    for note in notes:
        print(f"  note: {note}")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    print(result_line(tally, metrics, units))


if __name__ == "__main__":
    main()
