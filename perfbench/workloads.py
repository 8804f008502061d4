"""The three workloads of the end-to-end benchmark.

Each workload has an untraced mode, which gives the end-to-end metrics,
and a traced mode, which gives the per-layer metrics by timing calls into
each layer from outside (probe.cpp) and by reading what the CLI and the
daemon report. A workload returns (metrics, notes); every operation and
every check goes through the Tally.
"""

import hashlib
import json
import os
import re
import time

from benchlib import (build_ms, fingerprint_mismatches, median, percentile,
                      ratio, unattributed_ms, windows)

# Sizes of the full benchmark and of the smoke mode the tests run. The full
# sizes are the ones BENCHMARK.json describes; only their scale differs.
SIZES = {
    "full": {
        "setup_reps": 3,
        "color_n": 1_000_000,
        "batch_big_n": 262_144,
        "batch_n": 32_768,
        "batch_repeat": 16,
        "warm_n": 32_768,
        "serve_n": 262_144,
        "serve_small_n": 16_384,
        "serve_fixed_iters": 256,
        "ratio_iters": 300,
    },
    "smoke": {
        "setup_reps": 2,
        "color_n": 20_000,
        "batch_big_n": 16_384,
        "batch_n": 2_048,
        "batch_repeat": 2,
        "warm_n": 512,
        "serve_n": 16_384,
        "serve_small_n": 4_096,
        "serve_fixed_iters": 16,
        "ratio_iters": 20,
    },
}

COLOR_DEGREE = 6
COLOR_ALG = "two_sweep"
# p = beta/(d+1) + 1 for the snapshot's lists (beta = 6, d = 1). The CLI
# default p = 2 fails Eq. (2) on this instance: see perfbench/README.md.
COLOR_TS_P = 4
SIM_THREADS = 4
BATCH_WORKERS = 4
BATCH_DEGREE = 8
SERVE_WORKERS = 2
# The daemon and its client share two CPUs, one per connection's request
# chain. Spread over every vCPU of a shared host, each of a repair's eight
# thread hand-offs may have to wake a halted vCPU, and the tail measured
# the host's scheduler more than the daemon.
SERVE_CPUS = 2
SERVE_DEGREE = 8
SERVE_SOLVER = "deg_plus_one"
# The traced serve loop needs thousands of repairs for its percentiles,
# not the whole run length; a traced run measures all three workloads.
TRACE_LOOP_S = 10
STAGES = ("load", "orient", "linial", "solve", "validate", "emit")
# The six solver families of the fleet, with the generator each runs on.
BATCH_FAMILIES = (
    ("two_sweep", "regular"),
    ("fast_two_sweep", "regular"),
    ("theta", "regular"),
    ("congest_oldc", "gnp"),
    ("deg_plus_one", "gnp"),
    ("slack1_arbdefective", "geometric"),
)


class Run:
    """What a workload needs: the harness, sizes, seed, time and tally."""

    def __init__(self, harness, size, seed, seconds, tally):
        self.h = harness
        self.size = SIZES[size]
        self.seed = seed
        self.seconds = seconds
        self.tally = tally


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def timed_loop(seconds, body):
    """Calls body(i) for i = 0, 1, ... until `seconds` have passed; always
    at least once. Returns the list of results."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(body(len(results)))
    return results


# ---- color_1m --------------------------------------------------------------

CLI_ROW = re.compile(r"^\s+(valid|rounds|max message bits|colors used)"
                     r"\s+(\S+)\s*$")


def cli_table(text):
    """The rows of `dcolor --cmd=color`'s result table the checks need."""
    rows = {}
    for line in text.splitlines():
        m = CLI_ROW.match(line)
        if m:
            rows[m.group(1)] = m.group(2)
    return rows


def make_snapshot(r):
    snap = r.h.path("instance.snap")
    done = r.h.run([r.h.dcolor, "--cmd=snapshot", f"--save={snap}",
                    "--family=regular", f"--n={r.size['color_n']}",
                    f"--degree={COLOR_DEGREE}", f"--seed={r.seed}"],
                   tag="snapshot")
    r.tally.op(done.label("snapshot"), exit_0=done.code == 0)
    return snap, done.wall_s


def color_argv(r, snap, out):
    return [r.h.dcolor, "--cmd=color", f"--instance={snap}",
            f"--alg={COLOR_ALG}", f"--ts_p={COLOR_TS_P}", f"--out={out}"]


def run_cli_color(r, snap, index):
    """One timed `dcolor --cmd=color`; returns (Finished, fingerprint)."""
    out = r.h.path(f"color.{index}.txt")
    done = r.h.run(color_argv(r, snap, out), tag="color")
    table = cli_table(done.stdout())
    fp = {"valid": table.get("valid"), "rounds": table.get("rounds"),
          "max_msg_bits": table.get("max message bits"),
          "hash": sha256_file(out) if os.path.exists(out) else None}
    if os.path.exists(out):
        os.remove(out)
    return done, fp


def check_cli_runs(r, runs):
    ref = runs[0][1]
    for done, fp in runs:
        r.tally.op(done.label("color run"), exit_0=done.code == 0,
                   valid_yes=fp["valid"] == "yes",
                   same_output_as_first=not fingerprint_mismatches(ref, fp))
    return ref


def run_replay(r, snap, sink=False, threads=SIM_THREADS):
    """One in-process replay of cmd_color in a fresh probe process, so the
    RSS high-water marks belong to this replay alone."""
    out = r.h.path("replay.txt")
    args = [f"--instance={snap}", f"--alg={COLOR_ALG}",
            f"--ts_p={COLOR_TS_P}", f"--out={out}"]
    if sink:
        args.append("--sink")
    done, data = r.h.probe_json("color", args, sim_threads=threads)
    if data is not None:
        data["hash"] = sha256_file(out)
        data["stage_ms"] = {s["name"]: s["ms"] for s in data["stages"]}
        os.remove(out)
    return done, data


def check_replay(r, done, data, cli_fp, msg_bits=None):
    """The replay must exit cleanly, validate, and reproduce the CLI's
    colors and counts (and the first replay's message bits)."""
    ok = done.code == 0 and data is not None
    fp = ({"rounds": str(data["rounds"]),
           "max_msg_bits": str(data["max_msg_bits"]), "hash": data["hash"]}
          if ok else {})
    ref = {k: cli_fp[k] for k in ("rounds", "max_msg_bits", "hash")}
    r.tally.op(done.label("color replay"), exit_0=ok,
               valid=ok and data["valid"],
               matches_cli=ok and not fingerprint_mismatches(ref, fp),
               same_msg_bits=ok and msg_bits in (None, data["msg_bits"]))


def color_1m(r):
    n = r.size["color_n"]
    setup = []
    for _ in range(r.size["setup_reps"]):
        snap, wall_s = make_snapshot(r)
        setup.append(wall_s)
    runs = timed_loop(r.seconds, lambda i: run_cli_color(r, snap, i))
    cli_fp = check_cli_runs(r, runs)
    done, replay = run_replay(r, snap)
    check_replay(r, done, replay, cli_fp)
    walls = [d.wall_s for d, _ in runs]
    metrics = {
        "setup_s": median(setup),
        "latency_p50_ms": median(walls) * 1e3,
        "latency_p90_ms": percentile(walls, 90) * 1e3,
        "throughput_per_s": n * len(walls) / sum(walls),
        "peak_rss_mib": median([d.peak_rss_mib for d, _ in runs]),
        "sim_rounds": int(cli_fp["rounds"] or 0),
        "msg_bits": replay["msg_bits"] if replay else 0,
    }
    notes = [f"{len(walls)} CLI runs, {n} nodes, DCOLOR_SIM_THREADS="
             f"{SIM_THREADS}, --ts_p={COLOR_TS_P}"]
    return metrics, notes


def color_1m_traced(r):
    snap, _ = make_snapshot(r)
    cli, plain, sinked = [], [], []
    # Interleaved so that drift on the machine hits all three alike.
    for i in range(3):
        cli.append(run_cli_color(r, snap, i))
        plain.append(run_replay(r, snap))
        sinked.append(run_replay(r, snap, sink=True))
    serial = run_replay(r, snap, threads=1)
    cli_fp = check_cli_runs(r, cli)
    bits = plain[0][1]["msg_bits"] if plain[0][1] else None
    for done, data in plain + sinked + [serial]:
        check_replay(r, done, data, cli_fp, bits)
    if not all(d for _, d in plain + sinked + [serial]):
        return {}, ["a replay failed; per-layer metrics not computed"]

    plain = [d for _, d in plain]
    sinked = [d for _, d in sinked]
    stage_ms = {s: median([d["stage_ms"][s] for d in plain]) for s in STAGES}
    cli_ms = median([d.wall_s for d, _ in cli]) * 1e3

    def traced(stage, key):
        return median([d["rounds_by_stage"][stage][key] for d in sinked])

    solve_traced = median([d["stage_ms"]["solve"] for d in sinked])
    first = plain[0]
    metrics = {
        "tools.cli_wall_ms": cli_ms,
        "storage.load_ms": stage_ms["load"],
        "graph.orient_ms": stage_ms["orient"],
        "coloring.linial_ms": stage_ms["linial"],
        "core.solve_ms": stage_ms["solve"],
        "check.validate_ms": stage_ms["validate"],
        "io.emit_ms": stage_ms["emit"],
        "unattributed_ms": unattributed_ms(cli_ms, stage_ms),
        "sim.deliver_ms.linial":
            traced("linial", "wall_ms") - traced("linial", "step_ms"),
        "sim.deliver_ms.two_sweep":
            traced("solve", "wall_ms") - traced("solve", "step_ms"),
        "sim.step_ms.linial": traced("linial", "step_ms"),
        "sim.step_ms.two_sweep": traced("solve", "step_ms"),
        "sim.chunk_imbalance": ratio(
            sum(traced(s, "chunk_max_ms") for s in ("linial", "solve")),
            sum(traced(s, "chunk_mean_ms") for s in ("linial", "solve"))),
        "core.solve_outside_rounds_ms":
            solve_traced - traced("solve", "wall_ms"),
        "sim.executed_rounds": sum(traced(s, "rounds")
                                   for s in ("linial", "solve")),
        "sim.vector_rounds": sum(traced(s, "vector_rounds")
                                 for s in ("linial", "solve")),
        "sim.max_msg_bits": first["max_msg_bits"],
        "core.compute_ops": first["compute_ops"],
        "sim.thread_speedup": ratio(serial[1]["stage_ms"]["solve"],
                                    stage_ms["solve"]),
        "trace_overhead_pct":
            100.0 * ratio(solve_traced - stage_ms["solve"], stage_ms["solve"]),
    }
    stages = first["stages"]
    for s in stages:
        metrics[f"mem.hwm_mib.{s['name']}"] = s["hwm_mib"]
        metrics[f"mem.rss_mib.{s['name']}"] = s["rss_mib"]
    rises = [(b["hwm_mib"] - a["hwm_mib"], b["name"])
             for a, b in zip([{"hwm_mib": 0.0}] + stages, stages)]
    rise, stage = max(rises)
    cli_peak = max(d.peak_rss_mib for d, _ in cli)
    notes = [
        f"stages sum to {sum(stage_ms.values()):.0f} ms of a "
        f"{cli_ms:.0f} ms CLI process (median of 3 each)",
        f"peak-RSS high-water mark is raised most by stage '{stage}' "
        f"(+{rise:.0f} MiB to {max(s['hwm_mib'] for s in stages):.0f} MiB; "
        f"CLI peak {cli_peak:.0f} MiB)",
    ]
    return metrics, notes


# ---- batch_mixed -------------------------------------------------------------

def fleet_spec(r):
    s = r.size
    lines = [f"solver=fast_two_sweep,generator=regular,n={s['batch_big_n']},"
             f"degree=6,seed=1"]
    for k, (solver, generator) in enumerate(BATCH_FAMILIES):
        lines.append(f"solver={solver},generator={generator},"
                     f"n={s['batch_n']},degree={BATCH_DEGREE},"
                     f"seed={100 * (k + 1)},repeat={s['batch_repeat']}")
    return "\n".join(lines) + "\n"


def warmup_spec(r):
    return "".join(f"solver={solver},generator={generator},"
                   f"n={r.size['warm_n']},degree={BATCH_DEGREE},seed=7,"
                   f"repeat=2\n" for solver, generator in BATCH_FAMILIES)


def write_file(path, text):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path


def run_batch(r, jobs, workers=BATCH_WORKERS, cache=None, tag="batch"):
    """One `dcolor --cmd=batch` process; returns (Finished, report)."""
    report_path = r.h.path(f"{tag}.report.json")
    argv = [r.h.dcolor, "--cmd=batch", f"--jobs={jobs}",
            f"--threads={workers}", f"--seed={r.seed}",
            f"--json={report_path}"]
    if cache:
        argv.append(f"--snapshot-cache={cache}")
    done = r.h.run(argv, tag=tag)
    report = None
    if os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as f:
            report = json.load(f)
        os.remove(report_path)
    return done, report


def job_fingerprint(job):
    return {k: job.get(k) for k in ("label", "solver", "valid", "nodes",
                                    "edges", "colors_used", "color_hash",
                                    "rounds", "messages", "bits")}


def check_fleet(r, runs, expected_jobs):
    """Every job of every run is one operation: it must be valid, error-
    and violation-free, and identical to the same job of the first run."""
    ref = None
    for done, report in runs:
        jobs = report["jobs"] if report else []
        if done.code != 0 or len(jobs) != expected_jobs:
            r.tally.op(done.label("batch run"), exit_0=done.code == 0,
                       all_jobs_reported=len(jobs) == expected_jobs)
            continue
        ref = ref or [job_fingerprint(j) for j in jobs]
        summary = report["summary"]
        r.tally.op("batch summary",
                   jobs_valid=summary["valid"] == expected_jobs,
                   no_failures=summary["failed"] == 0,
                   no_violations=summary["total_violations"] == 0)
        for job, first in zip(jobs, ref):
            r.tally.op(f"job {job['label']}", valid=job["valid"] is True,
                       no_error=not job.get("error"),
                       no_violations=job.get("violations", 0) == 0,
                       same_as_first_run=not fingerprint_mismatches(
                           first, job_fingerprint(job)))


def expected_jobs(r):
    return 1 + len(BATCH_FAMILIES) * r.size["batch_repeat"]


def batch_mixed(r):
    jobs = write_file(r.h.path("fleet.txt"), fleet_spec(r))
    warm = write_file(r.h.path("warmup.txt"), warmup_spec(r))
    setup = []
    for _ in range(r.size["setup_reps"]):
        done, report = run_batch(r, warm, tag="warmup")
        r.tally.op(done.label("warm-up batch"), exit_0=done.code == 0,
                   all_valid=bool(report) and
                   report["summary"]["valid"] == 2 * len(BATCH_FAMILIES))
        setup.append(done.wall_s)
    runs = timed_loop(r.seconds, lambda i: run_batch(r, jobs))
    n_jobs = expected_jobs(r)
    check_fleet(r, runs, n_jobs)
    walls = [d.wall_s for d, _ in runs]
    summary = (runs[0][1] or {}).get("summary", {})
    metrics = {
        "setup_s": median(setup),
        "latency_p50_ms": median(walls) * 1e3,
        "latency_p90_ms": percentile(walls, 90) * 1e3,
        "throughput_per_s": n_jobs * len(walls) / sum(walls),
        "peak_rss_mib": median([d.peak_rss_mib for d, _ in runs]),
        "sim_rounds": summary.get("total_rounds", 0),
        "msg_bits": summary.get("total_bits", 0),
    }
    notes = [f"{len(walls)} fleet runs of {n_jobs} jobs on "
             f"{BATCH_WORKERS} workers, no snapshot cache"]
    return metrics, notes


def batch_mixed_traced(r):
    jobs = write_file(r.h.path("fleet.txt"), fleet_spec(r))
    cache = r.h.path("snapshot-cache")
    os.makedirs(cache, exist_ok=True)
    plain = [run_batch(r, jobs, tag=f"fleet{i}") for i in range(2)]
    fill = run_batch(r, jobs, cache=cache, tag="fill")
    cached = run_batch(r, jobs, cache=cache, tag="cached")
    serial = run_batch(r, jobs, workers=1, tag="serial")
    n_jobs = expected_jobs(r)
    check_fleet(r, plain + [fill, cached, serial], n_jobs)
    if not all(rep for _, rep in plain + [fill, cached, serial]):
        return {}, ["a fleet run failed; per-layer metrics not computed"]

    wall_ms = median([d.wall_s for d, _ in plain]) * 1e3
    done, report = min(plain, key=lambda run: abs(run[0].wall_s * 1e3
                                                  - wall_ms))
    sched = report["summary"]["t"]
    job_ms = [j["t"]["wall_ms"] for j in report["jobs"]]
    metrics = {
        "sched.steals": sched["steals"],
        "sched.chunks": sched["chunks"],
        "sched.peak_occupancy": sched["peak_occupancy"],
        "sched.peak_queue_depth": sched["peak_queue_depth"],
        "sched.busy_share": ratio(sum(job_ms),
                                  sched["workers"] * done.wall_s * 1e3),
        "batch.job_max_ms": max(job_ms),
        "batch.build_ms": build_ms(wall_ms, cached[0].wall_s * 1e3),
        "batch.worker_speedup": ratio(serial[0].wall_s * 1e3, wall_ms),
    }
    for solver, _ in BATCH_FAMILIES:
        mine = [j for j in report["jobs"] if j["solver"] == solver]
        metrics[f"batch.job_ms.{solver}"] = sum(j["t"]["wall_ms"]
                                                for j in mine)
        metrics[f"batch.rounds.{solver}"] = sum(j["rounds"] for j in mine)
        metrics[f"batch.bits.{solver}"] = sum(j["bits"] for j in mine)
    loaded = cached[1]["summary"]["snapshot_loaded"]
    r.tally.op("cached fleet", instances_mapped=loaded == n_jobs)
    notes = [f"fleet {wall_ms:.0f} ms on {sched['workers']} workers "
             f"(median of 2), {cached[0].wall_s * 1e3:.0f} ms with "
             f"{loaded} instances mapped from the snapshot cache, "
             f"{serial[0].wall_s * 1e3:.0f} ms on 1 worker"]
    return metrics, notes


# ---- serve_repair ----------------------------------------------------------

def session_spec(r):
    n = r.size["serve_n"]
    return f"a:{n}:{2 * r.seed + 1},b:{n}:{2 * r.seed + 2}"


def serve_cpus():
    """The last SERVE_CPUS CPUs this process may run on."""
    return set(sorted(os.sched_getaffinity(0))[-SERVE_CPUS:])


def window_p90s(conns):
    """The repair p90 of every one-second window of every connection. A
    burst of host contention that covers a tenth of the run would carry
    the whole run's p90; the median over windows moves only when most of
    the run is contended."""
    p90s = []
    for c in conns:
        for g in windows(c["at_ms"], c["seconds"] * 1e3):
            if g:
                p90s.append(percentile([c["repair_ms"][i] for i in g], 90))
    return p90s or [0.0]


def median_rate(conns):
    """Requests per second of the closed loops at their median iteration
    time (start to next start), summed over the connections; like the
    window p90, it moves only when most of the run is slow."""
    rate = 0.0
    for c in conns:
        at = c["at_ms"]
        steps = [b - a for a, b in zip(at, at[1:])] or [0.0]
        rate += ratio(1e3 * ratio(c["requests"], len(at)), median(steps))
    return rate


def serve_setup(r):
    """Daemon start, both creates and first solves; returns (pid, port,
    seconds, setup JSON)."""
    start = time.perf_counter()
    pid, port = r.h.start_daemon(SERVE_WORKERS)
    done, data = r.h.probe_json("serve-setup", [
        f"--port={port}", f"--sessions={session_spec(r)}",
        f"--degree={SERVE_DEGREE}", f"--solver={SERVE_SOLVER}"])
    seconds = time.perf_counter() - start
    sessions = data["sessions"] if data else []
    r.tally.op(done.label("serve setup"), exit_0=done.code == 0,
               sessions_ready=len(sessions) == 2 and
               all(not s["error"] for s in sessions))
    return pid, port, seconds, data


def serve_loop(r, port, extra):
    done, data = r.h.probe_json("serve-loop", [
        f"--port={port}", f"--degree={SERVE_DEGREE}", f"--seed={r.seed}",
        *extra])
    if data is None:
        r.tally.op(done.label("serve loop"), exit_0=False)
        return {"connections": []}
    for c in data["connections"]:
        r.tally.ops(f"session {c['session']} requests", c["requests"],
                    c["not_ok"] + c["endpoint_clashes"])
        r.tally.op(f"session {c['session']} final coloring",
                   no_client_error=not c["error"],
                   replay_validates=c["final_valid"])
    return data


def pooled(data, key):
    return [x for c in data["connections"] for x in c[key]]


def stop_daemon(r, pid, port):
    code, rss = r.h.stop_daemon(pid, port)
    r.tally.op("serve shutdown", exit_0=code == 0)
    return rss


def serve_repair(r):
    with r.h.pinned(serve_cpus()):
        return serve_repair_pinned(r)


def serve_repair_pinned(r):
    setup, rss = [], []
    for i in range(r.size["setup_reps"]):
        pid, port, seconds, _ = serve_setup(r)
        setup.append(seconds)
        if i + 1 < r.size["setup_reps"]:
            rss.append(stop_daemon(r, pid, port))
    data = serve_loop(r, port, [
        f"--sessions={session_spec(r)}", f"--seconds={r.seconds}",
        f"--fixed-iters={r.size['serve_fixed_iters']}"])
    rss.append(stop_daemon(r, pid, port))
    repair = pooled(data, "repair_ms") or [0.0]
    conns = data["connections"]
    p90s = window_p90s(conns)
    metrics = {
        "setup_s": median(setup),
        "latency_p50_ms": median(repair),
        "latency_p90_ms": median(p90s),
        "throughput_per_s": median_rate(conns),
        # The daemon peaks while solving, so every set-up daemon counts.
        "peak_rss_mib": median(rss),
        "sim_rounds": sum(c["fixed_rounds"] for c in conns),
        "msg_bits": sum(c["fixed_bits"] for c in conns),
    }
    notes = [f"{len(repair)} repairs on {len(conns)} connections, "
             f"{SERVE_WORKERS} daemon workers, CPUs "
             f"{sorted(serve_cpus())}; p90 is the median over "
             f"{len(p90s)} connection-seconds; rounds and bits over "
             f"the first {r.size['serve_fixed_iters']} repairs per session"]
    return metrics, notes


def serve_repair_traced(r):
    with r.h.pinned(serve_cpus()):
        return serve_repair_traced_pinned(r)


def serve_repair_traced_pinned(r):
    pid, port, _, setup = serve_setup(r)
    try:
        data = serve_loop(r, port, [
            f"--sessions={session_spec(r)}",
            f"--seconds={min(r.seconds, TRACE_LOOP_S)}",
            f"--fixed-iters={r.size['serve_fixed_iters']}"])
        # One repair sequence, ids drawn from the small session's range,
        # on a fresh full-size session and on a small one.
        big_n, small_n = r.size["serve_n"], r.size["serve_small_n"]
        sizes = (f"big:{big_n}:{2 * r.seed + 3},"
                 f"small:{small_n}:{2 * r.seed + 4}")
        done, _ = r.h.probe_json("serve-setup", [
            f"--port={port}", f"--sessions={sizes}",
            f"--degree={SERVE_DEGREE}", f"--solver={SERVE_SOLVER}"])
        r.tally.op(done.label("serve size-ratio setup"),
                   exit_0=done.code == 0)
        iters = r.size["ratio_iters"]
        pair = serve_loop(r, port, [
            f"--sessions={sizes}", f"--node-range={small_n}",
            "--same-sequence", "--seconds=0", f"--fixed-iters={iters}",
            f"--max-iters={iters}"])
    finally:
        stop_daemon(r, pid, port)
    if not data["connections"] or not setup or len(pair["connections"]) != 2:
        return {}, ["the serve loop failed; per-layer metrics not computed"]

    repair = pooled(data, "repair_ms")
    server = pooled(data, "recolor_server_ms")
    overhead = [c - s for c, s in zip(repair, server)]
    dirty = pooled(data, "dirty")
    big, little = (c["recolor_server_ms"] for c in pair["connections"])
    sessions = setup["sessions"]
    metrics = {
        "serve.repair_p99_ms": percentile(repair, 99),
        "serve.mutate_p50_ms": median(pooled(data, "mutate_ms")),
        "serve.recolor_client_p50_ms":
            median(pooled(data, "recolor_client_ms")),
        "serve.recolor_p50_ms": median(server),
        "serve.recolor_p99_ms": percentile(server, 99),
        "serve.overhead_p50_ms": median(overhead),
        "serve.query_p50_ms": median(pooled(data, "read_ms")),
        "serve.create_ms": sum(s["create_ms"] for s in sessions)
        / len(sessions),
        "serve.solve_ms": sum(s["solve_ms"] for s in sessions)
        / len(sessions),
        "core.recolor_dirty_mean": sum(dirty) / len(dirty),
        "core.recolor_dirty_max": max(dirty),
        "core.recolor_changed_mean":
            sum(pooled(data, "changed")) / len(dirty),
        "core.recolor_fallback_share":
            sum(c["fallbacks"] for c in data["connections"]) / len(dirty),
        "core.recolor_size_ratio": ratio(median(big), median(little)),
    }
    notes = [f"{len(repair)} repairs; size ratio from {iters} identical "
             f"repairs on a {big_n}-node and a {small_n}-node session "
             f"(recolor p50 {median(big):.3f} vs {median(little):.3f} ms)"]
    return metrics, notes


WORKLOADS = {
    "color_1m": (color_1m, color_1m_traced),
    "batch_mixed": (batch_mixed, batch_mixed_traced),
    "serve_repair": (serve_repair, serve_repair_traced),
}
