#!/usr/bin/env python3
"""Repository benchmark: builds the sort driver and runs one workload.

    python3 sortbench/run.py --workload paper_p52 --seed 1 --seconds 25 \
        --trace 0
    python3 sortbench/run.py --workload all --seed 1 --seconds 25

Builds sortbench/ (a CMake package over ../src) into $CARGO_TARGET_DIR
(default .bench_build), then runs the workload for --seconds in a closed
loop: one sort at a time, each in its own driver process, so an abort is
counted as a failed sort and peak RSS never carries over between sorts.
Every sort is validated (order, global order, permutation, provenance).
The i-th sort of a run uses a seed derived from (--seed, i), so one --seed
always gives the same inputs.

--trace 0 reports the end-to-end metrics of untraced sorts; --trace 1 runs
each sort twice (untraced, then with telemetry, a sim::Trace and host-clock
spans) and reports the per-layer metrics. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The line before
it records the provenance of the run and, for every sort, its seed, the
digests of its input and output and every simulated number: two runs of one
--seed must print identical "sorts" lists.

--scale tiny and --corrupt 1 exist for selftest.py.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("paper_p52", "scale_p1024", "skew_hist_p256", "lossy_ams_p256")

# (name, unit): reported with --trace 0, from the untraced sorts.
END_TO_END = (
    ("setup_s", "s"),
    ("sort_s", "s"),
    ("validate_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_time_ms", "ms"),
    ("imbalance", "ratio"),
)

# (name, unit): reported with --trace 1. Host-clock numbers come from the
# driver's "layer" block, simulated ones from its "sim" block.
PER_LAYER = (
    ("datagen.gen_s", "s"),
    ("runtime.cluster_init_s", "s"),
    ("runtime.comm.frames_sent", "count"),
    ("runtime.comm.retransmits", "count"),
    ("runtime.comm.acks_sent", "count"),
    ("runtime.comm.duplicates_suppressed", "count"),
    ("runtime.comm.first_try_ratio", "ratio"),
    ("runtime.pool.leases", "count"),
    ("runtime.pool.fresh_allocs", "count"),
    ("runtime.pool.reuse_ratio", "ratio"),
    ("runtime.pool.peak_free", "count"),
    ("runtime.mem.peak_mib", "MiB"),
    ("sim.events", "count"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.wait.mailbox_waits", "count"),
    ("sim.wait.barrier_waits", "count"),
    ("sim.wait.pool_waits", "count"),
    ("sim.wait.holds_added", "count"),
    ("sim.wait.deadlock_checks", "count"),
    ("sim.wait.max_blocked", "count"),
    ("net.messages", "count"),
    ("net.bytes", "B"),
    ("net.tx_busy_max_ms", "ms"),
    ("net.dropped", "count"),
    ("net.duplicated", "count"),
    ("sort.local_sort_replay_s", "s"),
    ("ref.std_sort_s", "s"),
    ("core.step.local_sort_ms", "ms"),
    ("core.step.sampling_ms", "ms"),
    ("core.step.splitter_select_ms", "ms"),
    ("core.step.partition_plan_ms", "ms"),
    ("core.step.exchange_ms", "ms"),
    ("core.step.final_merge_ms", "ms"),
    ("core.partition.rounds", "count"),
    ("core.partition.sample_keys", "count"),
    ("core.partition.probe_keys", "count"),
    ("core.partition.level1_items", "count"),
    ("core.partition.control_bytes", "B"),
    ("core.partition.data_bytes", "B"),
    ("core.run_s", "s"),
    ("obs.report_s", "s"),
    ("obs.telemetry_overhead_s", "s"),
    ("error_rate", "ratio"),
)

# Set-up-only driver processes per --trace 0 run. Each sort process also
# sets up once; setup_s is the median over all of these cold set-ups.
SETUP_PROCESSES = 5
# A sort that has not finished this long after the build is killed and
# counted as failed, so a run ends well within its 180 s.
RUN_DEADLINE_S = 165.0
# Characters kept of each of the last three stderr lines of a failed sort.
FAILURE_LINE_CHARS = 400


def log(msg):
    print(f"sortbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    return target.resolve() / "sortbench"


def build():
    """Configures (once) and builds the driver; returns its path."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs,
                    "--target", "sortbench_driver"],
                   stdout=sys.stderr, check=True)
    return out / "sortbench_driver"


def git_revision():
    """HEAD with a -dirty marker, or "unknown" outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(ROOT), "status",
                                "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True, env=env,
                               check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("-dirty" if dirty else "")


def source_digest():
    """sha256 over src/ and sortbench/: names the code even without git."""
    h = hashlib.sha256()
    for top in ("src", "sortbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def run_sort(driver, workload, args, seed, mode, spans, timeout):
    """One driver process; returns (result dict or None, failure text)."""
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--scale", args.scale, "--corrupt",
           str(args.corrupt)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return None, "sort did not finish before the run deadline"
    if proc.returncode != 0:
        # A wait-graph abort lists every blocked rank on one line (tens of
        # KiB at p=1024); its head names the check and the first ranks.
        tail = [line[:FAILURE_LINE_CHARS]
                for line in proc.stderr.strip().splitlines()[-3:]]
        return None, (f"driver exited with {proc.returncode}: "
                      + " | ".join(tail))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, None if result.get("ok", True) else result["failure"]


def sort_seed(seed, i):
    """Seed of the i-th sort of a run. Each sort draws fresh inputs and a
    fresh fault stream, so a run's medians average over the seed-driven
    variation (drop patterns on lossy_ams_p256 move sim_time_ms by +-20%)
    instead of reporting one draw of it."""
    digest = hashlib.sha256(f"{seed}:{i}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def measure(driver, workload, args, traced):
    """Runs one workload for args.seconds; returns the two output lines."""
    spans_dir = build_dir() / "spans"
    if traced:
        spans_dir.mkdir(exist_ok=True)

    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    setups, results, failures, took = [], [], [], []
    for i in range(0 if traced else SETUP_PROCESSES):
        # Negative indices keep set-up seeds apart from the sorts' seeds.
        result, failure = run_sort(driver, workload, args,
                                   sort_seed(args.seed, -1 - i), "setup",
                                   None, deadline - time.monotonic())
        if failure is not None:
            failures.append(failure)
            log(f"{workload} set-up {i} failed: {failure}")
        else:
            setups.append(result["setup_s"])
    # Closed loop: the next sort starts when the previous one is done, and
    # only if it is expected to end within the window (at least one runs).
    while True:
        t0 = time.monotonic()
        seed = sort_seed(args.seed, len(took))
        spans = spans_dir / f"{workload}-seed{seed}.json" if traced else None
        result, failure = run_sort(driver, workload, args, seed,
                                   "traced" if traced else "plain", spans,
                                   deadline - t0)
        took.append(time.monotonic() - t0)
        if result is not None:
            results.append(result)
        if failure is not None:
            failures.append(failure)
            log(f"{workload} sort {len(took)} (seed {seed}) failed: {failure}")
        if time.monotonic() + statistics.mean(took) > start + args.seconds:
            break
    if not results:
        return None

    # Every driver process is one attempt: set-ups and sorts.
    attempted = len(took) + (0 if traced else SETUP_PROCESSES)
    # Host-clock numbers are medians, robust to a slow sort. Simulated
    # numbers are exact for their seed, so they are means: the expected
    # value over the run's inputs and drop patterns, which varies less
    # from run to run than the median of the same sorts.
    host = {"setup_s": setups + [r["setup_s"] for r in results]}
    for name in ("sort_s", "validate_s", "peak_rss_mib"):
        host[name] = [r[name] for r in results]
    if traced:
        for name in results[0]["layer"]:
            host[name] = [r["layer"][name] for r in results]
        host["error_rate"] = [len(failures) / attempted]
    metrics = {}
    for name, unit in PER_LAYER if traced else END_TO_END:
        value = (statistics.median(host[name]) if name in host else
                 statistics.fmean(r["sim"][name] for r in results))
        metrics[name] = {"value": value, "unit": unit}

    first = results[0]
    provenance = {"provenance": {
        "git": git_revision(),
        "source_sha256": source_digest(),
        "build_type": first["build_type"],
        "compiler": first["compiler"],
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": args.seed,
        "scale": args.scale,
        "sort_config": first["config"],
        "failures": failures,
    }, "sorts": [{"seed": r["seed"], "input_digest": r["input_digest"],
                  "output_digest": r["output_digest"], "sim": r["sim"]}
                 for r in results]}
    return provenance, {"correct": not failures, "attempted": attempted,
                        "failed": len(failures), "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them in both trace modes")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="required unless --workload all")
    ap.add_argument("--scale", default="full", choices=("full", "tiny"))
    ap.add_argument("--corrupt", default=0, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (False, True)]
    elif args.trace is None:
        ap.error("--trace is required")
    else:
        runs = [(args.workload, args.trace == 1)]

    if not (ROOT / "src" / "core" / "distributed_sort.hpp").is_file():
        log(f"no sorter sources under {ROOT / 'src'}")
        return 1
    try:
        driver = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    for workload, traced in runs:
        lines = measure(driver, workload, args, traced)
        if lines is None:
            log(f"{workload}: no sort produced a result")
            return 1
        for line in lines:
            print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
