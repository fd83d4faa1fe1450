#!/usr/bin/env python3
"""Repository benchmark: builds stems_perfbench from the checkout's
sources, runs one workload, checks every result cell and prints the
metrics as one JSON object on the last line of stdout.

    python3 perfbench/run.py --workload suite-cold --seed 1 \
        --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics of a separate traced run. See perfbench/README.md for what
each workload and metric means.

Maintainers re-record the reference results (after a change that is
meant to alter simulated results) with

    python3 perfbench/run.py --record-reference 0-40
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference", "cells.json")
WORKLOADS = ("suite-cold", "replay-timed", "store-extend")
# Set-up is a few milliseconds, so it is sampled from several extra
# processes and reported as the median.
SETUP_PROBES = 21

END_TO_END_UNITS = {
    "steps_per_s": "1/s",
    "cpu_ns_per_step": "ns",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "workloads.generate_s": "s",
    "workloads.records": "count",
    "trace.load_s": "s",
    "trace.bytes_read": "bytes",
    "mem.hierarchy_ns_per_record": "ns",
    "mem.l1_hits": "count",
    "mem.l2_hits": "count",
    "mem.offchip_reads": "count",
    "mem.svb_hits": "count",
    "mem.l2_prefetch_hits": "count",
    "prefetch.tms.hook_s": "s",
    "prefetch.sms.hook_s": "s",
    "prefetch.stride.hook_s": "s",
    "core.stems.hook_s": "s",
    "prefetch.tms.hook_calls": "count",
    "prefetch.sms.hook_calls": "count",
    "prefetch.stride.hook_calls": "count",
    "core.stems.hook_calls": "count",
    "prefetch.tms.useful_frac": "fraction",
    "prefetch.sms.useful_frac": "fraction",
    "prefetch.stride.useful_frac": "fraction",
    "core.stems.useful_frac": "fraction",
    "sim.batch_s": "s",
    "sim.lane_self_s": "s",
    "sim.timing_ns_per_record": "ns",
    "sim.driver_idle_frac": "fraction",
    "sim.requested_steps": "count",
    "sim.record_steps": "count",
    "sim.ckpt.encode_s": "s",
    "sim.ckpt.decode_s": "s",
    "sim.ckpt.blob_bytes": "bytes",
    "sim.ckpt.encode_ns_per_byte": "ns/B",
    "sim.ckpt.decode_ns_per_byte": "ns/B",
    "sim.ckpt.skipped_records": "count",
    "store.ckpt.put_s": "s",
    "store.ckpt.get_s": "s",
    "store.trace.get_s": "s",
    "store.bytes_written": "bytes",
    "store.ckpt.hits": "count",
    "obs.trace_overhead_frac": "fraction",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def jobs():
    return len(os.sched_getaffinity(0))


def build():
    """Configure and build stems_perfbench; return the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "driver.hh")):
        raise RuntimeError("simulator sources not found under %s/src" % ROOT)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(jobs())],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "stems_perfbench")


class Bench:
    def __init__(self, binary, workload, seed, work_dir):
        self.binary = binary
        self.workload = workload
        self.common = ["--seed", str(seed), "--work", work_dir,
                       "--jobs", str(jobs())]

    def call(self, command, *extra):
        """Run one subcommand; return (spawn time in ns, its JSON)."""
        argv = [self.binary, command, self.workload] + self.common
        argv += list(extra)
        spawn_ns = time.monotonic_ns()
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError("%s %s failed with code %d" %
                               (command, self.workload, proc.returncode))
        return spawn_ns, json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(spawn_ns, report):
    """Process start (spawn to main, registries included) plus the
    program's own set-up. Both clocks are CLOCK_MONOTONIC."""
    return (report["main_entry_ns"] - spawn_ns) / 1e9 + report["setup_s"]


def load_reference():
    if not os.path.isfile(REFERENCE):
        return {}
    with open(REFERENCE) as f:
        return json.load(f)


def expected_cells(bench, workload, seed):
    """The cell digests this seed must reproduce: the shipped
    reference, or for an unshipped seed a cross-check run through a
    different execution path (one task per cell, no store)."""
    shipped = load_reference().get(workload, {}).get(str(seed))
    if shipped is not None:
        return shipped, "shipped reference"
    _, report = bench.call("crosscheck")
    return report["cells"], "unbatched store-less cross-check"


def count_failed(cells, expected):
    """Failed operations: expected cells missing or different, plus
    cells that should not exist."""
    failed = sum(1 for k, v in expected.items() if cells.get(k) != v)
    return failed + sum(1 for k in cells if k not in expected)


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_end_to_end(bench, args, prep, expected):
    setups = []
    for _ in range(SETUP_PROBES):
        spawn_ns, report = bench.call("setup")
        setups.append(setup_seconds(spawn_ns, report))
    spawn_ns, report = bench.call("measure", "--seconds", str(args.seconds))
    setups.append(setup_seconds(spawn_ns, report))

    steps = prep["requested_steps"]
    reps = report["reps"]
    attempted = failed = 0
    for rep in reps:
        attempted += len(expected)
        failed += count_failed(rep["cells"], expected)
    for i, rep in enumerate(reps):
        print("rep %d: wall %.4f s  cpu %.4f s  requested steps %d  "
              "batch.record_steps %d  store bytes %d" %
              (i, rep["wall_s"], rep["cpu_s"], steps, rep["record_steps"],
               rep["store_bytes"]))
    metrics = {
        "steps_per_s": statistics.median(steps / r["wall_s"] for r in reps),
        "cpu_ns_per_step": statistics.median(
            r["cpu_s"] * 1e9 / steps for r in reps),
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(setups),
    }
    out = {k: metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    return attempted, failed, out


def run_traced(bench, args, prep, expected):
    _, report = bench.call("trace", "--seconds", str(args.seconds))
    runs = report["cells_untraced"] + report["cells_traced"]
    attempted = len(runs) * len(expected)
    failed = sum(count_failed(cells, expected) for cells in runs)
    if not report["traced_matches_untraced"]:
        log("traced results differ from untraced results")
        failed = max(failed, 1)
    layers = dict(report["layers"])
    layers["sim.requested_steps"] = prep["requested_steps"]
    print("traced repetitions: %d  requested steps %d  "
          "batch.record_steps %d" %
          (report["reps"], prep["requested_steps"],
           layers["sim.record_steps"]))
    out = {k: metric(layers[k], PER_LAYER_UNITS[k]) for k in PER_LAYER_UNITS}
    return attempted, failed, out


def run_workload(args):
    binary = build()
    work_dir = os.path.join(ROOT, ".bench_work", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        bench = Bench(binary, args.workload, args.seed, work_dir)
        traced = ["--traced"] if args.trace else []
        _, prep = bench.call("prepare", *traced)
        expected, source = expected_cells(bench, args.workload, args.seed)
        print("workload %s seed %d: inputs prepared in %.2f s; %d cells "
              "checked against the %s" % (args.workload, args.seed,
                                          prep["prepare_s"], len(expected),
                                          source))
        runner = run_traced if args.trace else run_end_to_end
        attempted, failed, metrics = runner(bench, args, prep, expected)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if not os.listdir(os.path.dirname(work_dir)):
            os.rmdir(os.path.dirname(work_dir))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_reference(seeds):
    binary = build()
    reference = load_reference()
    for workload in WORKLOADS:
        work_dir = os.path.join(ROOT, ".bench_work", workload)
        for seed in seeds:
            shutil.rmtree(work_dir, ignore_errors=True)
            bench = Bench(binary, workload, seed, work_dir)
            bench.call("prepare")
            _, report = bench.call("measure", "--seconds", "0")
            reference.setdefault(workload, {})[str(seed)] = \
                report["reps"][0]["cells"]
            log("recorded %s seed %d" % (workload, seed))
        shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", metavar="SEEDS")
    args = parser.parse_args()
    try:
        if args.record_reference:
            record_reference(parse_seeds(args.record_reference))
        elif args.workload:
            run_workload(args)
        else:
            parser.error("--workload is required")
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("perfbench: %s" % e)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
