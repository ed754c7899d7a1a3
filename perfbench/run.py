#!/usr/bin/env python3
"""End-to-end benchmark of the shipped HYDRA regenerator.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload wlc-cold --seed 1 --seconds 10 --trace 0

Builds the `hydra` CLI and the in-process driver (perfbench/bench.ml) in
release mode under .bench_build/, then runs one workload:

  1. in each of a few rounds:
     - set-up (bench.exe setup): client database(s), CC harvest, specs;
     - summary phases: the built `hydra summary` binary, one child process
       at a time, with no --jobs / --solve-mode flag and no HYDRA_*
       variable, so the CLI's shipped defaults are what is measured;
     - dynamic regeneration (bench.exe measure): datagen supply, random
       access and query replay (and, traced, materialization), each phase
       in a process of its own;
  2. every correctness check (bench.exe check).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1). See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import itertools
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
HYDRA = os.path.join(BUILD, "default", "bin", "hydra_cli.exe")
BENCH = os.path.join(BUILD, "default", "perfbench", "bench.exe")
WORKLOADS = ("wlc-cold", "job-drift")
EPOCHS = 3  # warm runs per sequence; bench.ml's drift_epochs
ROUNDS = 3  # rounds of set-up, summary runs and phases in an untraced run
# materialization is timed in the traced run only: its throughput spread a
# third of its median over ten runs (see README), too wide to gate on
PHASES = ("supply", "access", "replay")
TRACED_PHASES = ("materialize",) + PHASES
SOURCES = ("dune-project", "bin/hydra_cli.ml", "lib/core/tuple_gen.ml",
           "perfbench/bench.ml", "perfbench/dune")

# child processes never see the caller's HYDRA_* settings
CLEAN_ENV = {k: v for k, v in os.environ.items() if not k.startswith("HYDRA_")}

VIEW_LINE = re.compile(r"^\s+view\s+(\S+)\s+\d+ LP vars\s+\d+ constraints\s+"
                       r"[\d.]+s\s+(\S+)")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    missing = [s for s in SOURCES if not os.path.isfile(os.path.join(ROOT, s))]
    if missing:
        die("not a HYDRA checkout, missing: " + ", ".join(missing))
    if shutil.which("dune") is None:
        die("dune is not on PATH")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD,
           "--cache=disabled", "--profile", "release",
           "./bin/hydra_cli.exe", "./perfbench/bench.exe"]
    r = subprocess.run(cmd, cwd=ROOT, env=CLEAN_ENV, capture_output=True,
                       text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        die("build failed")


class Runner:
    """Runs children one at a time, recording wall time, and the peak RSS
    of the children that run a timed phase."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.peak_rss_kb = 0
        self.failed = 0
        self.attempted = 0

    def run(self, name, args, timed=True):
        """Returns (exit code, seconds, stdout)."""
        out_path = os.path.join(self.workdir, name + ".out")
        with open(out_path, "wb") as out:
            t0 = time.perf_counter()
            p = subprocess.Popen(args, cwd=self.workdir, env=CLEAN_ENV,
                                 stdout=out)
            _, status, usage = os.wait4(p.pid, 0)
            wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        if timed:
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        with open(out_path) as f:
            text = f.read()
        return p.returncode, wall, text

    def json_tail(self, name, args, timed=True):
        code, _, text = self.run(name, args, timed)
        if code != 0:
            die("%s exited with %d" % (name, code))
        return json.loads(text.strip().splitlines()[-1])


def statuses(text, as_json):
    """The status word of every view a summary run reported."""
    if as_json:
        return [v["status"] for v in json.loads(text)["views"]]
    return [m.group(2) for m in map(VIEW_LINE.match, text.splitlines()) if m]


def counter(report, name):
    return report["metrics"]["counters"].get(name, 0)


def du(path):
    total = 0
    for d, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(d, f)) for f in files)
    return total


def summary_flags(workload, wd, group, run):
    """Flags of one summary run beside the spec and output. The runs of a
    group share one solve cache. job-drift runs as a scheduled regeneration
    would: it also journals each run and archives it in the group's ledger."""
    d = os.path.join(wd, group)
    flags = ["--cache-dir", os.path.join(d, "cache")]
    if workload == "job-drift":
        flags += ["--state-dir", os.path.join(d, "state", run),
                  "--obs-dir", os.path.join(d, "obs")]
    return flags


def probe(runner):
    """What the CLI resolves in this environment: its jobs count, and whether
    the float shadow simplex ran."""
    shutil.copy(os.path.join(ROOT, "perfbench", "probe.hydra"), runner.workdir)
    code, _, text = runner.run("probe", [
        HYDRA, "summary", os.path.join(runner.workdir, "probe.hydra"),
        "-o", os.path.join(runner.workdir, "probe.summary"), "--json"],
        timed=False)
    if code != 0:
        die("the probe summary exited with %d" % code)
    runner.attempted += 1
    report = json.loads(text)
    return {"nproc": os.cpu_count(), "cli_jobs": report["jobs"],
            "float_shadow": counter(report, "simplex.float_pivots") > 0}


def run_workload(args, wd, runner):
    """Returns the metrics of one run and the number of failed checks."""
    trace = args.trace == 1
    common = ["--workload", args.workload, "--dir", wd]
    if args.data_seed is not None:
        common += ["--data-seed", str(args.data_seed)]
    checks_failed = 0
    reports = {}

    def summarize(name, extra, json_out, timed=True):
        nonlocal checks_failed
        cmd = [HYDRA, "summary", os.path.join(wd, name + ".hydra"),
               "-o", os.path.join(wd, name + ".summary")] + extra
        if json_out:
            cmd.append("--json")
        code, wall, text = runner.run(name, cmd, timed)
        runner.attempted += 1
        if code != 0:
            runner.failed += 1
            print("summary %s exited with %d" % (name, code), file=sys.stderr)
            return wall
        st = statuses(text, json_out)
        runner.attempted += len(st)
        bad = [s for s in st if s != "exact"]
        if not st or bad:
            checks_failed += max(1, len(bad))
            print("summary %s: views not exact: %s" % (name, bad),
                  file=sys.stderr)
        if json_out:
            reports[name] = json.loads(text)
        return wall

    # A cold run starts from empty stores. A warm sequence runs the epochs
    # from a copy of the stores the last cold run left.
    colds, drifts = [], []
    sequences = itertools.count(1)

    def cold():
        group = "cold%d" % (len(colds) + 1)
        colds.append(summarize(
            "cold", summary_flags(args.workload, wd, group, "cold"), trace))

    def start_sequence():
        group = "drift%d" % next(sequences)
        shutil.copytree(os.path.join(wd, "cold%d" % len(colds)),
                        os.path.join(wd, group))
        return group

    def epoch(group, i):
        run = "epoch%d" % i
        return summarize(run, summary_flags(args.workload, wd, group, run),
                         trace)

    def warm():
        group = start_sequence()
        drifts.append(sum(epoch(group, i) for i in range(1, EPOCHS + 1)))

    def fill(step, samples, budget):
        """Repeats step while its next sample fits in budget seconds."""
        t0 = time.perf_counter()
        while time.perf_counter() - t0 + samples[-1] <= budget:
            step()

    def untraced_cold():
        # the same cold run untraced, in its own directories
        return summarize(
            "cold", summary_flags(args.workload, wd, "untraced", "cold"),
            False, timed=False)

    # Set-up, summary runs and the in-process phases interleave in rounds,
    # so that a slow spell of the host lands on every metric a little
    # instead of on all the samples of one. Each round:
    # - sets up once;
    # - runs a cold run (after the first round, only if the first took no
    #   longer than --seconds), then more while the next one fits in its
    #   share of the budget;
    # - likewise runs warm sequences. The first sequence stops for the round
    #   once it overruns that share: a sequence that long is not repeated,
    #   and running one epoch per round keeps a single slow spell off all
    #   of its epochs;
    # - runs each phase in a process of its own, so that none runs on a
    #   heap another left behind. The phases read the cold run's summary.
    # One round when traced.
    rounds = 1 if trace else ROUNDS
    share = args.seconds / (2 * rounds)
    phases = TRACED_PHASES if trace else PHASES
    budget = args.seconds / (2 * len(phases) * rounds)
    setups, samples, work = [], {p: [] for p in phases}, {}
    measure_args = common + ["--seed", str(args.seed)]
    sequence = None  # the first warm sequence: group, next epoch, seconds
    for r in range(rounds):
        setups.append(runner.json_tail("setup", [BENCH, "setup"] + common))
        if r == 0:
            # The tracing overhead is one difference of two cold runs; the
            # seed's parity picks which of them goes first.
            untraced = untraced_cold() if trace and args.seed % 2 else None
            cold()
            if trace and untraced is None:
                untraced = untraced_cold()
            sequence = [start_sequence(), 1, 0.0]
            if os.path.exists(os.path.join(wd, "exabyte.hydra")):
                summarize("exabyte", [], False, timed=False)
            env = probe(runner)
        elif colds[0] <= args.seconds:
            cold()
        if sequence is not None:
            group, i, total = sequence
            while i <= EPOCHS:
                total += epoch(group, i)
                i += 1
                if r < rounds - 1 and total > share:
                    break
            sequence = [group, i, total]
            if i > EPOCHS:
                drifts.append(total)
                sequence = None
        if not trace:
            fill(cold, colds, share)
            if drifts:
                fill(warm, drifts, share)
        for p in phases:
            out = runner.json_tail(p, [
                BENCH, "measure", "--phase", p, "--budget", str(budget)]
                + measure_args)
            samples[p] += out["samples"]
            work[p] = out["work_per_call"]
            runner.attempted += out["attempted"]
    per_call = {p: statistics.median(samples[p]) for p in phases}
    checked = runner.json_tail("check", [BENCH, "check"] + measure_args,
                               timed=False)
    runner.attempted += checked["attempted"]
    checks_failed += checked["failed"]
    print("environment: " + json.dumps(env))
    print("samples: setups %d, cold summaries %d, warm sequences of %d "
          "epochs %d; %s (each the mean of calls over >= 0.1 s)" % (
              len(setups), len(colds), EPOCHS, len(drifts),
              ", ".join("%s %d" % (p, len(samples[p])) for p in phases)))

    if not trace:
        final = os.path.join(wd, "epoch%d.summary" % EPOCHS)
        return {
            "setup_s": (statistics.median(x["setup_s"] for x in setups),
                        "s"),
            "summary_s": (statistics.median(colds), "s"),
            "drift_s": (statistics.median(drifts), "s"),
            "summary_bytes": (os.path.getsize(final), "bytes"),
            "peak_rss_mb": (runner.peak_rss_kb / 1024.0, "MiB"),
            "supply_rows_per_s":
                (work["supply"] / per_call["supply"], "rows/s"),
            "random_access_ns":
                (per_call["access"] * 1e9 / work["access"], "ns"),
            "replay_s": (per_call["replay"], "s"),
        }, checks_failed

    traced = runner.json_tail("trace", [BENCH, "trace"] + measure_args,
                              timed=False)
    setup = setups[0]
    first = reports["cold"]
    runs = [first] + [reports["epoch%d" % i] for i in range(1, EPOCHS + 1)]
    views = first["views"]
    solve = [v["solve_seconds"] for v in views]

    def total(name):
        return sum(counter(r, name) for r in runs)

    store = [os.path.join(wd, "drift1", d) for d in ("cache", "state", "obs")]
    layer = {
        "benchmarks.generate_s": (setup["benchmarks.generate_s"], "s"),
        "workload.harvest_s": (setup["workload.harvest_s"], "s"),
        "workload.ccs": (setup["workload.ccs"], "count"),
        "formulate.lp_vars": (sum(v["lp_vars"] for v in views), "count"),
        "formulate.lp_vars_max": (max(v["lp_vars"] for v in views), "count"),
        "formulate.lp_rows_max":
            (max(v["lp_constraints"] for v in views), "count"),
        "lp.solve_s": (sum(v["solve_seconds"] for r in runs
                           for v in r["views"]), "s"),
        "lp.view_s_max": (max(solve), "s"),
        "lp.simplex_iterations": (total("simplex.iterations"), "count"),
        "lp.simplex_pivots": (total("simplex.pivots"), "count"),
        "lp.degenerate_pivots": (total("simplex.degenerate_pivots"), "count"),
        "lp.float_pivots": (total("simplex.float_pivots"), "count"),
        "lp.verify_repairs": (total("simplex.verify_repairs"), "count"),
        "lp.bnb_nodes": (total("bnb.nodes"), "count"),
        "par.jobs": (first["jobs"], "count"),
        "par.critical_path_frac": (max(solve) / colds[0], "ratio"),
        "summary.assemble_s": (first["assemble_seconds"], "s"),
        "summary.rows": (first["summary"]["rows"], "count"),
        "summary.extra_tuples":
            (sum(first["summary"]["extra_tuples"].values()), "count"),
        "cache.hits": (total("cache.hit"), "count"),
        "cache.warm_hits": (total("cache.warm_hit"), "count"),
        "cache.misses": (total("cache.miss"), "count"),
        "cache.stores": (total("cache.store"), "count"),
        "store.bytes_on_disk": (sum(du(p) for p in store), "bytes"),
        "obs.ledger_bytes": (du(store[2]), "bytes"),
        "obs.trace_overhead_s": (colds[0] - untraced, "s"),
        "tuple_gen.materialize_s": (per_call["materialize"], "s"),
        "tuple_gen.rows": (work["materialize"], "count"),
        "tuple_gen.supply_s": (per_call["supply"], "s"),
    }
    units = {"_s": "s", "_ns_p99": "ns", "_ms_p50": "ms", "_ms_p80": "ms"}
    for k, v in traced.items():
        unit = next((u for suf, u in units.items() if k.endswith(suf)),
                    "count")
        layer[k] = (v, unit)
    return layer, checks_failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True,
                    help="seeds the random-access positions and the columns "
                         "read")
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring budget of the summary runs (half cold, "
                         "half warm), and half as much again for the "
                         "in-process phases")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--data-seed", type=int, default=None,
                    help="seed of the client database and query generators "
                         "(default: the generators' own)")
    args = ap.parse_args()

    build()
    wd = os.path.join(BUILD, "run", args.workload)
    shutil.rmtree(wd, ignore_errors=True)
    os.makedirs(wd)
    runner = Runner(wd)
    metrics, checks_failed = run_workload(args, wd, runner)
    print(json.dumps({
        "correct": checks_failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
