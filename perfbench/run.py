#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--jobs J]

Run from the repository root. The first call builds the repository's
libraries with its own CMake project into .bench_build/ffc, then the
benchmark binary (perfbench/CMakeLists.txt) into .bench_build/perfbench;
later calls rebuild only what changed.

The result is one JSON object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. wall_s and setup_s are medians of the times
divided by the host's slowdown over them (README.md, "Host speed"). A
traced run also writes its spans to .bench_build/traces/ and prints each
layer's self time on stderr. The raw measurement document of every run,
with every host probe, is kept in .bench_build/runs/ (read by steady.py).
Any failed output check exits 1.
"""

import argparse
import json
import subprocess
import sys
import time
from collections import defaultdict

sys.dont_write_bytecode = True  # keep the source tree free of caches
import benchlib  # noqa: E402

ROOT = benchlib.HERE.parent
BUILD = ROOT / ".bench_build"
LIB_TARGETS = ["ffc_sim", "ffc_spectral", "ffc_search"]
BUILD_JOBS = "4"
# A run ends about --seconds after it starts, plus at most one repetition
# and a traced run's replays; a binary still running after this is hung.
TIMEOUT_FACTOR = 2
TIMEOUT_MARGIN_S = 60


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Build the libraries and the benchmark binary; return its path."""
    logfile = BUILD / "build.log"
    BUILD.mkdir(exist_ok=True)
    lib_dir = BUILD / "ffc"
    bench_dir = BUILD / "perfbench"
    steps = [
        ["cmake", "-S", str(ROOT), "-B", str(lib_dir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(lib_dir), "-j", BUILD_JOBS, "--target"]
        + LIB_TARGETS,
        ["cmake", "-S", str(benchlib.HERE), "-B", str(bench_dir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo", f"-DFFC_BUILD_DIR={lib_dir}"],
        ["cmake", "--build", str(bench_dir), "-j", BUILD_JOBS],
    ]
    with open(logfile, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                out.flush()
                tail = logfile.read_text().splitlines()[-25:]
                log("\n".join(tail))
                raise SystemExit(f"perfbench: build failed: {' '.join(step)}")
    return bench_dir / "perfbench"


# ---- result assembly -------------------------------------------------------

def per_layer(doc):
    """Every per-layer metric of a traced run, by name."""
    spans = benchlib.build_spans(doc["spans"])
    by_run = defaultdict(list)
    for s in spans.values():
        by_run[s.run].append(s)
    labels = doc["runs"]
    setup_runs = [r for r, label in enumerate(labels) if label == "setup"]
    rep_runs = [r for r, label in enumerate(labels) if label == "rep"]
    replay_spans = [s for r, label in enumerate(labels) if label == "replay"
                    for s in by_run[r]]
    values = doc["values"]
    batch = doc["setup_batch"]

    def med(xs):
        return benchlib.median(xs) if xs else 0.0

    def per_setup(match):
        return med([sum(s.duration for s in by_run[r] if match(s.name)) / batch
                    for r in setup_runs])

    def per_rep(name):
        return med([sum(s.duration for s in by_run[r] if s.name == name)
                    for r in rep_runs])

    def durations(name, spans_iter):
        return [s.duration for s in spans_iter if s.name == name]

    rep_spans = [s for r in rep_runs for s in by_run[r]]
    roots = [s for r in rep_runs for s in by_run[r]
             if s.name == "solve" and s.parent == 0]
    selfs = [benchlib.layer_self_times(root) for root in roots]

    def self_of(*layers):
        return med([sum(t.get(layer, 0.0) for layer in layers) for t in selfs])

    m = {}
    m["network.build_s"] = per_setup(lambda n: n.startswith("network."))
    m["network.slots"] = values.get("network.slots", 0)
    m["core.fair_steady_state_s"] = per_rep("core.fair_steady_state")
    m["core.fixed_point_s"] = per_rep("core.solve_fixed_point")
    m["core.fixed_point_iterations"] = values.get("core.fixed_point_iterations", 0)
    m["spectral.stability_s"] = per_rep("spectral.spectral_stability")
    for key in ("model_evaluations", "analytic_jvp", "unit_modes_deflated",
                "jvp_applications"):
        m["spectral." + key] = values.get("spectral." + key, 0)
    m["spectral.jvp_s"] = sum(durations("replay.spectral.jvp_apply",
                                        replay_spans))
    m["linalg.eigen_self_s"] = sum(
        benchlib.self_time(s) for s in replay_spans
        if s.name == "replay.linalg.iterative_eigenvalues")
    m["linalg.arnoldi_used"] = values.get("linalg.arnoldi_used", 0)
    m["linalg.residual"] = values.get("linalg.residual", 0)

    m["sim.construct_s"] = per_setup(lambda n: n == "sim.construct")
    m["sim.set_rates_s"] = per_setup(lambda n: n == "sim.set_rates")
    m["sim.rss_after_setup_mb"] = values.get("sim.rss_after_setup_mb", 0)
    m["sim.run_s"] = per_rep("sim.run_for")
    m["sim.events"] = values.get("sim.events", 0)
    wall = benchlib.median(doc["wall_norm_s"])
    m["sim.events_per_s"] = m["sim.events"] / wall if wall else 0.0
    m["sim.calendar_high_water"] = values.get("sim.calendar_high_water", 0)
    m["sim.loop_epochs"] = values.get("sim.loop_epochs", 0)
    epochs = durations("sim.loop_epoch", rep_spans)
    m["sim.loop_epoch_p50_s"] = benchlib.percentile(epochs, 50) if epochs else 0.0
    m["sim.loop_epoch_p90_s"] = benchlib.percentile(epochs, 90) if epochs else 0.0
    replayed = durations("replay.sim.des_epoch", replay_spans)
    m["sim.loop_des_replay_s"] = sum(replayed)
    # The replay re-runs the last traced repetition's epochs.
    last_loop = (sum(durations("sim.loop_epoch", by_run[rep_runs[-1]]))
                 if rep_runs else 0.0)
    m["sim.loop_outside_des_s"] = last_loop - sum(replayed) if replayed else 0.0

    m["search.evaluations"] = values.get("search.evaluations", 0)
    m["search.generations"] = values.get("search.generations", 0)
    evals = durations("search.evaluate", rep_spans)
    m["search.eval_p50_s"] = benchlib.percentile(evals, 50) if evals else 0.0
    m["search.eval_p99_s"] = benchlib.percentile(evals, 99) if evals else 0.0
    m["exec.busy_s"] = per_rep("search.evaluate")
    workers = values.get("exec.workers", 0)
    idle = []
    for r in rep_runs:
        searches = durations("search.cross_entropy_search", by_run[r])
        busy = sum(durations("search.evaluate", by_run[r]))
        if searches and workers:
            idle.append(1.0 - busy / (workers * sum(searches)))
    m["exec.idle_frac"] = med(idle)

    for layer in ("network", "core", "spectral", "sim", "search",
                  "unattributed"):
        m[f"self.{layer}_s"] = self_of(layer)
    # Share of all attributed time (summed over threads for hunt), which
    # for a single-threaded workload is the share of the traced wall time.
    m["self.spectral_linalg_frac"] = med(
        [(t.get("spectral", 0.0) + t.get("linalg", 0.0)) / sum(t.values())
         for t in selfs if sum(t.values()) > 0])

    m["proc.cpu_s"] = doc["cpu_s"]
    m["proc.minor_faults"] = doc["minor_faults"]
    traced_wall = min(doc["wall_traced_s"])
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_frac"] = traced_wall / min(doc["wall_s"]) - 1.0
    m["host.wall_raw_s"] = benchlib.median(doc["wall_s"])
    m["host.setup_raw_s"] = benchlib.median(doc["setup_s"])
    m["host.slowdown"] = benchlib.median(doc["slowdown"])
    return m, selfs, roots


def end_to_end(doc):
    return {
        "wall_s": benchlib.median(doc["wall_norm_s"]),
        "setup_s": benchlib.median(doc["setup_norm_s"]),
        "peak_rss_mb": doc["peak_rss_mb"],
    }


def print_self_summary(workload, selfs, roots):
    if not roots:
        return
    wall = benchlib.median([r.duration for r in roots])
    total = benchlib.median([sum(t.values()) for t in selfs])
    log(f"{workload}: self time per layer, median of {len(roots)} traced "
        f"repetition(s); traced wall {wall:.4f} s, attributed {total:.4f} s "
        "(summed over threads)")
    layers = sorted({k for t in selfs for k in t},
                    key=lambda k: -benchlib.median([t.get(k, 0.0) for t in selfs]))
    for layer in layers:
        v = benchlib.median([t.get(layer, 0.0) for t in selfs])
        log(f"  {layer:<14} {v:10.4f} s  {100.0 * v / total:6.1f} %")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--jobs", type=int, default=2,
                    help="hunt's evaluation workers (default 2)")
    args = ap.parse_args(argv)

    bench = benchlib.load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        ap.error(f"--workload must be one of {', '.join(names)}")
    if (not 0 <= args.seed < 2**64 or not 1 <= args.seconds <= 3600
            or not 1 <= args.jobs <= 64):
        ap.error("--seed must be in [0, 2^64), --seconds in [1, 3600], "
                 "--jobs in [1, 64]")

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--jobs", str(args.jobs),
           "--spec", str(benchlib.HERE / "hunt.spec")]
    started = time.monotonic()
    timeout = TIMEOUT_FACTOR * args.seconds + TIMEOUT_MARGIN_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {args.workload} did not finish within "
                         f"{timeout} s")
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError:
        raise SystemExit(f"perfbench: {args.workload} exited {proc.returncode} "
                         "without a measurement document")
    log(f"perfbench: {args.workload} seed {args.seed} ran "
        f"{time.monotonic() - started:.1f} s")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-jobs{args.jobs}"
    (BUILD / "runs").mkdir(exist_ok=True)
    (BUILD / "runs" / f"{tag}.json").write_text(json.dumps(doc))

    traced = args.trace == "1"
    if traced:
        values, selfs, roots = per_layer(doc)
        specs = bench["per_layer"]
        (BUILD / "traces").mkdir(exist_ok=True)
        (BUILD / "traces" / f"{tag}.json").write_text(
            json.dumps({"runs": doc["runs"], "spans": doc["spans"]}))
        print_self_summary(args.workload, selfs, roots)
    else:
        values = end_to_end(doc)
        specs = bench["end_to_end"]
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
               for s in specs}
    for failure in doc["failures"]:
        log(f"perfbench: check failed: {failure}")
    correct = proc.returncode == 0 and doc["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
