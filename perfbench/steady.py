#!/usr/bin/env python3
"""Steadiness check of the benchmark on one build.

    python3 perfbench/steady.py [--runs 10] [--workloads certify,hunt]

Runs two sets of the same build. Each set runs every workload once per seed
(seeds 1 .. runs) through run.py, untraced, for BENCHMARK.json's
run_seconds. The sets run in pairs -- the same workload and seed in set A
and in set B back to back -- alternating which set goes first, so a drift
of the shared host hits both sets alike. Then:

  * every end-to-end metric gets its median and quartiles per set, its
    spread (quartile distance over median) and the relative distance
    between the two sets' medians. A spread above the metric's bound
    (setup_s excepted, as in the acceptance rule) or two medians further
    apart than the bound is flagged; a spread above a third of the bound
    is reported as not yet steady;
  * every count-type value (unit "count": events, evaluations, iterations,
    model evaluations ...) and the output fingerprint must repeat exactly
    for the same seed across the two sets;
  * one traced run per workload per set gives the per-layer metrics, whose
    counts must repeat exactly, and hunt is traced once more at 1 worker:
    its counts and evaluation log must equal the 2-worker run's.

Exits 1 if anything is flagged. The summary is also written to
.bench_build/steady/summary.json.
"""

import argparse
import json
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the source tree free of caches
import benchlib  # noqa: E402

ROOT = benchlib.HERE.parent
OUT = ROOT / ".bench_build" / "steady"


def run_one(workload, seed, seconds, trace, jobs=2):
    cmd = [sys.executable, str(benchlib.HERE / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--jobs", str(jobs)]
    tag = f"{workload}-seed{seed}-trace{trace}-jobs{jobs}"
    with open(OUT / f"{tag}.log", "a") as err:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err,
                              text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    raw = json.loads((ROOT / ".bench_build" / "runs" / f"{tag}.json").read_text())
    ok = proc.returncode == 0 and result is not None and result["correct"]
    return ok, result, raw


def fmt(v):
    return f"{v:.6g}"


def main(argv=None):
    bench = benchlib.load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    seconds = bench["run_seconds"]
    seeds = list(range(1, args.runs + 1))
    OUT.mkdir(parents=True, exist_ok=True)
    # Work counts repeat exactly; the process diagnostics (page faults) do not.
    counts = {s["name"] for s in bench["per_layer"]
              if s["unit"] == "count" and not s["name"].startswith("proc.")}
    flags, notes = [], []
    started = time.monotonic()

    # ---- two untraced sets, run in pairs, first side alternated -----------
    sets = ("A", "B")
    results = {name: {} for name in sets}
    pairs = [(i, s, j, w) for i, s in enumerate(seeds)
             for j, w in enumerate(workloads)]
    for i, seed, j, workload in pairs:
        # Alternate per workload from seed to seed, so that neither set of
        # a workload always runs first.
        for name in (sets if (i + j) % 2 == 0 else sets[::-1]):
            ok, result, raw = run_one(workload, seed, seconds, 0)
            if not ok:
                flags.append(f"set {name} {workload} seed {seed}: run failed")
            results[name][(workload, seed)] = (result, raw)
            print(f"[{time.monotonic() - started:7.0f} s] set {name} "
                  f"{workload} seed {seed}: "
                  + (" ".join(f"{k}={fmt(v['value'])}" for k, v in
                              result["metrics"].items()) if result else "-"),
                  flush=True)

    summary = {"workloads": {}, "flags": flags, "notes": notes}
    print("\nend-to-end metrics: median [q1, q3] per set, spread, set drift")
    for workload in workloads:
        rows = {}
        for spec in bench["end_to_end"]:
            metric, bound = spec["name"], spec["bound"]
            per_set = {}
            for name in sets:
                vals = [results[name][(workload, s)][0]["metrics"][metric]["value"]
                        for s in seeds if results[name][(workload, s)][0]]
                q1, q2, q3 = benchlib.quartiles(vals)
                per_set[name] = {"median": q2, "q1": q1, "q3": q3,
                                 "spread": benchlib.spread(vals),
                                 "values": vals}
            a, b = per_set["A"]["median"], per_set["B"]["median"]
            drift = abs(b - a) / a if a else float("inf")
            rows[metric] = {"sets": per_set, "drift": drift, "bound": bound}
            print(f"  {workload:<14} {metric:<12} " + "  ".join(
                f"{n}: {fmt(p['median'])} [{fmt(p['q1'])}, {fmt(p['q3'])}] "
                f"spread {p['spread']:.3f}" for n, p in per_set.items())
                + f"  drift {drift:.3f} (bound {bound})")
            for n, p in per_set.items():
                if metric != "setup_s" and p["spread"] > bound:
                    flags.append(f"{workload} {metric}: set {n} spread "
                                 f"{p['spread']:.3f} > bound {bound}")
                elif p["spread"] > bound / 3:
                    notes.append(f"{workload} {metric}: set {n} spread "
                                 f"{p['spread']:.3f} > bound/3")
            if drift > bound:
                flags.append(f"{workload} {metric}: sets differ by "
                             f"{drift:.3f} > bound {bound}")
        summary["workloads"][workload] = {"end_to_end": rows}

        # Same seed, separate processes: counts and outputs repeat exactly.
        for s in seeds:
            raw_a = results["A"][(workload, s)][1]
            raw_b = results["B"][(workload, s)][1]
            if raw_a["fingerprint"] != raw_b["fingerprint"]:
                flags.append(f"{workload} seed {s}: outputs differ between sets")
            for key in sorted(counts & set(raw_a["values"])):
                if raw_a["values"][key] != raw_b["values"].get(key):
                    flags.append(f"{workload} seed {s}: {key} differs between "
                                 "sets")

    # ---- traced runs: per-layer metrics and their counts ------------------
    print("\nper-layer metrics (traced, seed "
          f"{seeds[0]}): set A / set B")
    traced = {}
    for name in sets:
        for workload in workloads if name == "A" else workloads[::-1]:
            ok, result, raw = run_one(workload, seeds[0], seconds, 1)
            if not ok:
                flags.append(f"traced {workload} set {name}: run failed")
            traced[(workload, name)] = (result, raw)
    if "hunt" in workloads:
        ok, result, raw = run_one("hunt", seeds[0], seconds, 1, jobs=1)
        if not ok:
            flags.append("traced hunt at 1 worker: run failed")
        traced[("hunt", "jobs1")] = (result, raw)
    for workload in workloads:
        ra, rb = traced[(workload, "A")][0], traced[(workload, "B")][0]
        if not (ra and rb):
            continue
        layer = {}
        for spec in bench["per_layer"]:
            metric = spec["name"]
            va = ra["metrics"][metric]["value"]
            vb = rb["metrics"][metric]["value"]
            layer[metric] = [va, vb]
            if va or vb:
                print(f"  {workload:<14} {metric:<28} {fmt(va):>12} "
                      f"{fmt(vb):>12} {spec['unit']}")
            if metric in counts and va != vb:
                flags.append(f"{workload} {metric}: traced count {va} != {vb}")
        summary["workloads"][workload]["per_layer"] = layer
    if ("hunt", "jobs1") in traced and traced[("hunt", "jobs1")][0]:
        r1, r2 = traced[("hunt", "jobs1")], traced[("hunt", "A")]
        for metric in sorted(counts):
            v1 = r1[0]["metrics"][metric]["value"]
            v2 = r2[0]["metrics"][metric]["value"]
            if v1 != v2:
                flags.append(f"hunt {metric}: {v1} at 1 worker != {v2} at 2")
        if r1[1]["fingerprint"] != r2[1]["fingerprint"]:
            flags.append("hunt: evaluation log differs between 1 and 2 workers")
        print("\nhunt at 1 worker: wall "
              f"{fmt(r1[0]['metrics']['trace.wall_s']['value'])} s vs "
              f"{fmt(r2[0]['metrics']['trace.wall_s']['value'])} s at 2 "
              "(traced)")

    print(f"\nnotes ({len(notes)}):")
    for n in notes:
        print("  " + n)
    print(f"flags ({len(flags)}):")
    for f in flags:
        print("  " + f)
    (OUT / "summary.json").write_text(json.dumps(summary, indent=1))
    print(f"\n{time.monotonic() - started:.0f} s; summary in "
          f"{(OUT / 'summary.json').relative_to(ROOT)}")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
