#!/usr/bin/env python3
"""Same-host A/B of two revisions on the repository benchmark.

    python3 tools/bench_ab.py [--base REV] [--change REV] [--pairs N]
                              [--workloads a,b] [--seed K] [--workdir DIR]

Extracts the committed files of both revisions (default: HEAD~1 and HEAD)
into fresh directories with `git archive`, so each side builds from its own
checkout exactly as a clean clone would, and leaves no worktree entries in
the repository. A tree left in --workdir by an earlier call is reused only
if it was extracted from the same commit; otherwise it is extracted again.
For every workload it then runs `perfbench/run.py --trace 0` for N seed
pairs (seeds K, K+1, ...) with BENCHMARK.json's `run_seconds` and run.py's
own defaults, and alternates which side runs first, so a drift of the
host's speed during the session hits both sides alike.

For every end-to-end metric of BENCHMARK.json it prints the per-workload
medians base -> change, the change relative to the base median, the
metric's bound, the pairs in which the change was better (counted over the
seeds where both sides succeeded), and the base's interquartile range (the
noise a claimed gain must clear). Exits 1 if a median is worse than the
base's by more than its bound, or if any run failed (non-zero exit, a
failed check, or a failed operation).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Written into each extracted tree: the full hash of the commit it holds.
REV_MARK = ".bench_ab_rev"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def resolve(rev: str) -> str:
    """The full commit hash `rev` names."""
    return subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
        stdout=subprocess.PIPE, text=True, check=True).stdout.strip()


def extracted_commit(dest: Path) -> str | None:
    """The commit an earlier extract() wrote into `dest`, or None."""
    mark = dest / REV_MARK
    return mark.read_text().strip() if mark.is_file() else None


def extract(commit: str, dest: Path) -> None:
    """Makes `dest` hold the committed tree of `commit` (a full hash).

    Reuses `dest` if an earlier call extracted the same commit into it,
    and replaces it if that was another commit. Refuses a `dest` it did
    not write.
    """
    if dest.exists():
        held = extracted_commit(dest)
        if held == commit:
            return
        if held is None:
            raise SystemExit(f"bench_ab: {dest} exists and was not written "
                             "by bench_ab; pass another --workdir")
        log(f"bench_ab: {dest} holds {held[:12]}, re-extracting {commit[:12]}")
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout,
                   check=True)
    (dest / REV_MARK).write_text(commit + "\n")


def run_once(tree: Path, workload: str, seed: int,
             seconds: int) -> dict | None:
    """One perfbench run; its result document, or None if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        doc = None
    if proc.returncode != 0 or doc is None or not doc.get("correct") \
            or doc.get("failed", 1) != 0:
        log(f"bench_ab: {tree.name} {workload} seed {seed} FAILED "
            f"(exit {proc.returncode})")
        return None
    return doc


def quartile_gap(values: list[float]) -> float:
    """Distance between the upper and lower quartile (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] - q[0]


def compare(spec: dict, base: dict[int, float],
            change: dict[int, float]) -> dict:
    """Medians and verdict of one metric over runs keyed by seed.

    Each side holds the values of its successful runs. `worse` is how much
    worse the change median is, as a share of the base median (negative
    when it is better); the metric violates its bound when `worse` exceeds
    it. `wins` counts, over the seeds both sides ran successfully
    (`pairs`), those in which the change was strictly better.
    """
    lower = spec["better"] == "lower"
    mb = statistics.median(base.values())
    mc = statistics.median(change.values())
    worse = ((mc - mb) if lower else (mb - mc)) / mb if mb else 0.0
    paired = sorted(base.keys() & change.keys())
    wins = sum(1 for s in paired
               if (change[s] < base[s] if lower else change[s] > base[s]))
    return {"base": mb, "change": mc, "worse": worse, "bound": spec["bound"],
            "violated": worse > spec["bound"], "wins": wins,
            "pairs": len(paired), "base_iqr": quartile_gap(list(base.values()))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD~1")
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--workloads", default="",
                    help="comma-separated (default: every workload)")
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--workdir", default="",
                    help="where to extract and build (kept; default: a "
                         "temporary directory, removed afterwards)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    workloads = [w for w in args.workloads.split(",") if w] or names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        ap.error(f"unknown workload(s): {', '.join(unknown)}")

    work = Path(args.workdir) if args.workdir else Path(
        tempfile.mkdtemp(prefix="bench_ab-"))
    trees = {"base": work / "base", "change": work / "change"}
    try:
        for side, rev in (("base", args.base), ("change", args.change)):
            extract(resolve(rev), trees[side])
        failed = 0
        violated = 0
        for workload in workloads:
            runs = {"base": {}, "change": {}}
            for k in range(args.pairs):
                seed = args.seed + k
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                for side in order:
                    doc = run_once(trees[side], workload, seed, seconds)
                    if doc is None:
                        failed += 1
                    else:
                        runs[side][seed] = doc["metrics"]
            if not runs["base"] or not runs["change"]:
                continue
            print(f"{workload}: {args.base} -> {args.change}, "
                  f"{args.pairs} alternated pair(s) of {seconds} s runs")
            for spec in bench["end_to_end"]:
                name = spec["name"]
                r = compare(spec,
                            {s: m[name]["value"]
                             for s, m in runs["base"].items()},
                            {s: m[name]["value"]
                             for s, m in runs["change"].items()})
                violated += r["violated"]
                print(f"  {name:<12} {r['base']:12.5g} -> {r['change']:12.5g} "
                      f"{spec['unit']:<3} {-100.0 * r['worse']:+7.1f} % better"
                      f"  bound {100.0 * r['bound']:.0f} %"
                      f"  wins {r['wins']}/{r['pairs']}"
                      f"  base IQR {r['base_iqr']:.4g}"
                      + ("  VIOLATED" if r["violated"] else ""))
        if failed or violated:
            print(f"bench_ab: {failed} failed run(s), {violated} bound "
                  "violation(s)")
            return 1
        return 0
    finally:
        if not args.workdir:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
