#!/usr/bin/env python3
"""Lists the src/ functions that no shipped program runs.

Hand-run, not part of ctest. Configures an instrumented build
(`-O1 --coverage`) in its own directory (default `build-coverage/`; `build/`
is refused), runs the whole shipped surface and reads the counters back with
`gcov --json-format`:

  * `ffc_repro --jobs 4`;
  * every example's GOOD argv from examples/CMakeLists.txt, and every
    committed config under scenarios/ (`scenario_run` or, for a
    `[hunt]`-headed config, `chaos_hunt`);
  * `ffc_repro --only ID` for every registry id, with `FFC_CSV=FILE`,
    and with `--metrics-out FILE` for the sweep-enabled ones;
  * every `perf_*` binary at the minimum benchmark time.

It then prints each never-run function body in src/ (file, first line,
length in lines, demangled name) and the translation units with no
coverage data at all. A function counts as run if any translation unit that
emits it ran it (inline functions in headers appear in several).

Usage:
  python3 tools/coverage.py [--build-dir DIR]

A first pass (build, run, report) takes about 10 minutes on 4 cores; a
rerun rebuilds only what changed. The report goes to stdout; the programs'
own output goes to DIR/coverage-run/.
"""

import argparse
import glob
import json
import os
import re
import shlex
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def names(pattern):
    return sorted(os.path.splitext(os.path.basename(p))[0]
                  for p in glob.glob(os.path.join(ROOT, pattern)))


def experiments():
    """(id, sweep_enabled) for every row of the experiment registry."""
    text = open(os.path.join(ROOT, "bench", "repro", "harness.cpp")).read()
    rows = re.findall(r'\{"(\w+)",\s*"(?:[^"\\]|\\.)*",\s*(true|false),',
                      text)
    if not rows:
        sys.exit("coverage.py: no registry rows in bench/repro/harness.cpp")
    return [(exp_id, flag == "true") for exp_id, flag in rows]


def good_argvs():
    """(example, argv) pairs from the ffc_example_smoke GOOD lists."""
    text = open(os.path.join(ROOT, "examples", "CMakeLists.txt")).read()
    out = []
    for name, body in re.findall(r"ffc_example_smoke\((\w+)(.*?)\)", text,
                                 re.S):
        m = re.search(r"^\s*GOOD\s+(.*)$", body, re.M)
        if m:
            argv = m.group(1).replace("${CMAKE_SOURCE_DIR}", ROOT)
            out.append((name, shlex.split(argv)))
    return out


def configs():
    """(driver, path) for every committed config under scenarios/."""
    out = []
    for path in sorted(glob.glob(os.path.join(ROOT, "scenarios", "*.ini"))):
        with open(path) as f:
            first = next((line.strip() for line in f
                          if line.strip() and line.strip()[0] not in "#;"),
                         "")
        out.append(("chaos_hunt" if first == "[hunt]" else "scenario_run",
                    path))
    return out


def build(build_dir):
    flags = "-O1 --coverage"
    subprocess.run(["cmake", "-B", build_dir, "-S", ROOT,
                    "-DCMAKE_BUILD_TYPE=None",
                    "-DCMAKE_CXX_FLAGS=" + flags,
                    "-DCMAKE_EXE_LINKER_FLAGS=--coverage"],
                   check=True, stdout=subprocess.DEVNULL)
    targets = (["ffc_repro"] + names("examples/*.cpp") +
               names("bench/perf_*.cpp"))
    jobs = min(4, os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(jobs),
                    "--target"] + targets, check=True,
                   stdout=subprocess.DEVNULL)


def run_surface(build_dir):
    for gcda in glob.glob(os.path.join(build_dir, "**", "*.gcda"),
                          recursive=True):
        os.remove(gcda)
    work = os.path.join(build_dir, "coverage-run")
    os.makedirs(work, exist_ok=True)
    bench = os.path.join(build_dir, "bench")
    examples = os.path.join(build_dir, "examples")

    runs = [([os.path.join(bench, "ffc_repro"), "--jobs", "4",
              "--output-dir", work], {})]
    for name, argv in good_argvs():
        runs.append(([os.path.join(examples, name)] + argv, {}))
    for driver, path in configs():
        runs.append(([os.path.join(examples, driver), path], {}))
    for exp_id, sweep_enabled in experiments():
        metrics = (["--metrics-out", os.path.join(work, exp_id + ".json")]
                   if sweep_enabled else [])
        runs.append(([os.path.join(bench, "ffc_repro"), "--only", exp_id] +
                     metrics,
                     {"FFC_CSV": os.path.join(work, exp_id + ".csv")}))
    for name in names("bench/perf_*.cpp"):
        runs.append(([os.path.join(bench, name),
                      "--benchmark_min_time=0.001"], {}))

    failed = 0
    for argv, env in runs:
        label = " ".join(os.path.relpath(a, ROOT) if a.startswith(ROOT)
                         else a for a in argv)
        log = os.path.join(work, os.path.basename(argv[0]) + ".log")
        with open(log, "a") as out:
            code = subprocess.run(argv, cwd=work, stdout=out,
                                  stderr=subprocess.STDOUT,
                                  env=dict(os.environ, **env)).returncode
        print(f"ran  exit {code}  {label}", file=sys.stderr)
        failed += code != 0
    if failed:
        print(f"warning: {failed} run(s) exited nonzero (see {work})",
              file=sys.stderr)


def gcov_json(gcno, build_dir):
    """gcov's JSON for one object; counts read as 0 without a .gcda."""
    proc = subprocess.run(["gcov", "--json-format", "--stdout", gcno],
                          cwd=build_dir, capture_output=True, text=True)
    docs = []
    for line in proc.stdout.splitlines():
        line = line.strip()
        if line.startswith("{"):
            docs.append(json.loads(line))
    return docs


def report(build_dir):
    src = os.path.join(ROOT, "src") + os.sep
    counts = {}  # (file, start_line, name) -> (max count, lines)
    no_data = []
    gcnos = sorted(glob.glob(os.path.join(build_dir, "src", "**", "*.gcno"),
                             recursive=True))
    for gcno in gcnos:
        if not os.path.exists(gcno[:-len(".gcno")] + ".gcda"):
            # DIR/src/<lib>/CMakeFiles/<target>.dir/<file>.gcno
            head, tail = os.path.relpath(gcno, build_dir).split(
                os.sep + "CMakeFiles" + os.sep, 1)
            no_data.append(os.path.join(head, tail.split(os.sep, 1)[1])
                           [:-len(".gcno")])
        for doc in gcov_json(gcno, build_dir):
            for f in doc.get("files", []):
                path = os.path.normpath(os.path.join(doc.get("current_working"
                                                             "_directory",
                                                             build_dir),
                                                     f["file"]))
                if not path.startswith(src):
                    continue
                rel = os.path.relpath(path, ROOT)
                for fn in f.get("functions", []):
                    key = (rel, fn["start_line"],
                           fn.get("demangled_name", fn["name"]))
                    lines = fn["end_line"] - fn["start_line"] + 1
                    old = counts.get(key, (0, lines))[0]
                    counts[key] = (max(old, fn["execution_count"]), lines)

    never = sorted((k, v[1]) for k, v in counts.items() if v[0] == 0)
    # A lambda's body lies inside its enclosing function's: count each
    # source line once.
    lines = {(rel, line + k) for (rel, line, _), n in never for k in range(n)}
    print(f"never-run function bodies in src/: {len(never)} "
          f"({len(lines)} lines)")
    for (rel, line, name), n in never:
        print(f"  {rel}:{line}  [{n} lines]  {name}")
    print(f"translation units with no coverage data: {len(no_data)}")
    for tu in no_data:
        print(f"  {tu}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir", default=os.path.join(ROOT,
                                                            "build-coverage"))
    args = parser.parse_args()
    build_dir = os.path.abspath(args.build_dir)
    if build_dir == os.path.join(ROOT, "build"):
        parser.error("use a directory of its own, not build/")
    build(build_dir)
    run_surface(build_dir)
    report(build_dir)


if __name__ == "__main__":
    main()
