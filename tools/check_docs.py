#!/usr/bin/env python3
"""check-docs: keep the documentation honest.

Four independent gates, all run by the `check-docs` CMake target and the
`check_docs` ctest entry (see docs/CLAIMS.md):

  1. Link integrity. Every relative markdown link in README.md,
     EXPERIMENTS.md, REPRODUCTION.md, CHANGES.md, DESIGN.md, ROADMAP.md and
     docs/*.md must resolve to an existing file (anchors are split off; a
     link `docs/CLAIMS.md#tolerances` checks that docs/CLAIMS.md exists).
     External (http/https/mailto) and pure in-page (#...) links are skipped,
     as are links inside fenced code blocks.

  2. Reachability. Every docs/*.md must be reachable from README.md by
     following relative markdown links (breadth-first over the link graph).
     A document nobody links to is invisible to a reader entering at the
     README -- add it to the README docs index or link it from a reachable
     page.

  3. Staleness of the generated reproduction report. With --repro-dir
     given, the committed REPRODUCTION.md and claims.json at the repo root
     must be byte-identical to the artifacts a fresh ffc_repro run wrote
     into that directory (tools/run_repro.cmake writes them; the ctest
     entry reads its fixture's). Both artifacts are pure functions of the
     build (no timestamps), so any diff means someone edited a generated
     file by hand or forgot to regenerate after changing an experiment.
     The comparison covers the whole report, so it also covers E19's
     stability-region atlas block inside REPRODUCTION.md.

  4. Scenario configs. Every committed scenarios/*.ini must be referenced
     (linked) from at least one checked document -- a config nobody
     documents is invisible, exactly like an orphaned docs page. Each
     config must additionally pass `BIN FILE --check` with BIN chosen by
     the config's leading section header: files opening with `[hunt]` go
     to the --hunt-lint binary (the chaos_hunt example), everything else
     to the --scenario-lint binary (the scenario_run example). Either
     check is strict parse + completeness + canonical parse->dump
     round-trip; a config whose dialect has no linter on the command line
     is only checked for documentation links.

Exit code 0 iff every gate passes. No dependencies beyond the standard
library.
"""

from __future__ import annotations

import argparse
import difflib
import pathlib
import re
import subprocess
import sys

# [text](target) -- target captured up to the first unescaped ')'. Good
# enough for the plain links these docs use (no nested parentheses).
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
FENCE_RE = re.compile(r"^\s*(```|~~~)")

ROOT_DOCS = [
    "README.md",
    "EXPERIMENTS.md",
    "REPRODUCTION.md",
    "CHANGES.md",
    "DESIGN.md",
    "ROADMAP.md",
]


def doc_files(repo_root: pathlib.Path) -> list[pathlib.Path]:
    files = [repo_root / name for name in ROOT_DOCS]
    files += sorted((repo_root / "docs").glob("*.md"))
    return [f for f in files if f.is_file()]


def iter_links(text: str):
    """Yields (line_number, target) for links outside fenced code blocks."""
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in LINK_RE.finditer(line):
            yield lineno, match.group(1)


def check_links(repo_root: pathlib.Path) -> list[str]:
    errors = []
    for doc in doc_files(repo_root):
        text = doc.read_text(encoding="utf-8")
        for lineno, target in iter_links(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            resolved = (doc.parent / path_part).resolve()
            if not resolved.exists():
                rel = doc.relative_to(repo_root)
                errors.append(f"{rel}:{lineno}: broken link -> {target}")
    return errors


def relative_link_targets(doc: pathlib.Path):
    """Yields resolved filesystem paths of the doc's relative links."""
    text = doc.read_text(encoding="utf-8")
    for _lineno, target in iter_links(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path_part = target.split("#", 1)[0]
        if not path_part:
            continue
        yield (doc.parent / path_part).resolve()


def reachable_from_readme(repo_root: pathlib.Path) -> set[pathlib.Path]:
    """Markdown files reachable from README.md over relative links (BFS)."""
    seen: set[pathlib.Path] = set()
    frontier = [(repo_root / "README.md").resolve()]
    while frontier:
        doc = frontier.pop()
        if doc in seen or doc.suffix.lower() != ".md" or not doc.is_file():
            continue
        seen.add(doc)
        frontier.extend(relative_link_targets(doc))
    return seen


def check_orphans(repo_root: pathlib.Path) -> list[str]:
    """Every docs/*.md must be reachable from README.md."""
    reachable = reachable_from_readme(repo_root)
    errors = []
    for doc in sorted((repo_root / "docs").glob("*.md")):
        if doc.resolve() not in reachable:
            rel = doc.relative_to(repo_root)
            errors.append(
                f"{rel}: orphaned -- not reachable from README.md via "
                "relative markdown links (add it to the README docs index)"
            )
    return errors


def leading_section(config: pathlib.Path) -> str:
    """First `[section]` header in an ini file ('' if none).

    This is the dialect dispatch key for gate 4: `[hunt]` configs are
    search specs (docs/SEARCH.md), anything else is a scenario grid
    (docs/PROTOCOLS.md).
    """
    for line in config.read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith((";", "#")):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            return stripped[1:-1].strip()
        return ""
    return ""


def check_scenarios(repo_root: pathlib.Path,
                    scenario_lint: str | None,
                    hunt_lint: str | None = None) -> list[str]:
    """Gate 4: scenarios/*.ini are documented and (optionally) validate."""
    scenarios = sorted((repo_root / "scenarios").glob("*.ini"))
    if not scenarios:
        return []
    referenced: set[pathlib.Path] = set()
    for doc in doc_files(repo_root):
        referenced.update(relative_link_targets(doc))
    errors = []
    for config in scenarios:
        if config.resolve() not in referenced:
            rel = config.relative_to(repo_root)
            errors.append(
                f"{rel}: not referenced from any checked document (link it "
                "from docs/PROTOCOLS.md or another reachable page)"
            )
    for config in scenarios:
        lint = hunt_lint if leading_section(config) == "hunt" \
            else scenario_lint
        if not lint:
            continue
        proc = subprocess.run(
            [lint, str(config), "--check"],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            rel = config.relative_to(repo_root)
            tail = "\n".join(proc.stderr.splitlines()[-5:])
            errors.append(
                f"{rel}: `{lint} --check` exited "
                f"{proc.returncode}:\n{tail}"
            )
    return errors


def compare_artifacts(repo_root: pathlib.Path,
                      fresh_dir: pathlib.Path) -> list[str]:
    """Committed REPRODUCTION.md / claims.json vs a fresh ffc_repro run's."""
    errors = []
    for name in ("REPRODUCTION.md", "claims.json"):
        committed = repo_root / name
        fresh = fresh_dir / name
        if not committed.is_file():
            errors.append(f"{name}: missing at the repo root "
                          "(generate with ffc_repro and commit it)")
            continue
        if not fresh.is_file():
            errors.append(f"{name}: missing in {fresh_dir} "
                          "(no fresh ffc_repro run to compare with)")
            continue
        old = committed.read_text(encoding="utf-8")
        new = fresh.read_text(encoding="utf-8")
        if old != new:
            diff = list(
                difflib.unified_diff(
                    old.splitlines(), new.splitlines(),
                    fromfile=f"committed/{name}",
                    tofile=f"regenerated/{name}", lineterm="", n=1,
                )
            )
            head = "\n".join(diff[:20])
            errors.append(
                f"{name}: committed copy differs from fresh "
                f"regeneration ({len(diff)} diff lines). Regenerate "
                f"with: ffc_repro --output-dir . First lines:\n{head}"
            )
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo-root", required=True,
                        help="repository root containing README.md and docs/")
    parser.add_argument("--repro-dir", default=None,
                        help="directory holding a fresh ffc_repro run's "
                             "artifacts; enables the staleness gate")
    parser.add_argument("--scenario-lint", default=None,
                        help="path to scenario_run; runs `--check` on every "
                             "committed scenarios/*.ini that is not a hunt")
    parser.add_argument("--hunt-lint", default=None,
                        help="path to chaos_hunt; runs `--check` on every "
                             "committed scenarios/*.ini opening with [hunt]")
    args = parser.parse_args()
    repo_root = pathlib.Path(args.repo_root).resolve()
    if not (repo_root / "README.md").is_file():
        print(f"check-docs: {repo_root} does not look like the repo root",
              file=sys.stderr)
        return 2

    errors = check_links(repo_root) + check_orphans(repo_root)
    errors += check_scenarios(repo_root, args.scenario_lint, args.hunt_lint)
    n_docs = len(doc_files(repo_root))
    if args.repro_dir:
        errors += compare_artifacts(repo_root, pathlib.Path(args.repro_dir))

    if errors:
        print(f"check-docs: {len(errors)} problem(s):", file=sys.stderr)
        for err in errors:
            print(f"  {err}", file=sys.stderr)
        return 1
    gates = "links + reachability + scenarios"
    if args.scenario_lint:
        gates += " + scenario lint"
    if args.hunt_lint:
        gates += " + hunt lint"
    if args.repro_dir:
        gates += " + reproduction staleness"
    print(f"check-docs: OK ({n_docs} documents, gates: {gates})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
