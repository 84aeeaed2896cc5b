#!/usr/bin/env python3
"""Self-test for check_docs.py: pins the link-integrity and reachability
gates on synthetic repositories so a regression in the checker itself --
an orphan it stops seeing, a fence it stops skipping -- fails ctest
(`check_docs_selftest`) rather than silently passing broken docs.

No dependencies beyond the standard library.
"""

from __future__ import annotations

import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import check_docs  # noqa: E402


def make_repo(tmp: str, files: dict[str, str]) -> pathlib.Path:
    root = pathlib.Path(tmp)
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


class CheckLinksTest(unittest.TestCase):
    def test_resolving_links_pass(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = make_repo(tmp, {
                "README.md": "[design](docs/DESIGN2.md#anchor)\n",
                "docs/DESIGN2.md": "back to [readme](../README.md)\n",
            })
            self.assertEqual(check_docs.check_links(root), [])

    def test_broken_link_reported_with_location(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = make_repo(tmp, {
                "README.md": "line one\n[gone](docs/MISSING.md)\n",
            })
            errors = check_docs.check_links(root)
            self.assertEqual(len(errors), 1)
            self.assertIn("README.md:2", errors[0])
            self.assertIn("docs/MISSING.md", errors[0])

    def test_links_inside_fences_are_skipped(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = make_repo(tmp, {
                "README.md": "```\n[not a link](docs/NOPE.md)\n```\n",
            })
            self.assertEqual(check_docs.check_links(root), [])

    def test_external_and_inpage_links_are_skipped(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = make_repo(tmp, {
                "README.md": "[w](https://example.org) [a](#local)\n",
            })
            self.assertEqual(check_docs.check_links(root), [])


class CheckOrphansTest(unittest.TestCase):
    def test_doc_linked_from_readme_is_reachable(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = make_repo(tmp, {
                "README.md": "[guide](docs/GUIDE.md)\n",
                "docs/GUIDE.md": "content\n",
            })
            self.assertEqual(check_docs.check_orphans(root), [])

    def test_transitively_linked_doc_is_reachable(self):
        # README -> A -> B: B has no direct README link but is NOT an orphan.
        with tempfile.TemporaryDirectory() as tmp:
            root = make_repo(tmp, {
                "README.md": "[a](docs/A.md)\n",
                "docs/A.md": "[b](B.md)\n",
                "docs/B.md": "leaf\n",
            })
            self.assertEqual(check_docs.check_orphans(root), [])

    def test_unlinked_doc_is_an_orphan(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = make_repo(tmp, {
                "README.md": "no links here\n",
                "docs/LOST.md": "nobody links to me\n",
            })
            errors = check_docs.check_orphans(root)
            self.assertEqual(len(errors), 1)
            self.assertIn("docs/LOST.md", errors[0])
            self.assertIn("orphan", errors[0])

    def test_link_only_inside_fence_still_orphans(self):
        # A fenced "link" is not a real link, so the target stays orphaned.
        with tempfile.TemporaryDirectory() as tmp:
            root = make_repo(tmp, {
                "README.md": "```\n[x](docs/FENCED.md)\n```\n",
                "docs/FENCED.md": "content\n",
            })
            errors = check_docs.check_orphans(root)
            self.assertEqual(len(errors), 1)
            self.assertIn("docs/FENCED.md", errors[0])

    def test_link_cycles_terminate(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = make_repo(tmp, {
                "README.md": "[a](docs/A.md)\n",
                "docs/A.md": "[b](B.md)\n",
                "docs/B.md": "[a again](A.md)\n",
            })
            self.assertEqual(check_docs.check_orphans(root), [])


class CheckScenariosTest(unittest.TestCase):
    def test_no_scenarios_directory_is_fine(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = make_repo(tmp, {"README.md": "no scenarios here\n"})
            self.assertEqual(check_docs.check_scenarios(root, None), [])

    def test_linked_scenario_passes(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = make_repo(tmp, {
                "README.md": "[demo config](scenarios/demo.ini)\n",
                "scenarios/demo.ini": "[scenario]\nname = demo\n",
            })
            self.assertEqual(check_docs.check_scenarios(root, None), [])

    def test_unreferenced_scenario_is_reported(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = make_repo(tmp, {
                "README.md": "nothing links the config\n",
                "scenarios/lost.ini": "[scenario]\nname = lost\n",
            })
            errors = check_docs.check_scenarios(root, None)
            self.assertEqual(len(errors), 1)
            self.assertIn("scenarios/lost.ini", errors[0])
            self.assertIn("not referenced", errors[0])

    def test_lint_failure_is_reported_with_stderr_tail(self):
        # A fake linter that always rejects: the gate must surface the exit
        # code and the tool's diagnostic, per config.
        with tempfile.TemporaryDirectory() as tmp:
            root = make_repo(tmp, {
                "README.md": "[demo](scenarios/demo.ini)\n",
                "scenarios/demo.ini": "[scenario]\nname = demo\n",
                "lint.sh": "#!/bin/sh\necho 'demo.ini:1: broken' >&2\nexit 1\n",
            })
            lint = root / "lint.sh"
            lint.chmod(0o755)
            errors = check_docs.check_scenarios(root, str(lint))
            self.assertEqual(len(errors), 1)
            self.assertIn("exited 1", errors[0])
            self.assertIn("demo.ini:1: broken", errors[0])

    def test_lint_success_keeps_gate_clean(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = make_repo(tmp, {
                "README.md": "[demo](scenarios/demo.ini)\n",
                "scenarios/demo.ini": "[scenario]\nname = demo\n",
                "lint.sh": "#!/bin/sh\nexit 0\n",
            })
            lint = root / "lint.sh"
            lint.chmod(0o755)
            self.assertEqual(check_docs.check_scenarios(root, str(lint)), [])

    def test_hunt_config_dispatches_to_hunt_lint(self):
        # A [hunt]-headed config must be linted by the hunt linter and
        # never reach the scenario linter (whose grammar would reject it).
        with tempfile.TemporaryDirectory() as tmp:
            root = make_repo(tmp, {
                "README.md": "[h](scenarios/h.ini) [s](scenarios/s.ini)\n",
                "scenarios/h.ini": "; a search spec\n[hunt]\nname = h\n",
                "scenarios/s.ini": "[scenario]\nname = s\n",
                "scen_lint.sh":
                    "#!/bin/sh\ncase \"$1\" in *h.ini)"
                    " echo 'hunt leaked to scenario linter' >&2; exit 1;;"
                    " esac\nexit 0\n",
                "hunt_lint.sh":
                    "#!/bin/sh\ncase \"$1\" in *s.ini)"
                    " echo 'scenario leaked to hunt linter' >&2; exit 1;;"
                    " esac\nexit 0\n",
            })
            scen = root / "scen_lint.sh"
            hunt = root / "hunt_lint.sh"
            scen.chmod(0o755)
            hunt.chmod(0o755)
            self.assertEqual(
                check_docs.check_scenarios(root, str(scen), str(hunt)), [])

    def test_hunt_config_without_hunt_lint_skips_lint(self):
        # No hunt linter on the command line: the [hunt] config is only
        # checked for documentation links, not fed to the scenario linter.
        with tempfile.TemporaryDirectory() as tmp:
            root = make_repo(tmp, {
                "README.md": "[h](scenarios/h.ini)\n",
                "scenarios/h.ini": "[hunt]\nname = h\n",
                "lint.sh": "#!/bin/sh\necho 'wrong dialect' >&2\nexit 1\n",
            })
            lint = root / "lint.sh"
            lint.chmod(0o755)
            self.assertEqual(
                check_docs.check_scenarios(root, str(lint), None), [])

    def test_hunt_lint_failure_is_reported(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = make_repo(tmp, {
                "README.md": "[h](scenarios/h.ini)\n",
                "scenarios/h.ini": "[hunt]\nname = h\n",
                "hunt_lint.sh":
                    "#!/bin/sh\necho 'h.ini:2: bad hunt' >&2\nexit 3\n",
            })
            hunt = root / "hunt_lint.sh"
            hunt.chmod(0o755)
            errors = check_docs.check_scenarios(root, None, str(hunt))
            self.assertEqual(len(errors), 1)
            self.assertIn("exited 3", errors[0])
            self.assertIn("h.ini:2: bad hunt", errors[0])


class LeadingSectionTest(unittest.TestCase):
    def test_comments_and_blanks_are_skipped(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = make_repo(tmp, {
                "a.ini": "; comment\n# also comment\n\n[hunt]\nx = 1\n",
            })
            self.assertEqual(check_docs.leading_section(root / "a.ini"),
                             "hunt")

    def test_non_section_first_line_yields_empty(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = make_repo(tmp, {"a.ini": "key = value\n[hunt]\n"})
            self.assertEqual(check_docs.leading_section(root / "a.ini"), "")


class CompareArtifactsTest(unittest.TestCase):
    ARTIFACTS = {"REPRODUCTION.md": "# report\n", "claims.json": "{}\n"}

    def test_matching_artifacts_pass(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = make_repo(tmp, {
                **self.ARTIFACTS,
                **{f"fresh/{k}": v for k, v in self.ARTIFACTS.items()},
            })
            self.assertEqual(
                check_docs.compare_artifacts(root, root / "fresh"), [])

    def test_stale_artifact_is_reported_with_diff(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = make_repo(tmp, {
                **self.ARTIFACTS,
                "fresh/REPRODUCTION.md": "# report v2\n",
                "fresh/claims.json": "{}\n",
            })
            errors = check_docs.compare_artifacts(root, root / "fresh")
            self.assertEqual(len(errors), 1)
            self.assertIn("REPRODUCTION.md", errors[0])
            self.assertIn("+# report v2", errors[0])

    def test_edited_atlas_cell_is_reported(self):
        # The whole-report comparison covers E19's sentinel-wrapped atlas
        # block too: one edited cell fails it.
        atlas = ("# report\n<!-- atlas:begin -->\n| cell | onset |\n"
                 "|---|---|\n| FIFO | 1.414 |\n<!-- atlas:end -->\n")
        with tempfile.TemporaryDirectory() as tmp:
            root = make_repo(tmp, {
                "REPRODUCTION.md": atlas.replace("1.414", "1.415"),
                "claims.json": "{}\n",
                "fresh/REPRODUCTION.md": atlas,
                "fresh/claims.json": "{}\n",
            })
            errors = check_docs.compare_artifacts(root, root / "fresh")
            self.assertEqual(len(errors), 1)
            self.assertIn("-| FIFO | 1.415 |", errors[0])
            self.assertIn("+| FIFO | 1.414 |", errors[0])

    def test_missing_fresh_artifact_is_reported(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = make_repo(tmp, {
                **self.ARTIFACTS,
                "fresh/claims.json": "{}\n",
            })
            errors = check_docs.compare_artifacts(root, root / "fresh")
            self.assertEqual(len(errors), 1)
            self.assertIn("REPRODUCTION.md: missing in", errors[0])


class RepoSelfCheck(unittest.TestCase):
    def test_this_repository_passes_both_gates(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        self.assertEqual(check_docs.check_links(root), [])
        self.assertEqual(check_docs.check_orphans(root), [])

    def test_committed_scenarios_are_documented(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        self.assertEqual(check_docs.check_scenarios(root, None), [])


if __name__ == "__main__":
    unittest.main()
