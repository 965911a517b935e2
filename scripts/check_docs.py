#!/usr/bin/env python3
"""Link-check the repo's markdown docs and the metric reference.

Four gates, all about docs rotting against reality:

* every relative link/image in tracked *.md files must point at a file
  that exists (http(s)/mailto links and pure #anchors are skipped);
* every metric the binaries can emit (docs/metrics.json, generated from
  the compiled-in `rastor_obs::manifest`) must appear by name in the
  operator handbook docs/OPERATIONS.md — export a metric, document it;
* every back-ticked repository path in the authored docs (`crates/…`,
  `tests/…`, `src/…`, `scripts/…`, `examples/…`, `docs/…`) must exist,
  relative to the repo root or to the doc's own directory — delete a
  crate or move a file and the docs that still name it fail;
* every back-ticked snake_case name of four or more words in the
  root-level docs (DESIGN.md, EXPERIMENTS.md, README.md) and docs/*.md —
  in practice, a cited test — must occur in a Rust source file: rename
  the test, update the citation.

Run from the repo root; CI runs it next to `cargo doc`, which covers the
rustdoc side of the same problem.
"""

import json
import pathlib
import re
import subprocess
import sys

MANIFEST = pathlib.Path("docs/metrics.json")
HANDBOOK = pathlib.Path("docs/OPERATIONS.md")

LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
SKIP_DIRS = {"target", ".git", "vendor"}
# Retrieval dumps, not authored docs: their figure refs point at assets
# that were never part of this repo.
SKIP_FILES = {"PAPERS.md", "SNIPPETS.md"}
# Histories and plans: they name files as they were, or as they will be.
NOT_CURRENT = {"CHANGES.md", "ROADMAP.md", "ISSUE.md"}

REPO_PATH = re.compile(r"`((?:crates|tests|src|scripts|examples|docs)/[^`\s]*)`")
# Four or more snake_case words: long enough to be a test or function
# name rather than a field, a flag or a metric.
LONG_NAME = re.compile(r"`([a-z][a-z0-9]*(?:_[a-z0-9]+){3,})`")


def md_files(root: pathlib.Path) -> list[pathlib.Path]:
    return [
        p
        for p in root.rglob("*.md")
        if not any(part in SKIP_DIRS for part in p.parts) and p.name not in SKIP_FILES
    ]


def undocumented_metrics() -> list[str]:
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    handbook = HANDBOOK.read_text(encoding="utf-8")
    names = [m["name"] for m in manifest["metrics"]]
    missing = [
        f"{HANDBOOK}: exported metric `{name}` is not documented" for name in names if name not in handbook
    ]
    print(f"checked {len(names)} exported metrics against {HANDBOOK}")
    return missing


def missing_paths(docs: list[pathlib.Path]) -> list[str]:
    """Back-ticked repository paths that exist nowhere. (Build output —
    `target/`, `benchmark/out/` — is under none of the prefixes checked.)"""
    cited = [(md, path) for md in docs for path in REPO_PATH.findall(md.read_text(encoding="utf-8"))]
    print(f"checked {len(cited)} back-ticked repository paths")
    return [
        f"{md}: `{path}` does not exist"
        for md, path in cited
        if not pathlib.Path(path).exists() and not (md.parent / path).exists()
    ]


def uncited_names(docs: list[pathlib.Path]) -> list[str]:
    """Long snake_case names in the root-level docs and docs/*.md that no
    Rust source file (tracked, or new and not ignored) contains."""
    listing = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard", "*.rs"],
        check=True,
        capture_output=True,
        text=True,
    )
    sources = listing.stdout.splitlines()
    code = "\n".join(pathlib.Path(f).read_text(encoding="utf-8") for f in sources if pathlib.Path(f).exists())
    bad: list[str] = []
    checked = 0
    for md in docs:
        if len(md.parts) > 1 and md.parts[0] != "docs":
            continue
        for name in sorted(set(LONG_NAME.findall(md.read_text(encoding="utf-8")))):
            checked += 1
            if name not in code:
                bad.append(f"{md}: `{name}` occurs in no .rs file (renamed or deleted?)")
    print(f"checked {checked} cited names against {len(sources)} Rust source files")
    return bad


def main() -> None:
    docs = md_files(pathlib.Path("."))
    bad: list[str] = []
    checked = 0
    for md in docs:
        for target in LINK.findall(md.read_text(encoding="utf-8")):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            checked += 1
            path = (md.parent / target.split("#", 1)[0]).resolve()
            if not path.exists():
                bad.append(f"{md}: broken link -> {target}")
    print(f"checked {checked} relative links across {len(docs)} markdown files")
    bad += undocumented_metrics()
    current = [md for md in docs if md.name not in NOT_CURRENT]
    bad += missing_paths(current)
    bad += uncited_names(current)
    for b in bad:
        print(b)
    if bad:
        sys.exit(1)


if __name__ == "__main__":
    main()
