#!/usr/bin/env python
"""Per-package line counts of ``src/repro`` as a markdown table.

ROADMAP aim 2 tracks lines of code per package; this is the tracker.
The table lives in DESIGN.md between the two ``loc-table`` marker
comments and is never edited by hand: ``make docs`` rewrites it
(``--write``) and ``make docs-check`` (``--check``) fails when the
committed table no longer matches the tree.  Run from the repo root::

    python tools/loc_table.py [--write | --check]

Counts are physical lines of every ``*.py`` file (what ``wc -l``
reports), code, comments and docstrings alike — the number a reader
has to get through, not a statement count.

``--check`` also fails when DESIGN.md's experiment index (§4) names a
``benchmarks/*.py`` file or a ``repro.*`` module that is not in the tree,
when a ``DESIGN §N[.M]`` citation in ``src/``, ``tests/`` or ``tools/``
names no DESIGN.md heading, and when DESIGN.md is longer than
:data:`DESIGN_MAX_LINES`.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = ROOT / "src" / "repro"
DESIGN_DOC = ROOT / "DESIGN.md"
BEGIN = "<!-- loc-table:begin (generated by tools/loc_table.py; `make docs`) -->"
END = "<!-- loc-table:end -->"
#: DESIGN.md may shrink but not grow: ROADMAP item 13 takes it to
#: <= 1 000 lines.  Lower this when a change shortens the document.
DESIGN_MAX_LINES = 1883
#: Row for the modules sitting directly in ``src/repro``.
TOP_LEVEL = "(top-level modules)"
#: Trees whose ``*.py`` files may cite DESIGN.md sections.
CITING_DIRS = ("src", "tests", "tools")
#: ``DESIGN §8``, ``DESIGN.md §12.7``; the section number may follow a
#: line break (and a comment's ``#``).
CITATION = re.compile(r"DESIGN(?:\.md)?\s+(?:#\s*)?§\s*(\d+(?:\.\d+)*)")


def count_lines() -> Dict[str, Tuple[int, int]]:
    """``{package: (files, lines)}`` over every ``*.py`` under src/repro."""
    counts: Dict[str, Tuple[int, int]] = {}
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        parts = path.relative_to(PACKAGE_ROOT).parts
        package = parts[0] if len(parts) > 1 else TOP_LEVEL
        with path.open("rb") as handle:
            lines = sum(1 for _ in handle)
        files, total = counts.get(package, (0, 0))
        counts[package] = (files + 1, total + lines)
    return counts


def render_table() -> str:
    """The markdown table, packages sorted by name, with a total row."""
    counts = count_lines()
    rows = ["| package | files | lines |", "| --- | ---: | ---: |"]
    for package in sorted(counts):
        files, lines = counts[package]
        name = package if package == TOP_LEVEL else f"`{package}/`"
        rows.append(f"| {name} | {files} | {lines} |")
    files = sum(f for f, _ in counts.values())
    lines = sum(n for _, n in counts.values())
    rows.append(f"| **`src/repro` total** | **{files}** | **{lines}** |")
    return "\n".join(rows) + "\n"


def _split_design() -> Tuple[str, str, str]:
    """DESIGN.md as (before the table, committed table, after it)."""
    text = DESIGN_DOC.read_text()
    if BEGIN not in text or END not in text:
        raise SystemExit(f"loc_table: DESIGN.md has no {BEGIN!r} ... {END!r} block")
    head, rest = text.split(BEGIN + "\n", 1)
    table, tail = rest.split(END, 1)
    return head, table, tail


def _lines_by_package(table: str) -> Dict[str, str]:
    """``{package: lines}`` of a rendered table, markdown decoration dropped."""
    rows = {}
    for row in table.splitlines()[2:]:
        cells = [c.replace("`", "").strip(" *") for c in row.strip("|").split("|")]
        rows[cells[0]] = cells[-1]
    return rows


def unresolved_experiment_paths() -> List[str]:
    """Names in DESIGN §4's table that no file or module answers to."""
    section = DESIGN_DOC.read_text().split("\n## 4. Experiment index", 1)[1]
    section = section.split("\n## ", 1)[0]
    missing = []
    for name in re.findall(r"benchmarks/\w+\.py|repro(?:\.\w+)+", section):
        if name.startswith("benchmarks/"):
            found = (ROOT / name).is_file()
        else:
            stem = ROOT / "src" / Path(*name.split("."))
            found = stem.with_suffix(".py").is_file() or stem.is_dir()
        if not found and name not in missing:
            missing.append(name)
    return missing


def unresolved_design_citations() -> List[str]:
    """``path:line: DESIGN §N`` for each citation naming no DESIGN.md heading."""
    headings = set(
        re.findall(r"^#{2,} (\d+(?:\.\d+)*)\.? ", DESIGN_DOC.read_text(), flags=re.M)
    )
    missing = []
    for top in CITING_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            for match in CITATION.finditer(text):
                if match.group(1) not in headings:
                    line = text.count("\n", 0, match.start()) + 1
                    missing.append(
                        f"{path.relative_to(ROOT)}:{line}: DESIGN §{match.group(1)}"
                    )
    return missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--write", action="store_true",
        help="rewrite the table between the DESIGN.md markers",
    )
    mode.add_argument(
        "--check", action="store_true",
        help="exit 1 when the DESIGN.md table is stale, listing the rows "
        "that moved (package: committed → current), instead of printing",
    )
    args = parser.parse_args(argv)
    table = render_table()
    if args.write:
        head, _, tail = _split_design()
        DESIGN_DOC.write_text(head + BEGIN + "\n" + table + END + tail)
        print("wrote the Package sizes table in DESIGN.md")
    elif args.check:
        missing = unresolved_experiment_paths()
        if missing:
            print("DESIGN.md §4 names what is not in the tree: " + ", ".join(missing))
            return 1
        unresolved = unresolved_design_citations()
        if unresolved:
            print("DESIGN.md has no heading for these citations:")
            print("\n".join(f"  {c}" for c in unresolved))
            return 1
        n_lines = len(DESIGN_DOC.read_text().splitlines())
        if n_lines > DESIGN_MAX_LINES:
            print(f"DESIGN.md has {n_lines} lines, more than {DESIGN_MAX_LINES}")
            return 1
        committed = _split_design()[1]
        if committed != table:
            print("DESIGN.md Package sizes table is stale — run `make docs`")
            before, after = _lines_by_package(committed), _lines_by_package(table)
            for package in {**before, **after}:
                if before.get(package) != after.get(package):
                    print(
                        f"  {package}: {before.get(package, 'absent')} → "
                        f"{after.get(package, 'absent')}"
                    )
            return 1
        print("DESIGN.md Package sizes table is up to date")
    else:
        sys.stdout.write(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
