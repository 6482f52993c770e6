#!/usr/bin/env python
"""Generate ``docs/CLI.md`` and ``docs/SETTINGS.md`` from the code.

The CLI reference is rendered from the live argparse tree
(:func:`repro.cli.build_parser`) — every subcommand, flag, default and
choice list; the settings reference from dataclass introspection of
:mod:`repro.config` — every field with its type, default, ``#:`` doc
comment and the subsystem that consumes it.  Neither file is ever
edited by hand: ``make docs`` regenerates them, and ``make docs-check``
(via ``--check``) fails when the committed files no longer match what
the code exposes — documentation that cannot go stale.  Run from the
repo root::

    PYTHONPATH=src python tools/gen_cli_docs.py [--check]

A new CLI flag or settings field shows up here on the next ``make
docs``; a new settings field additionally *requires* a consumer entry
in :data:`CONSUMERS` naming a module that reads it — the generator
refuses to document a knob nobody reads.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import inspect
import re
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Tuple

from repro import config as config_module
from repro.cli import build_parser
from repro.config import (
    CPSCFSettings,
    GridSettings,
    RunSettings,
    SCFSettings,
)

ROOT = Path(__file__).resolve().parent.parent
CLI_DOC = ROOT / "docs" / "CLI.md"
SETTINGS_DOC = ROOT / "docs" / "SETTINGS.md"

HEADER = (
    "<!-- GENERATED by tools/gen_cli_docs.py — do not edit by hand.\n"
    "     Regenerate with `make docs`; `make docs-check` fails when this\n"
    "     file is stale. -->\n"
)

#: The subsystem that consumes each settings field, and the module that
#: reads it.  Every field of the documented dataclasses MUST appear here,
#: and the named module must read the field (an attribute load of its name
#: in the module's source) — adding a settings knob without a reader, or
#: naming a module that never reads it, fails the generator (and
#: therefore ``make docs-check``).
CONSUMERS: Dict[str, Tuple[str, str]] = {
    "RunSettings.level": ("result payloads", "repro.service.worker"),
    "RunSettings.grids": ("grid construction", "repro.dft.scf"),
    "RunSettings.scf": ("ground-state SCF", "repro.dft.scf"),
    "RunSettings.cpscf": ("DFPT response solver", "repro.core.simulator"),
    "RunSettings.l_max_hartree": ("Hartree multipole solver", "repro.dft.scf"),
    "RunSettings.verify": ("physics-invariant checks", "repro.dft.scf"),
    "RunSettings.screening_threshold": ("block-sparse screening", "repro.dft.scf"),
    "GridSettings.n_radial_base": ("radial grids", "repro.grids.atom_grid"),
    "GridSettings.n_angular": ("angular quadrature", "repro.grids.atom_grid"),
    "GridSettings.radial_multiplier": ("radial grids", "repro.grids.atom_grid"),
    "GridSettings.batch_target_points": ("grid batching", "repro.grids.batching"),
    "GridSettings.becke_smoothing": ("Becke partitioning", "repro.grids.atom_grid"),
    "SCFSettings.max_iterations": ("SCF driver", "repro.dft.scf"),
    "SCFSettings.density_tolerance": ("SCF convergence", "repro.dft.scf"),
    "SCFSettings.energy_tolerance": ("SCF convergence", "repro.dft.scf"),
    "SCFSettings.mixing_factor": ("density mixing", "repro.dft.scf"),
    "SCFSettings.pulay_history": ("Pulay/DIIS mixing", "repro.dft.scf"),
    "CPSCFSettings.max_iterations": ("CPSCF driver", "repro.dfpt.response"),
    "CPSCFSettings.response_tolerance": ("CPSCF convergence", "repro.dfpt.response"),
    "CPSCFSettings.mixing_factor": ("response mixing", "repro.dfpt.response"),
}

#: The documented settings dataclasses, in rendering order.
SETTINGS_CLASSES = (
    RunSettings,
    GridSettings,
    SCFSettings,
    CPSCFSettings,
)


def _md_escape(text: str) -> str:
    return text.replace("|", "\\|").replace("\n", " ").strip()


# ----------------------------------------------------------------------
# CLI reference
# ----------------------------------------------------------------------

def _argument_rows(parser: argparse.ArgumentParser) -> List[List[str]]:
    rows: List[List[str]] = []
    for action in parser._actions:  # noqa: SLF001 — introspection is the point
        if isinstance(action, (argparse._HelpAction, argparse._SubParsersAction)):
            continue
        if action.option_strings:
            name = ", ".join(f"`{s}`" for s in action.option_strings)
        else:
            name = f"`{action.metavar or action.dest}`"
        if action.default is argparse.SUPPRESS or action.default is None:
            default = "—"
        elif isinstance(action.default, str) and not action.default:
            default = "`''`"
        else:
            default = f"`{action.default}`"
        help_text = _md_escape(action.help or "")
        if action.choices is not None:
            choices = ", ".join(f"`{c}`" for c in action.choices)
            help_text = (help_text + f" (choices: {choices})").strip()
        rows.append([name, default, help_text])
    return rows


def _render_parser(
    name: str, parser: argparse.ArgumentParser, depth: int
) -> List[str]:
    lines = [f"{'#' * depth} `{name}`", ""]
    description = parser.description or ""
    if description and depth > 2:
        lines += [_md_escape(description), ""]
    rows = _argument_rows(parser)
    if rows:
        lines += [
            "| argument | default | description |",
            "| --- | --- | --- |",
        ]
        lines += [f"| {r[0]} | {r[1]} | {r[2]} |" for r in rows]
        lines.append("")
    for action in parser._actions:  # noqa: SLF001
        if not isinstance(action, argparse._SubParsersAction):
            continue
        helps = {a.dest: a.help or "" for a in action._choices_actions}
        for sub_name, sub_parser in action.choices.items():
            if helps.get(sub_name):
                lines += [
                    f"{'#' * (depth + 1)} `{name} {sub_name}`",
                    "",
                    _md_escape(helps[sub_name]),
                    "",
                ]
                sub_rows = _argument_rows(sub_parser)
                if sub_rows:
                    lines += [
                        "| argument | default | description |",
                        "| --- | --- | --- |",
                    ]
                    lines += [
                        f"| {r[0]} | {r[1]} | {r[2]} |" for r in sub_rows
                    ]
                    lines.append("")
                lines += _render_nested(
                    f"{name} {sub_name}", sub_parser, depth + 1
                )
    return lines


def _render_nested(
    name: str, parser: argparse.ArgumentParser, depth: int
) -> List[str]:
    lines: List[str] = []
    for action in parser._actions:  # noqa: SLF001
        if not isinstance(action, argparse._SubParsersAction):
            continue
        helps = {a.dest: a.help or "" for a in action._choices_actions}
        for sub_name, sub_parser in action.choices.items():
            lines += [
                f"{'#' * (depth + 1)} `{name} {sub_name}`",
                "",
            ]
            if helps.get(sub_name):
                lines += [_md_escape(helps[sub_name]), ""]
            sub_rows = _argument_rows(sub_parser)
            if sub_rows:
                lines += [
                    "| argument | default | description |",
                    "| --- | --- | --- |",
                ]
                lines += [f"| {r[0]} | {r[1]} | {r[2]} |" for r in sub_rows]
                lines.append("")
    return lines


def render_cli_doc() -> str:
    """The full ``docs/CLI.md`` text, rendered from the live parser."""
    parser = build_parser()
    lines = [
        HEADER,
        "# CLI reference",
        "",
        _md_escape(parser.description or ""),
        "",
        "Every command is invoked as `python -m repro <command>` (with "
        "`src/` on `PYTHONPATH`).  Library failures exit with status 2 "
        "and a one-line message.",
        "",
    ]
    lines += _render_parser("repro", parser, depth=2)
    return "\n".join(lines).rstrip() + "\n"


# ----------------------------------------------------------------------
# Settings reference
# ----------------------------------------------------------------------

def _field_docs(cls) -> Dict[str, str]:
    """``#:`` doc comments preceding each field of one dataclass."""
    source = inspect.getsource(cls)
    docs: Dict[str, str] = {}
    pending: List[str] = []
    for line in source.splitlines():
        stripped = line.strip()
        comment = re.match(r"#:\s?(.*)", stripped)
        if comment:
            pending.append(comment.group(1))
            continue
        assign = re.match(r"(\w+)\s*:", stripped)
        if assign and pending:
            docs[assign.group(1)] = " ".join(pending)
        if stripped and not stripped.startswith("#"):
            pending = []
    return docs


def _default_repr(f: dataclasses.Field) -> str:
    if f.default is not dataclasses.MISSING:
        return f"`{f.default!r}`"
    if f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
        return f"`{f.default_factory.__name__}()`"
    return "required"


def unread_consumers(consumers: Mapping[str, Tuple[str, str]]) -> List[str]:
    """One line per *consumers* entry whose module does not import or
    never reads its field: no ``ast.Attribute`` load of the field's name
    anywhere in the module's source."""
    problems: List[str] = []
    read: Dict[str, set] = {}
    for key, (_, module) in consumers.items():
        name = key.split(".")[1]
        if module not in read:
            try:
                source = inspect.getsource(importlib.import_module(module))
            except ImportError:
                problems.append(f"{key}: no module {module}")
                continue
            read[module] = {
                node.attr for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            }
        if name not in read[module]:
            problems.append(f"{key}: {module} never reads .{name}")
    return problems


def render_settings_doc() -> str:
    """The full ``docs/SETTINGS.md`` text, from dataclass introspection."""
    lines = [
        HEADER,
        "# Settings reference",
        "",
        "Every knob a run carries, from the frozen dataclasses in "
        "`repro.config`.  Presets (`minimal`, `light`, `tight`) are "
        "looked up with `repro.config.get_settings`; the canonical "
        "serialized form (`RunSettings.as_canonical_dict`) is what the "
        "service layer's content-addressed cache keys hash.",
        "",
    ]
    missing: List[str] = []
    for cls in SETTINGS_CLASSES:
        docs = _field_docs(cls)
        doc_first = (cls.__doc__ or "").strip().splitlines()[0]
        lines += [f"## `{cls.__name__}`", "", _md_escape(doc_first), ""]
        lines += [
            "| field | type | default | consumed by | description |",
            "| --- | --- | --- | --- | --- |",
        ]
        for f in dataclasses.fields(cls):
            key = f"{cls.__name__}.{f.name}"
            if key in CONSUMERS:
                role, module = CONSUMERS[key]
                consumer = f"{role} (`{module}`)"
            else:
                missing.append(key)
                consumer = "MISSING"
            lines.append(
                f"| `{f.name}` | `{f.type}` | {_default_repr(f)} "
                f"| {consumer} | {_md_escape(docs.get(f.name, ''))} |"
            )
        lines.append("")
    if missing:
        raise SystemExit(
            "gen_cli_docs: no consumer declared for settings field(s): "
            + ", ".join(missing)
            + " — add them to CONSUMERS in tools/gen_cli_docs.py"
        )
    unknown = sorted(
        key
        for key in CONSUMERS
        if key.split(".")[0]
        not in {cls.__name__ for cls in SETTINGS_CLASSES}
        or key.split(".")[1]
        not in {
            f.name
            for cls in SETTINGS_CLASSES
            if cls.__name__ == key.split(".")[0]
            for f in dataclasses.fields(cls)
        }
    )
    if unknown:
        raise SystemExit(
            "gen_cli_docs: CONSUMERS names settings field(s) that no "
            "longer exist: " + ", ".join(unknown)
        )
    unread = unread_consumers(CONSUMERS)
    if unread:
        raise SystemExit(
            "gen_cli_docs: CONSUMERS names a module that does not read "
            "its field: " + "; ".join(unread)
        )
    return "\n".join(lines).rstrip() + "\n"


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed files instead of writing; "
        "exit 1 when they are stale",
    )
    args = parser.parse_args(argv)
    rendered = {CLI_DOC: render_cli_doc(), SETTINGS_DOC: render_settings_doc()}
    # Imported only for its side effect of asserting the module exists;
    # keeps the docs honest about where settings live.
    assert config_module.RunSettings is RunSettings

    if args.check:
        stale = []
        for path, text in rendered.items():
            if not path.exists():
                stale.append(f"{path.relative_to(ROOT)} (missing)")
            elif path.read_text() != text:
                stale.append(f"{path.relative_to(ROOT)} (out of date)")
        if stale:
            print("generated docs are stale:")
            for item in stale:
                print(f"  {item}")
            print("regenerate with: make docs")
            return 1
        print(
            f"docs-check: {len(rendered)} generated file(s) match the code"
        )
        return 0

    for path, text in rendered.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
