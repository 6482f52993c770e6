"""``tools/gen_cli_docs.py``: every settings field names a module that reads
it; ``tools/loc_table.py --check`` fails on a DESIGN.md over its line bound
and on a DESIGN section citation that names no heading."""

import importlib.util
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def gen_cli_docs():
    return _load("gen_cli_docs")


@pytest.fixture(scope="module")
def loc_table():
    return _load("loc_table")


def test_every_consumer_entry_names_a_reader(gen_cli_docs):
    assert gen_cli_docs.unread_consumers(gen_cli_docs.CONSUMERS) == []


@pytest.mark.parametrize("key, module, problem", [
    # Entries the table once carried: a module that never reads the
    # field, and one that does not exist.
    ("GridSettings.n_angular", "repro.grids.angular",
     "repro.grids.angular never reads .n_angular"),
    ("SCFSettings.pulay_history", "repro.dft.mixing",
     "repro.dft.mixing never reads .pulay_history"),
    ("GridSettings.n_radial_base", "repro.grids.radial", "no module repro.grids.radial"),
], ids=["angular", "mixing", "missing-module"])
def test_an_entry_naming_a_non_reader_fails(gen_cli_docs, monkeypatch, key, module, problem):
    (line,) = gen_cli_docs.unread_consumers({key: ("role", module)})
    assert line == f"{key}: {problem}"
    monkeypatch.setitem(gen_cli_docs.CONSUMERS, key, ("role", module))
    with pytest.raises(SystemExit, match="does not read its field"):
        gen_cli_docs.render_settings_doc()


def test_a_design_doc_over_its_bound_fails_the_check(loc_table, monkeypatch, capsys):
    n_lines = len(loc_table.DESIGN_DOC.read_text().splitlines())
    monkeypatch.setattr(loc_table, "DESIGN_MAX_LINES", n_lines - 1)
    assert loc_table.main(["--check"]) == 1
    assert f"DESIGN.md has {n_lines} lines" in capsys.readouterr().out


def test_every_design_citation_names_a_heading(loc_table):
    assert loc_table.unresolved_design_citations() == []


def test_a_citation_without_its_heading_fails_the_check(
    loc_table, monkeypatch, capsys, tmp_path
):
    # Drop the §5.1 heading from a copy: utils/scratch.py cites it across
    # a line break ("(DESIGN" ends one line, "§5.1)" starts the next).
    text = loc_table.DESIGN_DOC.read_text()
    assert "\n### 5.1 " in text
    design = tmp_path / "DESIGN.md"
    design.write_text(text.replace("\n### 5.1 ", "\n### "))
    monkeypatch.setattr(loc_table, "DESIGN_DOC", design)
    missing = loc_table.unresolved_design_citations()
    assert any(c.startswith("src/repro/utils/scratch.py:") for c in missing)
    assert all(c.endswith("§5.1") for c in missing)
    assert loc_table.main(["--check"]) == 1
    assert "DESIGN.md has no heading for these citations:" in capsys.readouterr().out
