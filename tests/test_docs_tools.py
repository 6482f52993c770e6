"""``tools/gen_cli_docs.py``: every settings field names a module that reads it."""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "gen_cli_docs.py"


@pytest.fixture(scope="module")
def gen_cli_docs():
    spec = importlib.util.spec_from_file_location("gen_cli_docs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
