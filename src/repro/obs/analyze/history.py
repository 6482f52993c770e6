"""The tuner's decision journal: provenance-stamped JSONL (§11.6).

``repro tune --history PATH`` (and ``repro submit --tune-history``)
append one line per decision — the decision itself under ``emission``,
its provenance stamp, a label and a timestamp — and read the file back
to warm-start the next decision over the same workload fingerprint.
The file is a local artifact: it is created on first append and never
committed.  Nothing here smooths or trends a measurement: wall time is
gated in one place, ``BENCHMARK.json`` (DESIGN §10.6).

>>> import os, tempfile
>>> log = os.path.join(tempfile.mkdtemp(), "history.jsonl")
>>> _ = append_entry(log, {"chosen": {}}, label="tuner", recorded_at="t",
...                  provenance={})
>>> [e["label"] for e in load_history(log)]
['tuner']
"""

from __future__ import annotations

from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import ExperimentError
from repro.utils.journal import (
    append_json_line,
    read_json_lines,
    truncate_torn_tail,
)


def append_entry(
    path: Union[str, Path],
    emission: Dict[str, object],
    label: str,
    provenance: Dict[str, object],
    recorded_at: Optional[str] = None,
) -> Dict[str, object]:
    """Append one provenance-stamped entry to the JSONL log.

    The line is serialized with sorted keys; the log itself is
    append-only by construction.  A half line left by a killed writer is
    cut off first (each call is its own open of the journal), so the
    append never fuses with it.  Returns the entry that was written.
    """
    if recorded_at is None:
        recorded_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    entry: Dict[str, object] = {
        "emission": emission,
        "label": label,
        "provenance": provenance,
        "recorded_at": recorded_at,
    }
    out = Path(path)
    if out.exists():
        truncate_torn_tail(out)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
    append_json_line(out, entry)
    return entry


def load_history(
    path: Union[str, Path], label: Optional[str] = None
) -> List[Dict[str, object]]:
    """Read the history log, oldest first; missing file = empty history.

    A torn final line (a killed writer) is skipped.
    """
    p = Path(path)
    if not p.exists():
        return []
    lines, _ = read_json_lines(p, what="benchmark history", error=ExperimentError)
    entries: List[Dict[str, object]] = []
    for i, entry in lines:
        if not isinstance(entry, dict) or "emission" not in entry:
            raise ExperimentError(f"{p}:{i} is not a history entry")
        if label is None or entry.get("label") == label:
            entries.append(entry)
    return entries
