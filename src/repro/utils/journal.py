"""The one append-only JSON-lines journal idiom.

The statestore journal writes one sorted-key JSON document per line
and is read back line by line — replayed by its one owner,
:class:`~repro.service.statestore.StateStore`, and read without owning
it by :func:`repro.service.slo.journal_events`; this module is the only
place that format is spelled out.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, List, Tuple, Type, Union


def append_json_line(path: Union[str, Path], doc: Any) -> None:
    """Append *doc* as one sorted-key JSON line (one open-write-close).

    Sorted keys keep a deterministic run's journal byte-stable.  There
    is no ``fsync``: a killed writer can leave a half-written last line,
    which :func:`read_json_lines` recognises as a torn tail and
    :func:`truncate_torn_tail` cuts off.
    """
    with Path(path).open("a") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")


def truncate_torn_tail(path: Union[str, Path]) -> int:
    """Cut a half-written last line off *path*; return the bytes cut.

    The one repair every journal owner runs when it opens an existing
    file to append to it — once at open, never per append.  Without it
    the next append fuses with the torn tail into a corrupt *mid-file*
    line and every later read rejects the whole journal.  Only the
    bytes after the last newline are read.  A whole last line that
    merely lacks its newline is terminated, not cut.
    """
    with Path(path).open("rb+") as fh:
        size = fh.seek(0, os.SEEK_END)
        reach = 4096
        while True:
            start = max(0, size - reach)
            fh.seek(start)
            tail = fh.read()
            if start == 0 or b"\n" in tail:
                break
            reach *= 2
        tail = tail[tail.rfind(b"\n") + 1 :]
        if not tail.strip():
            return 0
        try:
            json.loads(tail.decode())
        except ValueError:
            fh.truncate(size - len(tail))
            return len(tail)
        fh.write(b"\n")
        return 0


def read_json_lines(
    path: Union[str, Path], *, what: str, error: Type[Exception]
) -> Tuple[List[Tuple[int, Any]], int]:
    """Parse a journal into ``([(lineno, doc), ...], torn_tail_bytes)``.

    Blank lines are skipped.  A final line with no trailing newline that
    does not parse is the torn tail a killed writer leaves: it is left
    out and its byte length returned (a reader that does not own the
    journal just skips it; the owner has :func:`truncate_torn_tail`).
    An undecodable line anywhere else raises *error* naming
    ``path:lineno``.

    >>> import os, tempfile
    >>> p = os.path.join(tempfile.mkdtemp(), "j.jsonl")
    >>> append_json_line(p, {"b": 1, "a": 2})
    >>> _ = open(p, "a").write('{"half')
    >>> read_json_lines(p, what="demo journal", error=ValueError)
    ([(1, {'a': 2, 'b': 1})], 6)
    """
    lines = Path(path).read_bytes().split(b"\n")
    docs: List[Tuple[int, Any]] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            # .decode() here: json.loads(bytes) sniffs the encoding per call.
            docs.append((lineno, json.loads(line.decode())))
        except ValueError as exc:  # JSONDecodeError, or a torn UTF-8 byte
            if lineno == len(lines):  # nothing after it, not even "\n"
                return docs, len(line)
            raise error(f"corrupt {what} {path}:{lineno}: {exc}") from None
    return docs, 0
