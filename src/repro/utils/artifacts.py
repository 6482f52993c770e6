"""Safe handling of run-output artifact paths.

Every CLI artifact writer (``repro physics --trace`` / ``--report``,
``repro serve --trace``, the statestore journal) funnels its output path through
:func:`prepare_artifact_path` so the behaviour is uniform:

* missing parent directories are created;
* an existing artifact is never silently overwritten — the caller must
  pass ``force=True`` (the CLI's ``--force`` flag) or the preparation
  raises :class:`~repro.errors.ArtifactError` with a message naming
  the collision and the way out.

>>> import tempfile, os
>>> d = tempfile.mkdtemp()
>>> p = prepare_artifact_path(os.path.join(d, "sub", "trace.json"))
>>> p.parent.is_dir()
True
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.errors import ArtifactError


def prepare_artifact_path(path: Union[str, Path], force: bool = False) -> Path:
    """Validate one output path before an expensive run produces it.

    Creates missing parent directories and refuses to clobber an
    existing file unless ``force`` is set.  Returns the normalized
    :class:`~pathlib.Path`.  Called *before* the run starts so a
    doomed write fails fast instead of after minutes of computation.

    >>> import tempfile, os
    >>> from repro.errors import ArtifactError
    >>> d = tempfile.mkdtemp()
    >>> existing = os.path.join(d, "report.json")
    >>> _ = open(existing, "w").write("{}")
    >>> try:
    ...     prepare_artifact_path(existing)
    ... except ArtifactError as e:
    ...     "refusing to overwrite" in str(e) and "--force" in str(e)
    True
    >>> prepare_artifact_path(existing, force=True).name
    'report.json'
    """
    out = Path(path)
    if out.exists() and out.is_dir():
        raise ArtifactError(f"artifact path {out} is a directory")
    if out.exists() and not force:
        raise ArtifactError(
            f"refusing to overwrite existing artifact {out}; "
            "pass --force to replace it"
        )
    out.parent.mkdir(parents=True, exist_ok=True)
    return out
