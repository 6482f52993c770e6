"""The unified per-run artifact: :class:`RunReport` (DESIGN §10.5).

One JSON document absorbing everything a run previously scattered
over three structures — :class:`~repro.utils.timing.PhaseTimer` phase
walls, the backend's :class:`~repro.backends.base.BackendProfile` and
the :class:`~repro.verify.invariants.VerifyReport` — plus the tracer's
span summary and a :class:`Provenance` block (commit, seed,
``REPRO_FULL_SCALE``, machine-model names) so a benchmark row is
reproducible on its face.

>>> rep = RunReport(label="doctest", phase_seconds={"Sumup": 0.5, "H": 0.25})
>>> round(rep.wall_seconds, 2)
0.75
>>> json.loads(rep.to_json())["phase_seconds"]["Sumup"]
0.5
"""

from __future__ import annotations

import functools
import json
import os
import platform
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.backends.base import BackendProfile
    from repro.obs.tracer import Tracer
    from repro.utils.timing import PhaseTimer
    from repro.verify.invariants import VerifyReport


@dataclass
class Provenance:
    """Where and how one benchmark emission was produced.

    >>> p = Provenance(commit="abc1234", seed=2023, full_scale=False)
    >>> "abc1234" in p.footer_markdown()
    True
    """

    commit: str = "unknown"
    dirty: bool = False
    seed: Optional[int] = None
    full_scale: bool = False
    machines: List[str] = field(default_factory=list)
    python: str = ""
    numpy: str = ""

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form (stable key order)."""
        return {
            "commit": self.commit,
            "dirty": self.dirty,
            "seed": self.seed,
            "full_scale": self.full_scale,
            "machines": list(self.machines),
            "python": self.python,
            "numpy": self.numpy,
        }

    def footer_markdown(self) -> str:
        """The EXPERIMENTS.md provenance footer for one benchmark block."""
        commit = self.commit + ("+dirty" if self.dirty else "")
        parts = [
            f"commit `{commit}`",
            f"seed {self.seed if self.seed is not None else '—'}",
            f"`REPRO_FULL_SCALE={'1' if self.full_scale else '0'}`",
        ]
        if self.machines:
            parts.append("machine models: " + ", ".join(self.machines))
        if self.python:
            parts.append(f"python {self.python}")
        if self.numpy:
            parts.append(f"numpy {self.numpy}")
        return "> provenance: " + " · ".join(parts)


#: The directory this package was loaded from (``<checkout>/src/repro``).
_PACKAGE_DIR = Path(__file__).resolve().parent.parent


@functools.lru_cache(maxsize=None)
def _git_state(package_dir: Path) -> Tuple[str, bool]:
    """``(commit, dirty)`` of the checkout *package_dir* belongs to.

    The commit counts only when the enclosing work tree's ``src/repro``
    *is* *package_dir*: a package installed into a venv inside another
    project's checkout answers ``("unknown", False)``, as does a copy
    outside any checkout.  Memoized — one read per process;
    ``_git_state.cache_clear()`` is the test hook.
    """
    def git(*args: str) -> "subprocess.CompletedProcess[str]":
        return subprocess.run(["git", *args], cwd=package_dir,
                              capture_output=True, text=True, timeout=10)

    try:
        out = git("rev-parse", "--show-toplevel", "--short", "HEAD")
        top, _, commit = out.stdout.strip().partition("\n")
        if (out.returncode != 0 or Path(top).resolve() / "src" / "repro"
                != package_dir.resolve()):
            return "unknown", False
        st = git("status", "--porcelain")
        return commit, st.returncode == 0 and bool(st.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return "unknown", False


def collect_provenance(seed: Optional[int] = None) -> Provenance:
    """Gather the current repo/environment provenance.

    A fresh :class:`Provenance` per call (own ``seed``, own ``machines``
    list, ``REPRO_FULL_SCALE`` read now), but the commit and dirty flag
    describe the checkout as it was when this process first asked: the
    running code was loaded from that checkout, so a commit made since
    would stamp results the old code computed.  Works outside a git
    checkout (commit stays ``"unknown"``); never raises — a report
    writer must not fail the run it documents.
    """
    commit, dirty = _git_state(_PACKAGE_DIR)
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = "unavailable"
    try:
        from repro.runtime.machines import HPC1_SUNWAY, HPC2_AMD

        machines = [HPC1_SUNWAY.name, HPC2_AMD.name]
    except ImportError:  # pragma: no cover - cycle guard
        machines = []
    return Provenance(
        commit=commit,
        dirty=dirty,
        seed=seed,
        full_scale=os.environ.get("REPRO_FULL_SCALE", "0") == "1",
        machines=machines,
        python=platform.python_version(),
        numpy=numpy_version,
    )


@dataclass
class RunReport:
    """Everything observable about one run, in one artifact.

    Build it from live objects with :meth:`from_run`; serialize with
    :meth:`to_json` / :meth:`write`.  ``repro physics`` prints its
    tables once, from the objects that compute them, not from here.
    """

    label: str = "run"
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    backend: Optional[Dict[str, object]] = None
    verify: Optional[Dict[str, object]] = None
    trace: Dict[str, object] = field(default_factory=dict)
    provenance: Optional[Provenance] = None
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def wall_seconds(self) -> float:
        """Summed per-phase wall time (phases are sequential)."""
        return sum(self.phase_seconds.values())

    # ------------------------------------------------------------------
    @classmethod
    def from_run(
        cls,
        label: str,
        timer: Optional["PhaseTimer"] = None,
        backend_profile: Optional["BackendProfile"] = None,
        verify_report: Optional["VerifyReport"] = None,
        tracer: Optional["Tracer"] = None,
        seed: Optional[int] = None,
        **extra,
    ) -> "RunReport":
        """Absorb the per-run timer, profile, verify report and tracer into one report."""
        verify: Optional[Dict[str, object]] = None
        if verify_report is not None:
            verify = {
                "level": verify_report.level,
                "checks": len(verify_report.results),
                "failures": verify_report.failed_names,
                "ok": verify_report.ok,
            }
        trace: Dict[str, object] = {}
        if tracer is not None:
            trace = {
                "spans": len(tracer.spans),
                "phase_wall_seconds": tracer.phase_wall("phase"),
                "categories": sorted({s.category for s in tracer.spans}),
            }
        return cls(
            label=label,
            phase_seconds=dict(timer.as_dict()) if timer is not None else {},
            backend=backend_profile.as_dict() if backend_profile is not None else None,
            verify=verify,
            trace=trace,
            provenance=collect_provenance(seed=seed),
            extra=dict(extra),
        )

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot of the whole report."""
        return {
            "label": self.label,
            "phase_seconds": dict(self.phase_seconds),
            "wall_seconds": self.wall_seconds,
            "backend": self.backend,
            "verify": self.verify,
            "trace": self.trace,
            "provenance": self.provenance.as_dict() if self.provenance else None,
            "extra": self.extra,
        }

    def to_json(self) -> str:
        """Serialized report (stable key order)."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, path: Union[str, Path]) -> Path:
        """Write the JSON artifact; returns the path written."""
        path = Path(path)
        path.write_text(self.to_json())
        return path
