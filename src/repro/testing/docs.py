"""Docstring-coverage lint for the observability-facing public API.

``make docs-check`` runs this (via ``tools/check_docstrings.py``)
alongside ``pytest --doctest-modules``: the doctests prove the examples
work, this lint proves the examples *exist* — every public module,
class and function in the audited modules must carry a docstring.

>>> missing_docstrings(["repro.obs.tracer"])
[]
"""

from __future__ import annotations

import importlib
import inspect
from typing import List

#: The modules whose public API is under the documentation contract
#: (DESIGN §10.7).  Extend this list as subsystems are audited.
AUDITED_MODULES = (
    "repro.obs",
    "repro.obs.tracer",
    "repro.obs.export",
    "repro.obs.report",
    "repro.obs.regress",
    "repro.obs.bench",
    "repro.obs.analyze",
    "repro.obs.analyze.timeline",
    "repro.obs.analyze.imbalance",
    "repro.obs.analyze.scaling",
    "repro.service",
    "repro.service.statestore",
    "repro.service.jobs",
    "repro.service.worker",
    "repro.service.slo",
    "repro.utils.artifacts",
    "repro.utils.balance",
    "repro.utils.timing",
    "repro.grids.sparsity",
    "repro.fleet",
)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def missing_docstrings(module_names=AUDITED_MODULES) -> List[str]:
    """Dotted paths of every audited public object lacking a docstring.

    Covers the module itself, its public classes and functions defined
    in that module (not re-exports), and public methods of those
    classes.  An empty list means the contract holds.

    Every audited module is visited even when an earlier one fails to
    import — one run reports the *complete* set of offenders (an
    unimportable module is itself an offender), instead of stopping at
    the first broken module and hiding the rest.
    """
    offenders: List[str] = []
    for module_name in module_names:
        try:
            module = importlib.import_module(module_name)
        except Exception as exc:  # noqa: BLE001 — record and keep auditing
            offenders.append(f"{module_name} (import failed: {exc})")
            continue
        if not inspect.getdoc(module):
            offenders.append(module_name)
        for name, obj in vars(module).items():
            if not _is_public(name):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", None) != module_name:
                continue  # re-export; audited where it is defined
            if not inspect.getdoc(obj):
                offenders.append(f"{module_name}.{name}")
            if inspect.isclass(obj):
                for mname, member in vars(obj).items():
                    if not _is_public(mname):
                        continue
                    func = member
                    if isinstance(member, property):
                        func = member.fget
                    elif isinstance(member, (staticmethod, classmethod)):
                        func = member.__func__
                    if not inspect.isfunction(func):
                        continue
                    if not inspect.getdoc(func):
                        offenders.append(f"{module_name}.{name}.{mname}")
    return sorted(set(offenders))
