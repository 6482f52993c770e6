"""Run-settings presets mirroring FHI-aims' ``light``/``tight`` levels.

The paper runs "light settings and the LDA functional"; these dataclasses
bundle the numerical knobs (grid sizes, basis size, SCF/CPSCF tolerances)
so that examples, tests and benchmarks share one definition of "light".
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, Dict, Mapping

from repro.errors import SettingsError


def checked_screening_threshold(value: float) -> float:
    """*value* as a float, or :class:`~repro.errors.SettingsError` unless
    it is finite and ``>= 0`` (NaN would fail every comparison and pass
    for "no screening"; ``inf`` would screen out every function)."""
    threshold = float(value)
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise SettingsError(
            f"screening threshold must be finite and >= 0, got {threshold!r}"
        )
    return threshold


def _number(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_fields(owner: str, obj, counts=(), positive=(), fractions=(), least=None) -> None:
    """:class:`~repro.errors.SettingsError` naming *owner* unless every
    field in *counts* is an integer ``>= 1`` (``>= least[name]`` where
    given; ``True`` is not a count), every field in *positive* a finite
    number ``> 0`` and every field in *fractions* a number in ``(0, 1]``
    (NaN fails every comparison, so it fails each of these)."""
    least = least or {}
    for name in counts:
        n, low = getattr(obj, name), least.get(name, 1)
        if not (_number(n, numbers.Integral) and n >= low):
            raise SettingsError(f"{owner} {name} must be an integer >= {low}, got {n!r}")
    for name in positive:
        x = getattr(obj, name)
        if not (_number(x, numbers.Real) and math.isfinite(x) and x > 0.0):
            raise SettingsError(f"{owner} {name} must be finite and > 0, got {x!r}")
    for name in fractions:
        x = getattr(obj, name)
        if not (_number(x, numbers.Real) and 0.0 < x <= 1.0):
            raise SettingsError(f"{owner} {name} must be in (0, 1], got {x!r}")


@dataclass(frozen=True)
class GridSettings:
    """Integration-grid resolution for one run."""

    #: Number of radial shells for the *lightest* element (H); heavier
    #: elements scale this up with sqrt(Z) as in Baker-style grids.
    n_radial_base: int = 24
    #: Angular quadrature points per shell (must be a supported rule size).
    n_angular: int = 50
    #: Multiplicative scaling of the outermost shell radius (Bohr).
    radial_multiplier: float = 1.0
    #: Target number of grid points per batch (paper: 100-300).
    batch_target_points: int = 200
    #: Becke partition-function stiffness (number of smoothing passes).
    becke_smoothing: int = 3

    def __post_init__(self) -> None:
        _check_fields(
            "grid", self,
            counts=("n_radial_base", "n_angular", "batch_target_points", "becke_smoothing"),
            positive=("radial_multiplier",),
        )


@dataclass(frozen=True)
class SCFSettings:
    """Ground-state self-consistency controls.

    Checked on construction like :class:`CPSCFSettings`; the DIIS mixer
    needs two trial vectors, hence ``pulay_history >= 2``.
    """

    max_iterations: int = 60
    density_tolerance: float = 1e-6
    energy_tolerance: float = 1e-8
    mixing_factor: float = 0.35
    pulay_history: int = 6

    def __post_init__(self) -> None:
        _check_fields(
            "SCF", self,
            counts=("max_iterations", "pulay_history"),
            positive=("density_tolerance", "energy_tolerance"),
            fractions=("mixing_factor",),
            least={"pulay_history": 2},
        )


@dataclass(frozen=True)
class CPSCFSettings:
    """Coupled-perturbed SCF (DFPT) self-consistency controls.

    Checked on construction, like :func:`checked_screening_threshold`: a
    tolerance of ``inf`` would stop after one cycle and report a wrong
    polarizability, a NaN mixing factor would poison the response
    factors, and neither is an error the run could name later.
    """

    max_iterations: int = 40
    response_tolerance: float = 1e-6
    mixing_factor: float = 0.5

    def __post_init__(self) -> None:
        _check_fields(
            "CPSCF", self,
            counts=("max_iterations",),
            positive=("response_tolerance",),
            fractions=("mixing_factor",),
        )


@dataclass(frozen=True)
class RunSettings:
    """Everything a simulation needs besides the structure itself."""

    level: str = "light"
    grids: GridSettings = field(default_factory=GridSettings)
    scf: SCFSettings = field(default_factory=SCFSettings)
    cpscf: CPSCFSettings = field(default_factory=CPSCFSettings)
    #: Maximum multipole angular momentum for the Hartree solver.
    l_max_hartree: int = 6
    #: Physics-invariant verification level: ``"off"`` (no checks),
    #: ``"cheap"`` (O(n_basis^2) algebra at phase boundaries) or
    #: ``"full"`` (adds independent re-derivations: fresh basis
    #: evaluation, Hartree rebuild, Gauss-law far field).  See
    #: :mod:`repro.verify.invariants`.
    verify: str = "off"
    #: Batch-local basis-screening threshold for the block-sparse
    #: integration seam (:mod:`repro.grids.sparsity`).  ``0.0`` disables
    #: screening — the exact dense code path, bitwise identical to the
    #: pre-screening pipeline; ``> 0`` drops basis functions whose
    #: amplitude proxy stays below the threshold on a batch.
    screening_threshold: float = 0.0

    def __post_init__(self) -> None:
        checked_screening_threshold(self.screening_threshold)

    def with_grids(self, **kwargs) -> "RunSettings":
        """Return a copy with modified grid settings."""
        return replace(self, grids=replace(self.grids, **kwargs))

    def with_scf(self, **kwargs) -> "RunSettings":
        """Return a copy with modified SCF settings."""
        return replace(self, scf=replace(self.scf, **kwargs))

    def with_cpscf(self, **kwargs) -> "RunSettings":
        """Return a copy with modified CPSCF settings."""
        return replace(self, cpscf=replace(self.cpscf, **kwargs))

    def as_canonical_dict(self) -> Dict[str, Any]:
        """JSON-friendly snapshot with a *canonical* (sorted) key order.

        Two :class:`RunSettings` built from the same field values — in
        any keyword order — produce identical dicts, which is what the
        service layer's content-addressed cache keys hash (see
        :func:`repro.service.jobs.cache_key`); by the *declared* type, an
        equal ``0``, ``-0.0`` or ``0.0`` in a float field is ``0.0``.
        """
        def _canonical(obj) -> Dict[str, Any]:
            return {
                f.name: _canonical(v) if is_dataclass(v)
                else float(v) + 0.0 if f.type == "float" else v
                for f in sorted(fields(obj), key=lambda f: f.name)
                for v in [getattr(obj, f.name)]
            }

        return _canonical(self)

    @classmethod
    def from_canonical_dict(cls, data: Mapping[str, Any]) -> "RunSettings":
        """Rebuild settings from :meth:`as_canonical_dict` output.

        The round trip is exact: ``RunSettings.from_canonical_dict(
        s.as_canonical_dict()) == s`` for every ``s``.  Payloads journaled
        while settings carried a tuner block or a retired field still
        decode; a retired field holding anything but the one value the
        code ever ran raises :class:`~repro.errors.SettingsError`.
        """
        d = dict(data)
        d.pop("tuning", None)
        scf = dict(d.pop("scf"))
        # ``dft/xc.py`` is LDA, ``dft/scf.py`` fills integer occupations and
        # the host engine computed every result (a ``device`` run was its
        # bill, which the settings no longer choose).
        for owner, name, ran in (
            (d, "xc", "lda"), (scf, "occupation_width", 0.0), (d, "backend", "numpy"),
        ):
            value = owner.pop(name, ran)
            if value != ran:
                raise SettingsError(
                    f"retired settings field {name!r} must be {ran!r} (the "
                    f"only value ever computed), got {value!r}"
                )
        return cls(
            grids=GridSettings(**d.pop("grids")),
            scf=SCFSettings(**scf),
            cpscf=CPSCFSettings(**d.pop("cpscf")),
            **d,
        )


_PRESETS: Dict[str, RunSettings] = {
    # Test-grade: small but still numerically meaningful grids.
    "minimal": RunSettings(
        level="minimal",
        grids=GridSettings(n_radial_base=16, n_angular=26, batch_target_points=64),
        l_max_hartree=4,
    ),
    # The paper's production level for its physics runs.
    "light": RunSettings(level="light"),
    # Heavier grids for convergence studies.
    "tight": RunSettings(
        level="tight",
        grids=GridSettings(n_radial_base=36, n_angular=110, batch_target_points=200),
        l_max_hartree=8,
    ),
}


def get_settings(level: str = "light", **overrides) -> RunSettings:
    """Look up a named preset, optionally overriding top-level fields.

    Parameters
    ----------
    level:
        One of ``"minimal"``, ``"light"``, ``"tight"``.
    overrides:
        Keyword overrides applied on top of the preset
        (e.g. ``l_max_hartree=4``).
    """
    try:
        preset = _PRESETS[level]
    except KeyError:
        raise ValueError(
            f"unknown settings level {level!r}; expected one of {sorted(_PRESETS)}"
        ) from None
    return replace(preset, **overrides) if overrides else preset
