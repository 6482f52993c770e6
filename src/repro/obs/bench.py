"""Backend-benchmark emission shared by the CLI gate and the bench script.

The measurement itself (repeated Sumup + H sweeps over the host engine
in its two cache regimes, outputs asserted bit-identical, and the warm
run's device bill) lives here so that both entry points produce the
same ``BENCH_backends.json`` shape:

* ``benchmarks/bench_backends.py`` — prints the comparison table and
  (re)writes the committed baseline;
* ``repro bench-check`` — re-runs the emission at the baseline's own
  parameters and feeds it to :mod:`repro.obs.regress`.

:func:`sparse_emission` is the block-sparse sibling
(``BENCH_sparse.json``, via ``benchmarks/bench_sparse.py``): dense vs
screened sweeps on a polyethylene chain, pinning the blocks and
elements the screening mask keeps.  :func:`emission_for_baseline`
dispatches the gate to whichever emission a baseline came from.

The emission carries a :class:`~repro.obs.report.Provenance` block, so
every ``BENCH_*.json`` names the commit, seed and machine models it was
produced under (the EXPERIMENTS.md footer policy).

The document is *byte-stable by construction*: no emission reads a
clock — every leaf is a deterministic counter or a cost-model float —
so two runs of the same code serialize to identical bytes outside the
``provenance`` block (writers use sorted keys).  Wall time is measured
and gated in one place, ``BENCHMARK.json`` + ``benchmarks/e2e``.
:func:`stable_view` remains for the documents that *do* carry measured
``timings`` for a reader (service result payloads).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.backends.device import device_bill
from repro.errors import ExperimentError
from repro.obs.report import collect_provenance

#: Seed of the random density/potential inputs the sweeps contract.
BENCH_SEED = 2023


def sweep(builder, n_sweeps: int, seed: int = BENCH_SEED) -> dict:
    """Run ``n_sweeps`` Sumup + H passes on seeded inputs; return the outputs."""
    rng = np.random.default_rng(seed)
    nb = builder.basis.n_basis
    p = rng.normal(size=(nb, nb))
    p = p + p.T
    v = rng.normal(size=builder.grid.n_points)
    density = potential = None
    for _ in range(n_sweeps):
        density = builder.backend.density_on_grid(p)
        potential = builder.potential_matrix(v)
    return {"density": density, "potential": potential}


def backend_emission(level: str, n_sweeps: int) -> dict:
    """Run the full comparison; return the ``BENCH_backends.json`` document.

    Raises :class:`~repro.errors.ExperimentError` if the cold row's
    outputs diverge bitwise from the warm host engine, or if a row's
    ``basis`` evaluation count is not the one its cache regime defines
    — a benchmark must never count a wrong answer or a wrong regime.
    The ``device`` row is the warm run's :func:`device_bill` on HPC#2.
    """
    from repro.atoms import water
    from repro.backends.batched import BatchedBackend
    from repro.config import get_settings
    from repro.dft.hamiltonian import MatrixBuilder, build_substrate

    if n_sweeps < 1:
        raise ExperimentError(f"need >= 1 sweep, got {n_sweeps}")
    # One substrate; the host engine at its default budget (``warm``:
    # every block evaluated once) and at budget 0 (``cold``: every block
    # evaluated on every pass).
    sub = build_substrate(water(), get_settings(level).grids)
    builders = {
        row: MatrixBuilder(sub.basis, sub.grid, batches=sub.batches, backend=engine)
        for row, engine in (
            ("warm", BatchedBackend()), ("cold", BatchedBackend(max_cache_bytes=0)),
        )
    }
    reference = builders["warm"]
    ref, cold = (sweep(b, n_sweeps) for b in builders.values())
    for name in ("density", "potential"):
        if not np.array_equal(ref[name], cold[name]):
            raise ExperimentError(f"cold {name} diverged from warm")
    # One Sumup and one H pass per sweep, each looking up every fused
    # view; the basis row counts the batches of the views evaluated.
    n_views, n_batches = len(reference.views), reference.views.n_batches
    for row, passes in (("warm", 1), ("cold", 2 * n_sweeps)):
        profile = builders[row].backend.profile
        evaluated = profile.phases["basis"].calls
        if (evaluated, profile.cache_misses) != (passes * n_batches, passes * n_views):
            raise ExperimentError(
                f"{row} regime evaluated {evaluated} batch blocks in "
                f"{profile.cache_misses} views, expected {passes * n_batches} "
                f"in {passes * n_views}"
            )

    report: dict = {
        "system": "water",
        "level": level,
        "n_points": reference.grid.n_points,
        "n_basis": reference.basis.n_basis,
        "n_sweeps": n_sweeps,
        "backends": {},
        "provenance": collect_provenance(seed=BENCH_SEED).as_dict(),
    }
    for row, builder in builders.items():
        profile = builder.backend.profile.as_dict()
        # Per-phase wall ``seconds`` are the snapshot's only clock reads.
        for stats in profile["phases"].values():
            del stats["seconds"]
        report["backends"][row] = {"profile": profile}
    report["backends"]["device"] = {
        "bill": device_bill(reference.backend.profile).as_dict()
    }
    return report


def sparse_emission(
    n_units: int,
    n_sweeps: int,
    threshold: Optional[float] = None,
    level: str = "minimal",
) -> dict:
    """Dense-vs-screened comparison; the ``BENCH_sparse.json`` document.

    A polyethylene chain (``H(C2H4)nH``, the paper's linear-scaling
    workload shape) is long enough that the screening mask drops
    columns — unlike the water molecule of :func:`backend_emission`,
    whose every function reaches every batch.  Two builders share one
    basis/grid/batch decomposition: the unscreened reference
    (``screening_threshold = 0``) and the screened one at *threshold*;
    both run ``n_sweeps`` Sumup + H sweeps.

    The screened outputs are checked against the dense ones within the
    physics tolerance (1e-4) before anything is reported, and the
    screened views' :class:`~repro.grids.sparsity.SparsityStats` are
    recorded: active against relevant-atom blocks and elements, so the
    ratios say what screening drops beyond compaction.  The measured
    dense-vs-screened wall is ``chain32_kernels`` ``op_a_ms`` /
    ``op_b_ms`` on the end-to-end benchmark.
    """
    from repro.atoms import polyethylene
    from repro.config import get_settings
    from repro.dft.hamiltonian import MatrixBuilder, build_substrate
    from repro.grids.sparsity import DEFAULT_SCREENING_THRESHOLD

    if n_sweeps < 1:
        raise ExperimentError(f"need >= 1 sweep, got {n_sweeps}")
    if threshold is None:
        threshold = DEFAULT_SCREENING_THRESHOLD
    if threshold <= 0.0:
        raise ExperimentError(
            f"the sparse benchmark needs a positive threshold, got {threshold}"
        )
    structure = polyethylene(n_units)
    sub = build_substrate(structure, get_settings(level).grids)
    dense = MatrixBuilder(sub.basis, sub.grid, batches=sub.batches, backend="numpy")
    screened = MatrixBuilder(
        sub.basis,
        sub.grid,
        batches=sub.batches,
        backend="numpy",
        screening_threshold=threshold,
    )
    results = {
        "dense": sweep(dense, n_sweeps),
        "screened": sweep(screened, n_sweeps),
    }

    density_diff = float(
        np.abs(results["dense"]["density"] - results["screened"]["density"]).max()
    )
    potential_diff = float(
        np.abs(
            results["dense"]["potential"] - results["screened"]["potential"]
        ).max()
    )
    if max(density_diff, potential_diff) > 1e-4:
        raise ExperimentError(
            f"screened outputs left the physics tolerance: density diff "
            f"{density_diff:.3e}, potential diff {potential_diff:.3e}"
        )

    stats = screened.views.stats
    return {
        "benchmark": "sparse",
        "system": "polyethylene",
        "n_units": n_units,
        "n_atoms": structure.n_atoms,
        "level": level,
        "n_points": sub.grid.n_points,
        "n_basis": sub.basis.n_basis,
        "n_sweeps": n_sweeps,
        "threshold": threshold,
        "sparsity": stats.as_dict(),
        "block_reduction": stats.block_reduction,
        "diff": {
            "density_max_diff": density_diff,
            "potential_max_diff": potential_diff,
        },
        "provenance": collect_provenance(seed=BENCH_SEED).as_dict(),
    }


def fleet_emission(
    level: str = "minimal",
    n_requests: int = 16,
    n_distinct: int = 4,
) -> dict:
    """Fleet-vs-sequential throughput; the ``BENCH_fleet.json`` document.

    ``n_requests`` jobs over ``n_distinct`` H2 bond-length variants (a
    screening-service shape: many near-duplicate small systems) run
    twice: once sequentially — one
    :meth:`~repro.core.simulator.PerturbationSimulator.run_physics` per
    request — and once through :func:`~repro.fleet.driver.run_fleet`.
    Every per-request result payload is asserted byte-identical between
    the two before any number is reported: the benchmark never counts a
    wrong answer.

    The gated headline is ``model.molecules_per_second_speedup`` — the
    device bills (:func:`device_bill`, HPC#2) of all sequential runs
    over those of the fleet's per-group profiles, which is the dedup
    factor ``n_requests / n_distinct`` up to float association.  The measured
    sequential-vs-fleet wall is ``service_mix`` ``op_a_ms`` /
    ``op_b_ms`` on the end-to-end benchmark.
    """
    from repro.atoms import hydrogen_molecule
    from repro.config import get_settings
    from repro.core import PerturbationSimulator
    from repro.fleet import fleet_tasks_from_requests, run_fleet
    from repro.service.jobs import JobRequest, physics_from_payload
    from repro.service.worker import result_payload, stable_result_bytes

    if n_requests < 1 or n_distinct < 1 or n_distinct > n_requests:
        raise ExperimentError(
            f"need 1 <= n_distinct <= n_requests, got "
            f"{n_distinct}/{n_requests}"
        )
    settings = get_settings(level)
    requests = [
        JobRequest(
            hydrogen_molecule(bond_length=1.40 + 0.02 * (i % n_distinct)),
            settings,
            seed=i,
        )
        for i in range(n_requests)
    ]
    tasks = fleet_tasks_from_requests(requests, commit=f"bench-{BENCH_SEED}")

    def device_totals(profiles) -> Dict[str, float]:
        """Summed device bills of some runs' backend profiles."""
        bills = [device_bill(profile) for profile in profiles]
        return {
            "modeled_seconds": sum(b.modeled_seconds for b in bills),
            "launches": sum(b.launches for b in bills),
            "bytes": sum(b.bytes_transferred for b in bills),
        }

    # Sequential reference: one isolated simulator per request.
    sequential_profiles = []
    reference_bytes: Dict[str, bytes] = {}
    for task in tasks:
        structure, run_settings, charge = physics_from_payload(task.payload)
        sim = PerturbationSimulator(structure, run_settings, charge=charge)
        result = sim.run_physics()
        sequential_profiles.append(result.backend_profile)
        reference_bytes[task.key] = stable_result_bytes(
            result_payload(task, structure, run_settings, result)
        )
    sequential = device_totals(sequential_profiles)

    # Fleet run: shared substrates, one run per distinct physics.
    outcome = run_fleet(tasks)
    if outcome.errors:
        raise ExperimentError(f"fleet run failed: {outcome.errors}")
    for key, payload in outcome.results.items():
        if stable_result_bytes(payload) != reference_bytes[key]:
            raise ExperimentError(
                f"fleet result for {key} diverged bitwise from the "
                f"sequential reference"
            )
    fleet = device_totals(outcome.report.profiles.values())

    return {
        "benchmark": "fleet",
        "system": "h2-variants",
        "level": level,
        "n_sweeps": 1,
        "n_requests": n_requests,
        "n_distinct": n_distinct,
        "groups": outcome.report.n_groups,
        "substrates": outcome.report.substrates,
        "launches": {
            "sequential": sequential["launches"],
            "fleet": fleet["launches"],
        },
        "model": {
            "sequential": {"modeled_seconds": sequential["modeled_seconds"]},
            "fleet": {"modeled_seconds": fleet["modeled_seconds"]},
            "molecules_per_second_speedup": (
                sequential["modeled_seconds"] / fleet["modeled_seconds"]
            ),
        },
        "transfers": {
            "sequential_bytes": sequential["bytes"],
            "fleet_bytes": fleet["bytes"],
        },
        "provenance": collect_provenance(seed=BENCH_SEED).as_dict(),
    }


def _emissions() -> Dict[str, tuple]:
    """kind -> (emission, ((run parameter, type), ...)), one row per baseline.

    The parameters are the baseline's own top-level keys and the
    emission's keyword names at once.
    """
    return {
        "backends": (backend_emission, (("level", str), ("n_sweeps", int))),
        "sparse": (
            sparse_emission,
            (("n_units", int), ("n_sweeps", int), ("threshold", float),
             ("level", str)),
        ),
        "fleet": (
            fleet_emission,
            (("level", str), ("n_requests", int), ("n_distinct", int)),
        ),
    }


def baseline_run_parameters(baseline: dict) -> Tuple[str, Dict[str, object]]:
    """The (kind, keyword arguments) a fresh emission needs to be comparable.

    The kind is the document's ``benchmark`` tag (absent in the original
    backend emissions, so those default to ``"backends"``).

    >>> baseline_run_parameters({"level": "light", "n_sweeps": 8})
    ('backends', {'level': 'light', 'n_sweeps': 8})
    """
    kind = str(baseline.get("benchmark", "backends"))
    try:
        _, parameters = _emissions()[kind]
    except KeyError:
        raise ExperimentError(
            f"unknown benchmark kind {kind!r} in baseline"
        ) from None
    try:
        return kind, {name: cast(baseline[name]) for name, cast in parameters}
    except (KeyError, TypeError, ValueError):
        names = ", ".join(name for name, _ in parameters)
        raise ExperimentError(
            f"{kind} baseline is missing its run parameters ({names}); "
            "regenerate it with the current benchmark"
        ) from None


def emission_for_baseline(baseline: dict) -> dict:
    """Re-run the emission that produced *baseline*, at its own parameters.

    The regression gate stays one code path for every ``BENCH_*.json``.
    """
    kind, parameters = baseline_run_parameters(baseline)
    return _emissions()[kind][0](**parameters)


def stable_view(report: dict) -> dict:
    """A document with every ``timings`` subtree removed, recursively.

    For documents that carry measured seconds for a reader (service
    result payloads): what remains is deterministic, so serializing it
    with sorted keys yields identical bytes across repeated runs of the
    same code.  The ``BENCH_*.json`` emissions
    carry no such subtree to strip.

    >>> stable_view({"a": 1, "timings": {"wall": 0.3},
    ...              "b": {"timings": {}, "calls": 2}})
    {'a': 1, 'b': {'calls': 2}}
    """
    return {
        k: stable_view(v) if isinstance(v, dict) else v
        for k, v in report.items()
        if k != "timings"
    }
