"""Model-parity golden: the e2e smoke ladder's 12 ``SimulationReport`` s.

Recorded from the parent of PR 22 (702c187): the 602-atom polyethylene chain
at ``light``, {HPC1_SUNWAY, HPC2_AMD} x {16, 32, 64} ranks x
{``all()``, ``none()``} — the ladder ``benchmarks/e2e`` runs at smoke size.
Integers with ``==``, modeled seconds at ``rel=1e-12``, and a SHA-256 over
each assignment's ``batches_of_rank``.  ROADMAP item 5(b) folds three cost
models into one; this is the numeric guard that the paper-figure outputs do
not move while it does (the Figs. 9-16 bands are structural only).
"""

import hashlib

import pytest

from repro.atoms import polyethylene
from repro.config import get_settings
from repro.core import PerturbationSimulator
from repro.comm.schemes import (
    BaselineRowwiseAllreduce,
    PackedAllreduce,
    PackedHierarchicalAllreduce,
)
from repro.core.flags import OptimizationFlags
from repro.experiments import run_fig11_indirect, run_fig12b_horizontal, run_fig13_collapse
from repro.experiments.fig10_allreduce import rho_multipole_row_bytes
from repro.runtime import machines

#: (machine, ranks, locality, memory_per_rank_bytes, splines_per_rank,
#:  points_per_rank, init, DM, Sumup, Rho, H, Comm, scheme, communication,
#:  local_update)
REPORTS = [
    ("HPC1_SUNWAY", 16, True, 1707552, 52, 56000,
     0.0006844953285714286, 1.130327500300513, 2.1624321939827595, 2.7548647450906816,
     3.240868239417551, 0.007345948, "packed", 0.007345948, 0.0),
    ("HPC1_SUNWAY", 16, False, 15632372, 602, 55879,
     0.004111062361904762, 7.977206883841648, 2.571087559466183, 21.25585815342402,
     3.649523604900974, 0.03417794800000001, "baseline", 0.03417794800000001, 0.0),
    ("HPC1_SUNWAY", 32, True, 903168, 46, 28100,
     0.00034741807142857145, 0.5912085501502565, 1.08496131532007, 2.0519436721769853,
     1.6260451443444461, 0.0076112715999999995, "packed", 0.0076112715999999995, 0.0),
    ("HPC1_SUNWAY", 32, False, 15632372, 602, 28002,
     0.0020666299047619047, 4.014648241920824, 1.28999601426504, 20.754766099510324,
     1.8310798432894162, 0.0414752716, "baseline", 0.0414752716, 0.0),
    ("HPC1_SUNWAY", 64, True, 596232, 23, 14176,
     0.00017976482857142857, 0.32204387507512827, 0.5490560204238996, 1.029035935078791,
     0.8228751802110433, 0.0077570934, "packed", 0.0077570934, 0.0),
    ("HPC1_SUNWAY", 64, False, 15632372, 602, 14058,
     0.001039043657142857, 2.033763720960412, 0.6460852559563623, 20.502903876528155,
     0.9170815378075562, 0.049085093399999995, "baseline", 0.049085093399999995, 0.0),
    ("HPC2_AMD", 16, True, 1707552, 52, 56000,
     0.000683534001625, 1.085209300300513, 2.3605073541357675, 1.33856106516669,
     3.540046778830071, 0.00169600848, "packed_hierarchical", 0.0, 0.00169600848),
    ("HPC2_AMD", 16, False, 15632372, 602, 55879,
     0.001784795089625, 8.663719402404105, 2.470663125560659, 35.23241475875338,
     3.650202550254962, 0.0146294127, "baseline", 0.0146294127, 0.0),
    ("HPC2_AMD", 32, True, 903168, 46, 28100,
     0.000390783495625, 0.5445726501502566, 1.1843854337359387, 0.7631606601715162,
     1.7761958717313504, 0.0033208635199999995, "packed_hierarchical", 0.0, 0.0033208635199999995),
    ("HPC2_AMD", 32, False, 15632372, 602, 28002,
     0.000943319335625, 4.333827701202052, 1.2396539003678047, 34.68460415599011,
     1.8314643383632163, 0.02113705979, "baseline", 0.02113705979, 0.0),
    ("HPC2_AMD", 64, True, 596232, 23, 14176,
     0.00024517719725, 0.35328707507512824, 0.5994137402382835, 0.3849333597766178,
     0.898903446255472, 0.004141742186666666, "packed_hierarchical", 0.0008208786666666667, 0.0033208635199999995),
    ("HPC2_AMD", 64, False, 15632372, 602, 14058,
     0.000520371192, 2.247914600601026, 0.6209158510471735, 34.4092599450661,
     0.9173180343219167, 0.051588089000000004, "baseline", 0.051588089000000004, 0.0),
]

#: (ranks, locality) -> sha256(repr(batches_of_rank))
ASSIGNMENTS = {
    (16, False): "18f8a2460148702a50e42b9fa5a7d77303fa55ad51375a42a29fbaf3242231c6",
    (16, True): "9e79f4fcb999c0ae3bf4231934145b37fe76492738d355a61d3c68979d7d2c8a",
    (32, False): "98c40e79b1e397c1b7e580c77904c28a5e76da7bda4efd9672202ab382fc97f3",
    (32, True): "2c21acc840f0fd50b5be971e91075c06efcde94cc37e3b4f2d79cb080c87e3c7",
    (64, False): "b5b664ad1e3ced8fc6b28455a93a38cd20aeb0c52a5b8957283f464ae3d83e3c",
    (64, True): "6b49b91b4c285b81cca5a9d1a6e2a46a355726bb1c123ea8577eaed5f67bf5db",
}


@pytest.fixture(scope="module")
def simulator():
    return PerturbationSimulator(polyethylene(100), get_settings("light"))


@pytest.mark.parametrize("row", REPORTS, ids=lambda r: f"{r[0]}-{r[1]}-{'all' if r[2] else 'none'}")
def test_report_equals_the_parents(simulator, row):
    machine, n_ranks, locality, memory, splines, points, init, *seconds = row
    dm, sumup, rho, h, comm, scheme, communication, local_update = seconds
    flags = OptimizationFlags.all() if locality else OptimizationFlags.none()
    report = simulator.run_model(getattr(machines, machine), n_ranks, flags)
    assert (report.n_atoms, report.n_basis, report.n_ranks) == (602, 4210, n_ranks)
    assert report.flags.locality_mapping is locality
    assert report.memory_per_rank_bytes == memory
    assert report.splines_per_rank == splines
    assert report.points_per_rank == points
    assert report.init_seconds == pytest.approx(init, rel=1e-12)
    assert report.per_cycle_seconds == pytest.approx(
        {"DM": dm, "Sumup": sumup, "Rho": rho, "H": h, "Comm": comm}, rel=1e-12
    )
    assert report.comm_detail["scheme"] == scheme
    assert report.comm_detail["communication"] == pytest.approx(communication, rel=1e-12)
    assert report.comm_detail["local_update"] == pytest.approx(local_update, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("key", sorted(ASSIGNMENTS))
def test_assignment_equals_the_parents(simulator, key):
    owned = simulator.assignment(*key).batches_of_rank
    assert hashlib.sha256(repr(owned).encode()).hexdigest() == ASSIGNMENTS[key]


# Figure rows recorded at aa2a225, before the executed reductions stopped
# charging a second cost model and the loop collapse was priced once; the
# ladder above does not reach these calls.  Seconds at ``rel=1e-12``.

#: (machine, atoms, ranks, scheme, n_collectives, communication, local_update)
#: of ``scheme.estimate`` at Fig. 10's 16 072-byte rows.
FIG10_ESTIMATES = [
    ("HPC1_SUNWAY", 30002, 256, "baseline", 30002, 3.37004590475, 0.0),
    ("HPC1_SUNWAY", 30002, 256, "packed", 59, 0.39011854475, 0.0),
    ("HPC1_SUNWAY", 60002, 8192, "baseline", 60002, 31.470810820185935, 0.0),
    ("HPC1_SUNWAY", 60002, 8192, "packed", 118, 0.8317610601859375, 0.0),
    ("HPC2_AMD", 30002, 256, "baseline", 30002, 5.27272024125, 0.0),
    ("HPC2_AMD", 30002, 256, "packed", 59, 0.6495210412499999, 0.0),
    ("HPC2_AMD", 30002, 256, "packed_hierarchical", 59, 0.0716589876666666, 0.16289940751999987),
    ("HPC2_AMD", 60002, 4096, "baseline", 60002, 104.27292174195313, 0.0),
    ("HPC2_AMD", 60002, 4096, "packed", 118, 1.4880241419531248, 0.0),
    ("HPC2_AMD", 60002, 4096, "packed_hierarchical", 118, 0.17088029047916667, 0.3257882075199999),
    ("HPC2_AMD", 3002, 100, "baseline", 3002, 0.32035855008, 0.0),
    ("HPC2_AMD", 3002, 100, "packed", 6, 0.06420055008, 0.0),
    ("HPC2_AMD", 3002, 100, "packed_hierarchical", 6, 0.00797470304, 0.0024316072),
]

_SCHEMES = {
    "baseline": BaselineRowwiseAllreduce,
    "packed": PackedAllreduce,
    "packed_hierarchical": PackedHierarchicalAllreduce,
}


@pytest.mark.parametrize("row", FIG10_ESTIMATES, ids=lambda r: f"{r[0]}-{r[1]}-{r[2]}-{r[3]}")
def test_fig10_estimate_equals_the_parents(row):
    machine, atoms, ranks, scheme, n_collectives, communication, local_update = row
    report = _SCHEMES[scheme]().estimate(
        getattr(machines, machine), ranks, atoms, rho_multipole_row_bytes()
    )
    assert (report.scheme, report.n_collectives) == (scheme, n_collectives)
    assert report.communication_time == pytest.approx(communication, rel=1e-12)
    assert report.local_update_time == pytest.approx(local_update, rel=1e-12, abs=0.0)


#: Figure rows on the 602-atom chain at 16 and 64 ranks: (machine, atoms,
#: ranks, init before, init after, speedup) for Fig. 11 and (atoms, ranks,
#: rho_time off, rho_time on, speedup) for Figs. 12(b) and 13.
FIGURE_ROWS = {
    "fig11": (run_fig11_indirect, [
        ("HPC#1", 602, 16, 0.004111062361904762, 0.0006844953285714286, 6.005975775590357),
        ("HPC#1", 602, 64, 0.0010497836952380953, 0.00017976482857142857, 5.839761334742794),
        ("HPC#2", 602, 16, 0.001784795089625, 0.000683534001625, 2.611128466735987),
        ("HPC#2", 602, 64, 0.0005247917252500001, 0.00024517719725, 2.140458946167352),
    ]),
    "fig12b": (run_fig12b_horizontal, [
        (602, 16, 3.015017632569003, 1.33856106516669, 2.2524318919985507),
        (602, 64, 1.1265366876661023, 0.3849333597766178, 2.926575883991575),
    ]),
    "fig13": (run_fig13_collapse, [
        (602, 16, 1.4676795344049711, 1.33856106516669, 1.0964606491241415),
        (602, 64, 0.44204345193970374, 0.3849333597766178, 1.148363582195702),
    ]),
}


@pytest.mark.parametrize("figure", sorted(FIGURE_ROWS))
def test_figure_rows_equal_the_parents(figure):
    run, expected = FIGURE_ROWS[figure]
    rows = run(sweep={602: (16, 64)}).rows
    assert len(rows) == len(expected)
    for got, want in zip(rows, expected):
        n_keys = len(want) - 3
        assert got[:n_keys] == want[:n_keys]
        assert got[n_keys:] == pytest.approx(want[n_keys:], rel=1e-12)
