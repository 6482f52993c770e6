"""Plain-text report formatting shared by examples and the bench harness.

The paper's figures are reproduced as printed series; these helpers keep
the output uniform (fixed-width tables, human-readable byte/second units).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.backends.base import BackendProfile
    from repro.verify.invariants import VerifyReport


def format_bytes(n: float) -> str:
    """Render a byte count with binary units, e.g. ``21373.0 KB``-style.

    Values are shown in the largest unit that keeps the mantissa >= 1.
    """
    n = float(n)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(n) < 1024.0 or unit == "TB":
            return f"{n:.1f} {unit}"
        n /= 1024.0
    raise AssertionError("unreachable")


def format_seconds(s: float) -> str:
    """Render seconds with an adaptive unit (us/ms/s/min)."""
    if s < 0:
        raise ValueError(f"negative duration: {s}")
    if s < 1e-3:
        return f"{s * 1e6:.1f} us"
    if s < 1.0:
        return f"{s * 1e3:.2f} ms"
    if s < 120.0:
        return f"{s:.3f} s"
    return f"{s / 60.0:.2f} min"


def format_backend_profile(profile: "BackendProfile") -> str:
    """Render a backend's per-phase profile as a fixed-width table.

    One row per phase (calls, elements processed, wall seconds), plus
    block-cache and device-launch summary lines when those counters are
    live — the CLI's per-phase observability of the DM/Sumup/H work.
    """
    table = TableFormatter(
        ["phase", "calls", "elements", "wall"],
        title=f"backend profile [{profile.backend}]",
    )
    for name, stats in profile.phases.items():
        table.add_row(
            [name, stats.calls, f"{stats.elements:,}", format_seconds(stats.seconds)]
        )
    lines = [table.render()]
    if profile.cache_hits or profile.cache_misses:
        total = profile.cache_hits + profile.cache_misses
        lines.append(
            f"block cache: {profile.cache_hits}/{total} hits, "
            f"{profile.cache_evictions} evictions, "
            f"peak {format_bytes(profile.cache_peak_bytes)} "
            f"(bound {format_bytes(profile.cache_max_bytes)})"
        )
    if profile.view_count:
        lines.append(
            f"views: {profile.view_count} fused, "
            f"{profile.view_padded_fraction:.1%} of block entries padding"
        )
    if profile.device_launches:
        lines.append(
            f"device: {profile.device_launches} launches, "
            f"{format_seconds(profile.device_modeled_seconds)} modeled, "
            f"{format_bytes(profile.device_bytes_transferred)} transferred"
        )
    if profile.screen_blocks_evaluated or profile.screen_blocks_skipped:
        relevant = profile.screen_blocks_evaluated + profile.screen_blocks_skipped
        lines.append(
            f"screening: {profile.screen_blocks_evaluated:,}/{relevant:,} "
            f"relevant-atom blocks evaluated "
            f"({profile.screen_blocks_skipped:,} skipped)"
        )
    return "\n".join(lines)


def format_verify_report(report: "VerifyReport") -> str:
    """Render an invariant-verification report as a fixed-width table.

    One row per evaluated check (phase, tolerance class, residual,
    tolerance, status), a summary line, and — when anything failed —
    one detail line per failure so a regression names the exact
    invariant that broke.
    """
    table = TableFormatter(
        ["invariant", "phase", "class", "residual", "tolerance", "status"],
        title=f"verification report [level={report.level}]",
    )
    for r in report.results:
        table.add_row(
            [
                r.name,
                r.phase,
                r.tol_class,
                f"{r.residual:.3e}",
                f"{r.tolerance:.1e}",
                r.status,
            ]
        )
    n = len(report.results)
    n_fail = len(report.failures)
    lines = [table.render()]
    lines.append(
        f"{n - n_fail}/{n} checks passed"
        + ("" if report.ok else f"; FAILED: {', '.join(report.failed_names)}")
    )
    for r in report.failures:
        if r.detail:
            lines.append(f"  {r.name}: {r.detail}")
    return "\n".join(lines)


class TableFormatter:
    """Fixed-width text tables for experiment output.

    >>> t = TableFormatter(["a", "b"])
    >>> t.add_row([1, "x"])
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(self, headers: Sequence[str], title: str = "") -> None:
        self.title = title
        self.headers = [str(h) for h in headers]
        self.rows: List[List[str]] = []

    def add_row(self, values: Iterable[object]) -> None:
        row = [str(v) for v in values]
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(row)

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(" | ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append(sep)
        for row in self.rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)
