"""Plain-text result tables.

Benchmarks render the paper's figures as aligned text tables and persist
them under ``benchmarks/results/`` so a run leaves the regenerated
rows/series on disk next to the expectations in EXPERIMENTS.md.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence


def render_table(
    title: str,
    columns: Sequence[str],
    rows: Iterable[Sequence[object]],
    note: str = "",
) -> str:
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells):
        return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()

    out = [title, "=" * len(title), line(columns),
           line(["-" * w for w in widths])]
    out += [line(row) for row in str_rows]
    if note:
        out += ["", note]
    return "\n".join(out)


#: Every InterfaceCounters field, in display order — the drop columns
#: (down / uncabled / queue / corrupt / duplicate) tell congestion,
#: cabling and gray-link damage apart at a glance.
COUNTER_COLUMNS = (
    ("tx_frames", "tx"),
    ("rx_frames", "rx"),
    ("tx_dropped_down", "txd-down"),
    ("rx_dropped_down", "rxd-down"),
    ("tx_dropped_uncabled", "txd-uncab"),
    ("tx_dropped_queue", "txd-queue"),
    ("rx_dropped_corrupt", "rxd-corrupt"),
    ("rx_duplicate", "rx-dup"),
)


def render_interface_counters(
    title: str,
    interfaces: Iterable[object],
    note: str = "",
) -> str:
    """One row per interface, every counter (drops included) a column."""
    rows = [
        [f"{iface.node.name}:{iface.name}"]
        + [getattr(iface.counters, field) for field, _ in COUNTER_COLUMNS]
        for iface in interfaces
    ]
    columns = ["interface"] + [header for _, header in COUNTER_COLUMNS]
    return render_table(title, columns, rows, note=note)


#: Quarantine-table columns shared by the text and HTML renderings, so
#: the two report formats can never drift apart.
QUARANTINE_COLUMNS = ("task", "key", "attempts", "failure class", "reason")


def quarantine_rows(records: Iterable[object]) -> list[list[str]]:
    """One row per quarantined :class:`TaskRecord` (duck-typed to avoid
    a report → executor import cycle)."""
    rows = []
    for record in records:
        if getattr(record, "state", None) != "quarantined":
            continue
        rows.append([
            record.label,
            record.key[:12],
            str(len(record.attempts)),
            record.failure_class,
            record.quarantine_reason,
        ])
    return rows


def render_quarantine_table(records: Iterable[object]) -> str:
    """The supervisor's quarantine report: which tasks the campaign gave
    up on, and why — empty string when nothing was quarantined."""
    rows = quarantine_rows(records)
    if not rows:
        return ""
    return render_table(
        "quarantined tasks (infra failures, not experiment findings)",
        QUARANTINE_COLUMNS,
        rows,
        note="quarantined = killed by the watchdog / failed "
             "deterministically / exhausted retries; the rest of the "
             "campaign completed without them",
    )


def save_result(results_dir: Path, name: str, text: str) -> Path:
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n")
    return path
