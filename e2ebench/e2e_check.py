"""Output checks of the end-to-end benchmark.

Each ``check_*`` function takes the text one command printed and returns a
:class:`Checked`: how many items the output holds and the problems found
(an empty list means the output is correct).  The checks parse the printed
tables only; in particular the sweep frontier is recomputed here by brute
force over the printed grid, independently of ``repro.dse.pareto``.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field

__all__ = [
    "Checked",
    "strip_volatile",
    "digest",
    "parse_table",
    "surely_dominated",
    "check_report",
    "check_sweep",
    "check_nas",
]

#: Lines that carry a timing; they are dropped before outputs are compared
#: across repeats.
_VOLATILE = re.compile(
    r"^(_\(generated in .*\)_"
    r"|compile time: .*|sim time: .*|search time: .*"
    r"|candidates/second: .*|estimate time: .*)$"
)
_NON_FINITE = re.compile(r"[+-]?(nan|inf|infinity)", re.IGNORECASE)
_SWEEP_KEY = ("network", "batch", "array", "buffers", "technology", "bandwidth")
_SWEEP_OBJECTIVES = ("latency (ms)", "energy (mJ)", "area (mm2)")


@dataclass
class Checked:
    """What one output holds: its item count and the problems found."""

    items: int = 0
    problems: list[str] = field(default_factory=list)
    #: Digest of the part of the output that must match across workloads
    #: (the sweep's grid and frontier tables); empty when not applicable.
    grid_digest: str = ""


def strip_volatile(text: str) -> str:
    """``text`` without its timing lines."""
    return "\n".join(line for line in text.splitlines() if not _VOLATILE.match(line))


def digest(text: str) -> str:
    """SHA-256 of ``text`` once timing lines are stripped."""
    return hashlib.sha256(strip_volatile(text).encode("utf-8")).hexdigest()


def parse_table(lines: list[str], start: int) -> tuple[list[dict[str, str]], int]:
    """Parse the aligned table whose header line is ``lines[start]``.

    Columns are cut at the header's column offsets, so empty cells (the
    sweep grid's ``pareto`` column) parse as ``""``.  Returns the rows and
    the index of the first line after the table.
    """
    header = lines[start]
    names = re.split(r"\s{2,}", header.strip())
    offsets: list[int] = []
    position = 0
    for name in names:
        position = header.index(name, position)
        offsets.append(position)
        position += len(name)
    bounds = list(zip(offsets, offsets[1:] + [None]))
    rows: list[dict[str, str]] = []
    index = start + 2  # skip the dashed rule under the header
    while index < len(lines) and lines[index].strip() and not lines[index].startswith("```"):
        line = lines[index]
        rows.append({name: line[a:b].strip() for name, (a, b) in zip(names, bounds)})
        index += 1
    return rows, index


def surely_dominated(vectors: list[tuple[float, ...]]) -> set[int]:
    """Indices of the vectors another one beats on every objective.

    Printed values are rounded, and rounding keeps order: a printed value
    below another means the true value is below too, while equal printed
    values say nothing.  So only a vector strictly below on every
    objective is sure to dominate.
    """
    return {
        i
        for i, a in enumerate(vectors)
        if any(all(x < y for x, y in zip(b, a)) for j, b in enumerate(vectors) if j != i)
    }


def _finite_number(cell: str) -> float | None:
    try:
        value = float(cell.replace(",", ""))
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _non_finite_cells(block: list[str]) -> list[str]:
    return [
        token
        for line in block
        for token in line.split()
        if _NON_FINITE.fullmatch(token.strip("()[],;:x%"))
    ]


def check_report(text: str, expected_sections: int) -> Checked:
    """The full report: every experiment section present, no nan/inf cells."""
    checked = Checked()
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# Bit Fusion reproduction"):
        checked.problems.append("report title missing")
        return checked
    sections: list[str] = []
    index = 0
    while index < len(lines):
        line = lines[index]
        if line == "## Evaluation session statistics":
            break
        if line.startswith("## "):
            title = line[3:]
            block_start = index + 2
            if block_start >= len(lines) or lines[block_start] != "```":
                checked.problems.append(f"section {title!r} has no table")
                break
            end = block_start + 1
            while end < len(lines) and lines[end] != "```":
                end += 1
            block = lines[block_start + 1 : end]
            if end >= len(lines) or not block:
                checked.problems.append(f"section {title!r} is truncated")
                break
            bad = _non_finite_cells(block)
            if bad:
                checked.problems.append(f"section {title!r} has non-finite cells {bad[:3]}")
            sections.append(title)
            index = end
        index += 1
    else:
        checked.problems.append("session statistics footer missing")
    if len(set(sections)) != len(sections):
        checked.problems.append("duplicate experiment sections")
    if len(sections) != expected_sections:
        checked.problems.append(f"{len(sections)} of {expected_sections} experiment sections")
    checked.items = len(sections)
    return checked


def _find(lines: list[str], prefix: str) -> int:
    for index, line in enumerate(lines):
        if line.startswith(prefix):
            return index
    return -1


def check_sweep(text: str, expected_points: int) -> Checked:
    """The sweep: every grid row present and the frontier right.

    The frontier is recomputed per (network, batch) group by comparing
    every pair of printed rows on latency, energy and area.  Printed values
    are rounded, so the check is exact up to ties in print: no starred row
    may be beaten on every objective by another row, each unstarred row
    must be matched or beaten on every objective by a starred one, and the
    frontier table must list the starred rows.
    """
    checked = Checked()
    lines = text.splitlines()
    grid_title = _find(lines, "Design-space grid")
    frontier_title = _find(lines, "Pareto frontier minimizing")
    if grid_title < 0 or frontier_title < 0:
        checked.problems.append("grid or frontier table missing")
        return checked
    grid, _ = parse_table(lines, grid_title + 1)
    frontier, end = parse_table(lines, frontier_title + 1)
    checked.items = len(grid)
    checked.grid_digest = digest("\n".join(lines[grid_title:end]))
    if len(grid) != expected_points:
        checked.problems.append(f"{len(grid)} of {expected_points} grid rows")
    keys = [tuple(row.get(name, "") for name in _SWEEP_KEY) for row in grid]
    if len(set(keys)) != len(keys):
        checked.problems.append("duplicate grid rows")
    groups: dict[tuple[str, str], list[int]] = {}
    vectors: list[tuple[float, ...]] = []
    for index, row in enumerate(grid):
        values = [_finite_number(row.get(name, "")) for name in _SWEEP_OBJECTIVES]
        if any(value is None or value <= 0 for value in values):
            checked.problems.append(f"grid row {keys[index]} has a bad objective value")
            return checked
        vectors.append(tuple(values))  # type: ignore[arg-type]
        groups.setdefault(keys[index][:2], []).append(index)
    starred = {i for i, row in enumerate(grid) if row.get("pareto") == "*"}
    for members in groups.values():
        beaten = {members[i] for i in surely_dominated([vectors[i] for i in members])}
        front = [vectors[i] for i in members if i in starred]
        if starred & beaten:
            checked.problems.append(f"frontier of {keys[members[0]][:2]} holds a dominated point")
        if any(
            not any(all(x <= y for x, y in zip(f, vectors[i])) for f in front)
            for i in members
            if i not in starred
        ):
            checked.problems.append(f"frontier of {keys[members[0]][:2]} misses a point")
    listed = {tuple(row.get(name, "") for name in _SWEEP_KEY) for row in frontier}
    if listed != {keys[i] for i in starred}:
        checked.problems.append("frontier table differs from the starred grid rows")
    summary = f"{len(starred)} of {len(grid)} design points are Pareto-optimal."
    if summary not in lines:
        checked.problems.append("frontier summary line wrong or missing")
    return checked


_PRICED = re.compile(r"^estimator: (\d+) candidates priced \((\d+) in-batch duplicates\)")
_UNIQUE = re.compile(r"^frontier: (\d+) of (\d+) unique candidates$")


def check_nas(text: str, population: int, generations: int) -> Checked:
    """The search priced every unique proposal once; its frontier is non-dominated.

    A search proposes ``population`` networks per generation; duplicates
    are priced once, so the count priced must equal the unique candidates
    reported and lie in ``(population, population * generations]``.
    """
    checked = Checked()
    lines = text.splitlines()
    priced = next((m for m in map(_PRICED.match, lines) if m), None)
    unique = next((m for m in map(_UNIQUE.match, lines) if m), None)
    header = _find(lines, "candidate ")
    if priced is None or unique is None or header < 0:
        checked.problems.append("estimator statistics or frontier missing")
        return checked
    count, unique_count = int(priced.group(1)), int(unique.group(2))
    checked.items = count
    if count != unique_count:
        checked.problems.append(f"{count} candidates priced for {unique_count} unique ones")
    if not population < count <= population * generations:
        checked.problems.append(
            f"{count} candidates priced, expected ({population}, {population * generations}]"
        )
    rows, _ = parse_table(lines, header)
    if len(rows) != int(unique.group(1)) or not rows:
        checked.problems.append("frontier table size differs from the frontier count")
        return checked
    objective_columns = list(rows[0])[3:]
    vectors = [tuple(_finite_number(row[name]) for name in objective_columns) for row in rows]
    if any(value is None for vector in vectors for value in vector):
        checked.problems.append("frontier row has a bad objective value")
    elif surely_dominated(vectors):  # type: ignore[arg-type]
        checked.problems.append("frontier holds a dominated candidate")
    return checked
