"""Table formatting shared by the experiment runners and the benchmarks.

The experiments return plain rows (lists of dictionaries or dataclasses with
``as_row()``); :func:`format_table` renders them as aligned text tables.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

__all__ = ["format_table"]


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return str(value)


def _normalize_rows(rows: Sequence[Mapping[str, Any] | Any]) -> list[dict[str, Any]]:
    normalized: list[dict[str, Any]] = []
    for row in rows:
        if isinstance(row, Mapping):
            normalized.append(dict(row))
        elif hasattr(row, "as_row"):
            normalized.append(dict(row.as_row()))
        elif hasattr(row, "__dataclass_fields__"):
            normalized.append(
                {name: getattr(row, name) for name in row.__dataclass_fields__}
            )
        else:
            raise TypeError(f"cannot turn {type(row).__name__} into a table row")
    return normalized


def format_table(rows: Sequence[Mapping[str, Any] | Any], title: str | None = None) -> str:
    """Render rows as an aligned plain-text table."""
    if not rows:
        return title or "(no rows)"
    normalized = _normalize_rows(rows)
    columns = list(normalized[0].keys())
    # Each cell is formatted once; a string cell's text is the value itself.
    texts = [[_format_value(row.get(column, "")) for column in columns] for row in normalized]
    widths = [
        max(len(column), *(len(line[index]) for line in texts))
        for index, column in enumerate(columns)
    ]
    lines: list[str] = []
    if title:
        lines.append(title)
    header = "  ".join(column.ljust(width) for column, width in zip(columns, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row, line in zip(normalized, texts):
        # Numbers right-align; bools, strings and missing cells do not.
        lines.append(
            "  ".join(
                text.rjust(width)
                if isinstance(value, (int, float)) and not isinstance(value, bool)
                else text.ljust(width)
                for value, text, width in zip(
                    (row.get(column) for column in columns), line, widths
                )
            )
        )
    return "\n".join(lines)
