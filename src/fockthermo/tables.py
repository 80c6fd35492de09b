"""Fixed-schema CSV tables: a row dataclass's field order, without
``error`` (carried only by the JSON mirror), is its header."""

from __future__ import annotations

import dataclasses


def fmt(x: float) -> str:
    """The one number format of every table and printout: 9 significant digits."""
    return format(x, ".9g")


def cell(value) -> str:
    """A CSV cell: None empty, bool true/false, float :func:`fmt`, else str."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return fmt(value) if isinstance(value, float) else str(value)


def columns(row_type) -> list[str]:
    return [f.name for f in dataclasses.fields(row_type) if f.name != "error"]


def csv_text(row_type, rows) -> str:
    """Header line and one line per row, newline terminated."""
    names = columns(row_type)
    lines = [",".join(names)]
    lines += [",".join(cell(getattr(row, name)) for name in names) for row in rows]
    return "\n".join(lines) + "\n"

