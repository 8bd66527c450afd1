"""Experiment framework: result containers and ASCII rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ConfigurationError

Cell = Any  # str | float | int


@dataclass(frozen=True)
class Table:
    """One rendered table (title + headers + rows)."""

    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]

    def render(self) -> str:
        """Format as a fixed-width ASCII table."""
        formatted_rows = [
            tuple(_format_cell(cell) for cell in row) for row in self.rows
        ]
        widths = [len(header) for header in self.headers]
        for row in formatted_rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))

        def line(cells: tuple[str, ...]) -> str:
            return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))

        separator = "  ".join("-" * width for width in widths)
        body = "\n".join(line(row) for row in formatted_rows)
        return f"{self.title}\n{line(self.headers)}\n{separator}\n{body}"

    def column(self, name: str) -> list[Cell]:
        """All values of one column, by header name."""
        try:
            index = self.headers.index(name)
        except ValueError:
            raise ConfigurationError(
                f"table {self.title!r} has no column {name!r}"
            ) from None
        return [row[index] for row in self.rows]

    def lookup(self, key: Cell, column: str) -> Cell:
        """Value of ``column`` in the row whose first cell equals ``key``."""
        value_index = self.headers.index(column)
        for row in self.rows:
            if row[0] == key:
                return row[value_index]
        raise ConfigurationError(f"table {self.title!r} has no row {key!r}")


def _format_cell(cell: Cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        magnitude = abs(cell)
        if magnitude >= 1000:
            return f"{cell:,.0f}"
        if magnitude >= 10:
            return f"{cell:.1f}"
        return f"{cell:.3f}"
    return str(cell)


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of one experiment driver run."""

    experiment_id: str
    title: str
    tables: tuple[Table, ...]
    notes: tuple[str, ...] = ()
    scale: float = 1.0
    #: optional pre-rendered ASCII charts (see repro.experiments.plotting)
    charts: tuple[str, ...] = ()
    #: optional packed columnar payload (``{"schema": int, name: column}``,
    #: numeric columns as NumPy arrays or lists) carried *alongside* the
    #: human tables — fleet shards use it so the parent can aggregate by
    #: array merge instead of re-parsing table cells.  Excluded from
    #: render(); survives the result cache as JSON lists.
    columns: Any = None

    def render(self) -> str:
        """Human-readable report: all tables, charts, then notes."""
        parts = [f"== {self.experiment_id}: {self.title} (scale={self.scale:g}) =="]
        parts.extend(table.render() for table in self.tables)
        parts.extend(self.charts)
        if self.notes:
            parts.append("Notes:")
            parts.extend(f"  * {note}" for note in self.notes)
        return "\n\n".join(parts)

    def table(self, title_fragment: str) -> Table:
        """The first table whose title contains ``title_fragment``."""
        for table in self.tables:
            if title_fragment.lower() in table.title.lower():
                return table
        raise ConfigurationError(
            f"experiment {self.experiment_id} has no table matching "
            f"{title_fragment!r}"
        )


@dataclass(frozen=True)
class Experiment:
    """A registered experiment driver."""

    experiment_id: str
    title: str
    #: the paper artefact this regenerates ("Table 4", "Figure 2", ...)
    paper_ref: str
    run: Callable[..., ExperimentResult] = field(repr=False)
    #: bundled workloads the driver reads through ``trace_for`` with its
    #: default arguments; the engine prewarms exactly these.  A read the
    #: declaration misses still works (generated on demand), so a wrong
    #: declaration costs time, never a result.
    traces: tuple[str, ...] = ()

    def __call__(self, scale: float = 1.0, **kwargs: Any) -> ExperimentResult:
        if not 0.0 < scale <= 1.0:
            raise ConfigurationError(f"scale must be in (0, 1], got {scale}")
        return self.run(scale=scale, **kwargs)
