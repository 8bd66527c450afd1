"""Terminal plotting for the figure experiments.

The paper's figures are line charts; the drivers regenerate the underlying
series as tables, and this module renders them as ASCII charts so a
terminal run of ``python -m repro experiment fig2`` shows the
*shape* at a glance, with no plotting dependencies.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.errors import ConfigurationError

Point = tuple[float, float]

#: Marker characters assigned to series, in order.
MARKERS = "ox+*#@%&"

_SPARK_LEVELS = " .:-=+*#%@"


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """A one-line intensity strip for a series (resampled to ``width``)."""
    if not values:
        return ""
    values = list(values)
    if len(values) > width:
        stride = len(values) / width
        values = [values[int(i * stride)] for i in range(width)]
    low = min(values)
    high = max(values)
    span = high - low
    if span <= 0:
        return _SPARK_LEVELS[len(_SPARK_LEVELS) // 2] * len(values)
    indices = [
        int((value - low) / span * (len(_SPARK_LEVELS) - 1)) for value in values
    ]
    return "".join(_SPARK_LEVELS[i] for i in indices)


def ascii_chart(
    series: Mapping[str, Sequence[Point]],
    title: str = "",
    width: int = 68,
    height: int = 16,
    y_label: str = "",
    x_label: str = "",
) -> str:
    """Render labelled (x, y) series on a character grid.

    Each series gets a marker from :data:`MARKERS`; axes are linear and
    auto-scaled across all series.
    """
    if not series:
        raise ConfigurationError("ascii_chart needs at least one series")
    if width < 10 or height < 4:
        raise ConfigurationError("chart too small to render")

    points = [point for values in series.values() for point in values]
    if not points:
        raise ConfigurationError("ascii_chart needs at least one point")
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    x_span = (x_high - x_low) or 1.0
    y_span = (y_high - y_low) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (label, values) in enumerate(series.items()):
        marker = MARKERS[index % len(MARKERS)]
        for x, y in values:
            column = int((x - x_low) / x_span * (width - 1))
            row = height - 1 - int((y - y_low) / y_span * (height - 1))
            grid[row][column] = marker

    left_labels = [f"{y_high:>10.3g} ", " " * 11, f"{y_low:>10.3g} "]
    lines = []
    if title:
        lines.append(title)
    if y_label:
        lines.append(f"{y_label}")
    for row_index, row in enumerate(grid):
        if row_index == 0:
            prefix = left_labels[0]
        elif row_index == height - 1:
            prefix = left_labels[2]
        else:
            prefix = left_labels[1]
        lines.append(prefix + "|" + "".join(row))
    lines.append(" " * 11 + "+" + "-" * width)
    lines.append(
        " " * 12 + f"{x_low:<12.4g}" + " " * max(0, width - 24) + f"{x_high:>10.4g}"
    )
    if x_label:
        lines.append(" " * 12 + x_label)
    legend = "  ".join(
        f"{MARKERS[index % len(MARKERS)]}={label}"
        for index, label in enumerate(series)
    )
    lines.append(" " * 12 + legend)
    return "\n".join(lines)


def chart_from_rows(
    rows: Sequence[Sequence],
    label_column: int,
    x_column: int,
    y_column: int,
    title: str = "",
    **kwargs,
) -> str:
    """Build an :func:`ascii_chart` from table rows (one series per label)."""
    series: dict[str, list[Point]] = {}
    for row in rows:
        label = str(row[label_column])
        series.setdefault(label, []).append(
            (float(row[x_column]), float(row[y_column]))
        )
    return ascii_chart(series, title=title, **kwargs)
