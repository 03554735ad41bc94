"""A dependency-free ASCII bar chart for terminal-side inspection of results.

The repository deliberately has no plotting dependency; a horizontal bar
chart gives a quick visual impression of per-label magnitudes, such as
Fig. 8's bandwidth bars or an energy breakdown, directly in a terminal or a
log file.  ``examples/power_breakdown.py`` uses it.
"""

from __future__ import annotations

from typing import Mapping


def ascii_bar_chart(
    values: Mapping[str, float],
    width: int = 50,
    unit: str = "",
) -> str:
    """Horizontal bar chart (one row per label), like Fig. 8's bandwidth bars."""
    if not values:
        raise ValueError("no values to plot")
    if width < 10:
        raise ValueError("width must be at least 10 columns")
    peak = max(values.values())
    label_width = max(len(label) for label in values)
    lines = []
    for label, value in values.items():
        length = 0 if peak <= 0 else int(round(width * value / peak))
        bar = "#" * length
        lines.append(f"{label.ljust(label_width)} |{bar.ljust(width)}| {value:.2f}{unit}")
    return "\n".join(lines)
