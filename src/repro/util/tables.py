"""ASCII table rendering for the experiment harness.

The experiment harness prints the same rows/series the paper reports
(improvement factors per processor count and problem size).  This module
provides the dependency-free table renderer behind those reports, the
model's cost ledgers, the ``repro.obs`` summaries and the CLI.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

__all__ = ["AsciiTable", "format_series"]


class AsciiTable:
    """A simple monospaced table with a title, header row, and data rows.

    >>> t = AsciiTable("demo", ["p", "factor"])
    >>> t.add_row([2, 0.93])
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(self, title: str, headers: Sequence[str]) -> None:
        self.title = str(title)
        self.headers = [str(h) for h in headers]
        self.rows: list[list[str]] = []

    def add_row(self, values: Iterable[object]) -> None:
        """Append a data row; floats are formatted with 3 decimal places."""
        row = [self._fmt(v) for v in values]
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(row)

    @staticmethod
    def _fmt(value: object) -> str:
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    def render(self) -> str:
        """Render the table to a string."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def line(cells: Sequence[str]) -> str:
            return "| " + " | ".join(c.rjust(w) for c, w in zip(cells, widths)) + " |"

        sep = "+-" + "-+-".join("-" * w for w in widths) + "-+"
        out = [self.title, sep, line(self.headers), sep]
        out.extend(line(row) for row in self.rows)
        out.append(sep)
        return "\n".join(out)

    def __str__(self) -> str:
        return self.render()


def format_series(
    title: str,
    x_name: str,
    series: Mapping[str, Mapping[object, float]],
) -> str:
    """Render multiple named series sharing an x-axis as one table.

    Parameters
    ----------
    title:
        Table title (e.g. ``"Figure 3(a): gather T_s/T_f"``).
    x_name:
        Name of the shared x-axis column (e.g. ``"p"``).
    series:
        Mapping of series name (e.g. ``"100 KB"``) to a mapping of
        x-value to y-value.
    """
    xs: list[object] = []
    for values in series.values():
        for x in values:
            if x not in xs:
                xs.append(x)
    table = AsciiTable(title, [x_name, *series.keys()])
    for x in xs:
        table.add_row([x, *(series[name].get(x, float("nan")) for name in series)])
    return table.render()
