"""Improvement-factor machinery and report containers.

Section 5.1: "Experimental results are given in terms of an improvement
factor.  Let ``T_A`` and ``T_B`` represent the execution time of
algorithm A and algorithm B ... The improvement factor of using
algorithm B over algorithm A is ``T_A / T_B``."
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.errors import ExperimentError
from repro.util.tables import format_series
from repro.util.units import BYTES_PER_INT, kb

__all__ = ["improvement_factor", "ExperimentReport"]


def _items(size_kb: float) -> int:
    """The item count of a ``size_kb``-KByte problem of C ``int``\\ s."""
    return kb(size_kb) // BYTES_PER_INT


def improvement_factor(t_a: float, t_b: float) -> float:
    """The improvement of algorithm B over algorithm A: ``T_A / T_B``.

    A factor above 1 means B is faster.
    """
    if t_a < 0 or t_b <= 0:
        raise ExperimentError(
            f"times must be positive (t_a={t_a!r}, t_b={t_b!r})"
        )
    return t_a / t_b


@dataclasses.dataclass
class ExperimentReport:
    """One regenerated figure/table.

    Attributes
    ----------
    experiment_id:
        Short id matching DESIGN.md's experiment index (``"fig3a"``...).
    title:
        Human-readable title, including the factor definition.
    x_name:
        Name of the swept x-axis (``"p"`` for the figures).
    series:
        ``{series label: {x: y}}`` — one series per problem size, as in
        the paper's plots.
    notes:
        Free-form lines describing what to look for (the expected
        qualitative shape) and any caveats.
    extra:
        Optional appendix text (pre-rendered tables etc.).
    """

    experiment_id: str
    title: str
    x_name: str
    series: dict[str, dict[t.Any, float]]
    notes: list[str] = dataclasses.field(default_factory=list)
    extra: str = ""

    def render(self, *, plot: bool = False) -> str:
        """Render the report: table (or ASCII plot) + notes."""
        if plot:
            from repro.util.plot import ascii_plot

            parts = [
                ascii_plot(
                    self.series,
                    title=f"[{self.experiment_id}] {self.title}",
                    x_name=self.x_name,
                    y_name="improvement factor",
                )
            ]
        else:
            parts = [format_series(f"[{self.experiment_id}] {self.title}", self.x_name, self.series)]
        if self.notes:
            parts.append("notes:")
            parts.extend(f"  - {note}" for note in self.notes)
        if self.extra:
            parts.append(self.extra)
        return "\n".join(parts)

    # -- queries used by benchmark assertions ---------------------------------
    def xs(self) -> list:
        """All x values present in any series (first-seen order)."""
        out: list = []
        for values in self.series.values():
            for x in values:
                if x not in out:
                    out.append(x)
        return out

    def values_at(self, x: t.Any) -> dict[str, float]:
        """``{series label: y}`` at one x."""
        return {
            label: values[x]
            for label, values in self.series.items()
            if x in values
        }

    def mean_factor(self, x: t.Any) -> float:
        """Mean of all series at one x (the paper's per-p tendency)."""
        values = list(self.values_at(x).values())
        if not values:
            raise ExperimentError(f"no series has x={x!r}")
        return sum(values) / len(values)

    def __str__(self) -> str:
        return self.render()
