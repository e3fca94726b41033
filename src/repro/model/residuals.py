"""Fitting residuals: the superstep ledger as linear equations.

The analytic model charges a superstep at level ``l`` as

    ``d = w + g * max_j(r_j * h_j) + L_l``

and the :class:`~repro.obs.accounting.SuperstepLedger` already joins
every simulated superstep against that prediction 1:1.  This module
re-reads the join as a system of *equations in the parameters*: with
``G_j = g * r_j`` the unknowns, each step contributes

    ``G_crit * h_crit + L_l = d - w``

where ``h_j`` is the per-machine byte h-relation diffed from the run's
marks and ``crit`` is the machine the model says dominates
(``argmax_j G_j * h_j``).  :mod:`repro.calib` solves these by iterated
least squares; the ledger's exact sim/pred divergence is precisely the
residual such a fit drives down.

Two observation sources:

* ``"simulated"`` — ``d`` is the ledger's frontier advance (what the
  DES actually took).  Fitting against it yields *effective* parameters
  absorbing per-message overheads the analytic model omits; the
  residual honestly reports what remains.
* ``"predicted"`` — ``d`` is the exported analytic ``w + gh + L``.
  Fitting against it is the estimator round-trip: noise-free data must
  recover the generating parameters exactly (to solver precision).

Steps whose marks do not join 1:1 against the prediction (the
two-phase broadcast lumps two syncs per analytic step) are rejected
run-wholesale — equations from a misaligned join would be garbage.
"""

from __future__ import annotations

import dataclasses

from repro.errors import CalibrationError
from repro.obs.accounting import RunObs, SuperstepLedger

__all__ = ["StepEquation", "step_equations", "OBSERVATION_SOURCES"]

OBSERVATION_SOURCES = ("simulated", "predicted")


@dataclasses.dataclass(frozen=True)
class StepEquation:
    """One superstep as a linear equation in ``(G_j, L_level)``.

    ``observed - w = G_crit * h[crit] + L_level`` with ``crit`` chosen
    by the solver's current parameter estimate.
    """

    run: str
    step: int
    level: int
    w: float
    observed: float
    h: tuple[tuple[str, float], ...]  # (machine name, h bytes), every pid

    @property
    def rhs(self) -> float:
        """The equation's right-hand side, ``observed - w``."""
        return self.observed - self.w


def step_equations(
    run: RunObs, *, source: str = "simulated"
) -> tuple[StepEquation, ...]:
    """Extract the fit equations of one run (empty when unusable).

    A run contributes nothing when it carries no prediction (apps) or
    when its marks do not join 1:1 against the analytic steps (lumped
    multi-sync steps) — both would anchor equations to wrong levels.
    """
    if source not in OBSERVATION_SOURCES:
        raise CalibrationError(
            f"unknown observation source {source!r}; "
            f"known: {', '.join(OBSERVATION_SOURCES)}"
        )
    if run.predicted is None:
        return ()
    if run.supersteps != len(run.predicted):
        return ()
    ledger = SuperstepLedger(run)
    if len(ledger.rows) != len(run.predicted):
        return ()
    out: list[StepEquation] = []
    for row in ledger.rows:
        if row.predicted is None:  # pragma: no cover - lengths match above
            continue
        _, level, w, _, _ = run.predicted[row.step]
        observed = row.simulated if source == "simulated" else row.predicted
        out.append(
            StepEquation(
                run=run.name,
                step=row.step,
                level=level,
                w=w,
                observed=float(observed),
                h=tuple((m.machine, float(m.h)) for m in row.machines),
            )
        )
    return tuple(out)
