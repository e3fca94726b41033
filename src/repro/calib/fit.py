"""Trace-driven parameter estimation: ``HBSPParams`` from run traces.

:func:`fit_params` closes the modelling loop.  :func:`repro.model.calibrate`
goes *topology -> parameters*; this goes *observed runs -> parameters*:
given exported :class:`~repro.obs.accounting.RunObs` records (a root
sweep of gathers, say — :func:`repro.calib.campaign.calibration_campaign`
builds exactly that), it solves the per-superstep cost equations

    ``G_crit * h_crit + L_level = d - w``,   ``G_j = g * r_j``

by iterated least squares: the critical machine of each step depends on
the parameters, so the solver alternates between assigning
``crit = argmax_j G_j * h_j`` under the current estimate and re-solving
the now-linear system, starting from all-equal ``G`` so the *data*
picks the critical machines, not the priors.  On a gather root sweep
every machine is the receiver (hence critical) in its own runs, which
makes all ``G_j`` identifiable from traffic alone.

Machines never critical in any equation and levels never observed are
unidentifiable from the trace; they fall back to
:func:`~repro.model.calibrate`'s topology priors and are listed in the
result so callers know which numbers were measured and which assumed.
``L`` is fitted per *level* (the estimator's granularity) and assigned
to every cluster node on that level.
"""

from __future__ import annotations

import dataclasses
import math
import typing as t

from repro.cluster.topology import ClusterTopology
from repro.errors import CalibrationError
from repro.model.params import HBSPParams, calibrate
from repro.model.residuals import StepEquation, step_equations
from repro.model.tree import HBSPTree
from repro.obs.accounting import RunObs
from repro.util.codec import read_json, typed_errors

__all__ = ["FitResult", "fit_params", "load_runs"]

_MAX_ITER = 12
_G_FLOOR = 1e-30


@dataclasses.dataclass(frozen=True)
class FitResult:
    """A fitted parameter set plus everything about how it was fitted."""

    params: HBSPParams
    g: float
    G: tuple[tuple[str, float], ...]  # fitted g*r per machine name
    L: tuple[tuple[int, float], ...]  # fitted barrier cost per level
    residual: float  # normalised RMS of remaining per-step divergence
    equations: int
    runs_used: int
    runs_skipped: int
    source: str
    fallback_machines: tuple[str, ...]
    fallback_levels: tuple[int, ...]

    def describe(self) -> str:
        """Human-readable fit summary (parameters + provenance)."""
        lines = [
            f"fit from {self.runs_used} runs "
            f"({self.runs_skipped} skipped), {self.equations} step equations, "
            f"source={self.source}",
            f"  g = {self.g:.6g} s/byte   residual (nRMS) = {self.residual:.3g}",
        ]
        for name, value in self.G:
            marker = " (prior)" if name in self.fallback_machines else ""
            lines.append(f"  G[{name}] = {value:.6g}  r = {value / self.g:.4g}{marker}")
        for level, value in self.L:
            marker = " (prior)" if level in self.fallback_levels else ""
            lines.append(f"  L[level {level}] = {value:.6g}{marker}")
        lines.append(self.params.describe())
        return "\n".join(lines)


def load_runs(path: str) -> tuple[RunObs, ...]:
    """Load exported runs (``repro run --runs-out``) back into memory."""
    data = read_json(path, error=CalibrationError, what="runs file")
    if not isinstance(data, dict) or "runs" not in data:
        raise CalibrationError(f'runs file {path!r} must be an object with "runs"')
    runs = []
    for i, record in enumerate(data["runs"]):
        with typed_errors(CalibrationError, f"{path}: runs[{i}]"):
            runs.append(RunObs.from_jsonable(record))
    return tuple(runs)


def _solve(
    equations: t.Sequence[StepEquation],
    machine_names: t.Sequence[str],
    levels: t.Sequence[int],
    init: t.Mapping[str, float],
) -> tuple[dict[str, float], dict[int, float], list[int]]:
    """Iterated least squares over the step equations.

    ``init`` seeds the critical-machine assignment (only ratios matter
    for an argmax): collectives on symmetric trees produce *exact*
    h-byte ties — a gather's sender and receiver move the same bytes —
    which the data alone cannot attribute, so the first assignment
    breaks them the way the priors order the machines, and subsequent
    iterations re-break them with fitted values.

    Returns ``(G by machine, L by level, final critical assignment)``.
    """
    import numpy as np

    machine_col = {name: i for i, name in enumerate(machine_names)}
    level_col = {level: len(machine_names) + i for i, level in enumerate(levels)}
    n_cols = len(machine_names) + len(levels)

    G = dict(init)
    crit: list[int] = [-1] * len(equations)
    for _ in range(_MAX_ITER):
        new_crit: list[int] = []
        for eq in equations:
            best, best_load = -1, -1.0
            for idx, (name, h) in enumerate(eq.h):
                load = G[name] * h
                if load > best_load:
                    best, best_load = idx, load
            new_crit.append(best)
        matrix = np.zeros((len(equations), n_cols))
        rhs = np.zeros(len(equations))
        for row, (eq, c) in enumerate(zip(equations, new_crit)):
            name, h = eq.h[c]
            if h > 0:
                matrix[row, machine_col[name]] = h
            matrix[row, level_col[eq.level]] = 1.0
            rhs[row] = eq.rhs
        solution, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
        G = {
            name: max(float(solution[machine_col[name]]), _G_FLOOR)
            for name in machine_names
        }
        L = {
            level: max(float(solution[level_col[level]]), 0.0)
            for level in levels
        }
        if new_crit == crit:
            break
        crit = new_crit
    return G, L, crit


def fit_params(
    runs: t.Sequence[RunObs],
    topology: ClusterTopology,
    *,
    source: str = "simulated",
    scores: t.Mapping[str, float] | None = None,
) -> FitResult:
    """Estimate :class:`HBSPParams` from observed runs on ``topology``.

    ``source="simulated"`` (default) fits against what the DES took —
    effective parameters whose residual is the ledger's remaining
    sim/pred divergence.  ``source="predicted"`` fits against the
    exported analytic step costs — the estimator round-trip, exact on
    noise-free data.  ``c`` fractions and fan-outs are structural and
    come from :func:`~repro.model.calibrate` (with optional BYTEmark
    ``scores``), exactly as a topology-only calibration would set them.
    """
    priors = calibrate(topology, scores=scores)
    equations: list[StepEquation] = []
    runs_used = 0
    runs_skipped = 0
    for run in runs:
        eqs = step_equations(run, source=source)
        if eqs:
            runs_used += 1
            equations.extend(eqs)
        else:
            runs_skipped += 1
    if not equations:
        raise CalibrationError(
            "no usable step equations: runs need predictions whose steps "
            "join 1:1 against the superstep marks (gather does; apps and "
            "two-phase broadcast do not)"
        )
    machine_names = [m.name for m in topology.machines]
    known = set(machine_names)
    for eq in equations:
        extra = {name for name, _ in eq.h} - known
        if extra:
            raise CalibrationError(
                f"run {eq.run!r} names machines not in the topology: "
                f"{', '.join(sorted(extra))}"
            )
    levels = sorted({eq.level for eq in equations})
    init = {
        name: priors.r_of(0, j) for j, name in enumerate(machine_names)
    }

    G, L, crit = _solve(equations, machine_names, levels, init)

    # Identifiability: a machine is measured only if it was critical
    # with traffic in some equation; a level only if some equation
    # anchored there (all levels in `levels` are, by construction).
    # Unmeasured machines fall back to the topology priors — note the
    # globally fastest machine is *systematically* unmeasured on
    # symmetric trees (with r = 1 it never attains max r_j * h_j), so
    # g must be the minimum over fitted and prior G alike, which keeps
    # the noise-free round-trip exact: prior G for the fastest machine
    # is exactly g.
    measured = {
        eq.h[c][0] for eq, c in zip(equations, crit) if eq.h[c][1] > 0
    }
    fallback_machines = tuple(
        name for name in machine_names if name not in measured
    )
    for j, name in enumerate(machine_names):
        if name not in measured:
            G[name] = priors.g * priors.r_of(0, j)
    g = min(G.values())
    r_fit = {name: G[name] / g for name in machine_names}

    # Residual: normalised RMS of what the fitted model still misses.
    errors = []
    scale = []
    for eq, c in zip(equations, crit):
        name, h = eq.h[c]
        modelled = G[name] * h + L[eq.level] + eq.w
        errors.append((modelled - eq.observed) ** 2)
        scale.append(eq.observed)
    mean_obs = math.fsum(scale) / len(scale)
    rms = math.sqrt(math.fsum(errors) / len(errors))
    residual = rms / mean_obs if mean_obs > 0 else rms

    # Rebuild a full parameter set the way calibrate() does, swapping
    # in the fitted r and per-level L.
    tree = HBSPTree(topology)
    topo = tree.topology
    r: dict[tuple[int, int], float] = {}
    L_nodes: dict[tuple[int, int], float] = {}
    for node in tree.walk():
        key = (node.level, node.index)
        coordinator = topo.machines[node.coordinator].name
        r[key] = r_fit[coordinator]
        if node.level >= 1:
            L_nodes[key] = L.get(node.level, priors.L_of(node.level, node.index))
    fallback_levels = tuple(
        level
        for level in range(1, tree.k + 1)
        if level not in L
    )
    params = HBSPParams(
        k=priors.k,
        g=g,
        m=priors.m,
        r=r,
        L=L_nodes,
        c=dict(priors.c),
        fan_out=dict(priors.fan_out),
    )
    return FitResult(
        params=params,
        g=g,
        G=tuple((name, G[name]) for name in machine_names),
        L=tuple(sorted(L.items())),
        residual=residual,
        equations=len(equations),
        runs_used=runs_used,
        runs_skipped=runs_skipped,
        source=source,
        fallback_machines=fallback_machines,
        fallback_levels=fallback_levels,
    )
