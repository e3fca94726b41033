"""Trace-driven calibration: step equations, campaigns, and the fit."""

import dataclasses
import json

import pytest

from repro.calib import (
    DEFAULT_SIZES,
    calibration_campaign,
    fit_params,
    load_runs,
    step_equations,
)
from repro.cluster import two_lans
from repro.collectives import run_broadcast, run_gather
from repro.errors import CalibrationError
from repro.model import calibrate
from repro.obs import observe
from repro.obs.accounting import collect_run_obs

TOPOLOGY = two_lans()


class TestStepEquations:
    def test_unknown_source_rejected(self):
        run = collect_run_obs(run_gather(TOPOLOGY, 4096, macro=True))
        with pytest.raises(CalibrationError):
            step_equations(run, source="wishful")

    def test_gather_joins_one_to_one(self):
        outcome = run_gather(TOPOLOGY, 4096, macro=True)
        run = collect_run_obs(outcome)
        eqs = step_equations(run)
        assert len(eqs) == len(run.predicted)
        for eq in eqs:
            assert eq.rhs == eq.observed - eq.w
            assert len(eq.h) == len(run.machines)

    def test_lumped_broadcast_rejected_wholesale(self):
        # The two-phase broadcast performs two syncs per analytic step,
        # so its marks cannot join 1:1 — no equations, by design.
        run = collect_run_obs(run_broadcast(TOPOLOGY, 4096, macro=True))
        assert step_equations(run) == ()

    def test_predicted_source_reads_analytic_costs(self):
        run = collect_run_obs(run_gather(TOPOLOGY, 4096, macro=True))
        sim = step_equations(run, source="simulated")
        pred = step_equations(run, source="predicted")
        for s, p in zip(sim, pred):
            assert (s.level, s.w, s.h) == (p.level, p.w, p.h)
        observed_pred = [p.observed for p in pred]
        expected = [w + gh + L for _, _, w, gh, L in run.predicted]
        assert observed_pred == pytest.approx(expected)


class TestCampaign:
    def test_root_sweep_shape(self):
        runs = calibration_campaign(TOPOLOGY, sizes=(4096,))
        assert len(runs) == TOPOLOGY.num_machines
        names = {run.name for run in runs}
        assert len(names) == len(runs)  # every root distinct

    def test_campaign_deterministic(self):
        a = calibration_campaign(TOPOLOGY, sizes=(4096,), roots=(0, 1))
        b = calibration_campaign(TOPOLOGY, sizes=(4096,), roots=(0, 1))
        assert a == b

    def test_traced_campaign_takes_the_object_path_to_the_same_runs(self):
        with observe(spans=True) as observation:
            traced = calibration_campaign(TOPOLOGY, sizes=(4096,), roots=(0, 1))
        assert observation.tracer.spans  # recorded, not refused
        assert traced == calibration_campaign(TOPOLOGY, sizes=(4096,), roots=(0, 1))

    def test_default_sizes_span_an_order_of_magnitude(self):
        assert max(DEFAULT_SIZES) / min(DEFAULT_SIZES) >= 10


class TestLoadRuns:
    def test_round_trip_through_disk(self, tmp_path):
        runs = calibration_campaign(TOPOLOGY, sizes=(4096,), roots=(0,))
        path = tmp_path / "runs.json"
        path.write_text(json.dumps(
            {"runs": [run.to_jsonable() for run in runs]}
        ))
        assert load_runs(str(path)) == runs

    def test_missing_file(self, tmp_path):
        with pytest.raises(CalibrationError):
            load_runs(str(tmp_path / "nope.json"))

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(CalibrationError):
            load_runs(str(path))

    def test_wrong_shape(self, tmp_path):
        path = tmp_path / "shape.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(CalibrationError):
            load_runs(str(path))


class TestFitParams:
    def test_no_usable_runs_raises(self):
        run = collect_run_obs(run_broadcast(TOPOLOGY, 4096, macro=True))
        with pytest.raises(CalibrationError):
            fit_params([run], TOPOLOGY)

    def test_foreign_machines_rejected(self):
        runs = calibration_campaign(TOPOLOGY, sizes=(4096,), roots=(0,))
        renamed = dataclasses.replace(
            runs[0], machines=tuple(f"x-{m}" for m in runs[0].machines)
        )
        with pytest.raises(CalibrationError):
            fit_params([renamed], TOPOLOGY)

    def test_predicted_fit_recovers_priors(self):
        # The estimator round-trip on a small campaign: see
        # tests/properties/test_prop_calibration.py for the full
        # acceptance version with noise.
        runs = calibration_campaign(TOPOLOGY, sizes=(4096, 16384))
        result = fit_params(runs, TOPOLOGY, source="predicted")
        priors = calibrate(TOPOLOGY)
        assert result.g == pytest.approx(priors.g, rel=1e-9)
        assert result.residual < 1e-9
        assert result.runs_skipped == 0

    def test_simulated_fit_reports_honest_residual(self):
        runs = calibration_campaign(TOPOLOGY, sizes=(4096, 16384))
        result = fit_params(runs, TOPOLOGY, source="simulated")
        # Effective parameters absorb per-message DES overheads the
        # analytic model omits: the fit converges with a nonzero
        # residual and strictly positive fitted coefficients.
        assert result.residual > 0
        assert all(value > 0 for _, value in result.G)
        assert all(value >= 0 for _, value in result.L)

    def test_describe_mentions_provenance(self):
        runs = calibration_campaign(TOPOLOGY, sizes=(4096,))
        result = fit_params(runs, TOPOLOGY, source="predicted")
        text = result.describe()
        assert "source=predicted" in text
        assert "g =" in text

    def test_fitted_params_serialise_as_topology_v2(self):
        from repro.cluster.serialization import dumps, loads_with_params

        runs = calibration_campaign(TOPOLOGY, sizes=(4096,))
        result = fit_params(runs, TOPOLOGY, source="predicted")
        restored_topo, restored_params = loads_with_params(
            dumps(TOPOLOGY, params=result.params)
        )
        assert restored_params.g == result.params.g
        assert restored_params.r == result.params.r
        assert [m.name for m in restored_topo.machines] == [
            m.name for m in TOPOLOGY.machines
        ]
