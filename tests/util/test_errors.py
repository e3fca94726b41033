"""Tests for the exception hierarchy."""

import pytest

from repro import errors


class TestHierarchy:
    def test_everything_is_repro_error(self):
        for name in errors.__all__:
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_validation_is_value_error(self):
        """Idiomatic call sites catching ValueError keep working."""
        assert issubclass(errors.ValidationError, ValueError)
        assert issubclass(errors.PartitionError, ValueError)

    def test_task_not_found_is_key_error(self):
        assert issubclass(errors.TaskNotFound, KeyError)

    def test_subsystem_groups(self):
        assert issubclass(errors.DeadlockError, errors.SimulationError)
        assert issubclass(errors.RoutingError, errors.TopologyError)
        assert issubclass(errors.SuperstepError, errors.HbspError)
        assert issubclass(errors.CalibrationError, errors.ModelError)

    def test_deadlock_carries_blocked_list(self):
        error = errors.DeadlockError("stuck", blocked=("a", "b"))
        assert error.blocked == ("a", "b")
        assert errors.DeadlockError("stuck").blocked == ()

    def test_single_except_catches_library_failures(self):
        with pytest.raises(errors.ReproError):
            raise errors.CollectiveError("bad")
        with pytest.raises(errors.ReproError):
            raise errors.ExperimentError("bad")
