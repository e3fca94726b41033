"""API-stability tests: the documented public surface exists and is
documented.

These catch accidental removals/renames of public names and enforce
the docstring convention (every public item carries documentation).
"""

import inspect

import pytest

import repro
import repro.apps
import repro.bytemark
import repro.cluster
import repro.collectives
import repro.experiments
import repro.faults
import repro.hbsplib
import repro.model
import repro.pvm
import repro.sim
import repro.util

PACKAGES = [
    repro,
    repro.apps,
    repro.bytemark,
    repro.cluster,
    repro.collectives,
    repro.experiments,
    repro.faults,
    repro.hbsplib,
    repro.model,
    repro.pvm,
    repro.sim,
    repro.util,
]


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
    def test_all_names_resolve(self, package):
        for name in getattr(package, "__all__", []):
            assert hasattr(package, name), f"{package.__name__}.{name} missing"

    def test_top_level_quickstart_names(self):
        for name in (
            "ucf_testbed",
            "smp_sgi_lan",
            "run_gather",
            "run_broadcast",
            "RootPolicy",
            "WorkloadPolicy",
            "HbspRuntime",
            "calibrate",
            "HBSPTree",
            "FaultPlan",
            "Injector",
            "DeliveryPolicy",
            "FaultError",
            "TimeoutError",
            "Tracer",
        ):
            assert name in repro.__all__

    def test_version(self):
        assert repro.__version__


class TestDocstrings:
    @pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
    def test_package_documented(self, package):
        assert package.__doc__ and package.__doc__.strip()

    @pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
    def test_public_callables_documented(self, package):
        undocumented = []
        for name in getattr(package, "__all__", []):
            obj = getattr(package, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(f"{package.__name__}.{name}")
        assert not undocumented, f"undocumented public items: {undocumented}"

    def test_public_methods_documented(self):
        """Spot-check the workhorse classes: all public methods carry
        docstrings."""
        from repro.hbsplib import HbspContext, HbspRuntime
        from repro.model import HBSPParams, HBSPTree
        from repro.sim import Engine

        undocumented = []
        for cls in (HbspContext, HbspRuntime, HBSPParams, HBSPTree, Engine):
            for name, member in inspect.getmembers(cls):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(member) and not (
                    member.__doc__ and member.__doc__.strip()
                ):
                    undocumented.append(f"{cls.__name__}.{name}")
        assert not undocumented, f"undocumented methods: {undocumented}"
