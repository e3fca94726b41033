"""API-stability tests: the documented public surface exists and is
documented.

These catch accidental removals/renames of public names, enforce
the docstring convention (every public item carries documentation),
and keep dead public definitions from piling up.
"""

import ast
import inspect
import pathlib
import re

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


ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Public definitions that only tests, ``__all__`` lists and package
#: re-exports name, kept on purpose.
KEPT_UNREFERENCED = {
    "run_allgather": "public collective API, a top-level repro export",
    "run_scatter": "public collective API, one run_* per collective",
    "run_alltoall": "public collective API, one run_* per collective",
    "run_scan": "public collective API, a top-level repro export",
    "run_jacobi": "public application API, one run_* per app",
    "run_histogram": "public application API, one run_* per app",
    "run_matvec": "public application API, one run_* per app",
    "paper_gather_hbsp1": "the paper's closed form, the tests' oracle",
    "paper_gather_hbsp2_super2": "the paper's closed form, the tests' oracle",
    "superstep_cost": "the paper's w + g*h + L, the property tests' oracle",
}


def _scan(path: pathlib.Path) -> tuple[list[str], set[str]]:
    """The public top-level definitions of ``path``, and every word of
    it that can name a definition.

    Code, docstrings and comments all count as words: a ``:func:``
    mention documents the name as API.  What does not count is a
    ``def``/``class`` line's own name, any ``__all__`` list, and a
    package ``__init__``'s re-export imports.
    """
    source = path.read_text()
    tree = ast.parse(source, str(path))
    defined = [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]
    skipped: set[int] = set()
    for node in tree.body:
        is_all = isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        )
        reexport = path.name == "__init__.py" and isinstance(node, ast.ImportFrom)
        if is_all or reexport:
            skipped.update(range(node.lineno, node.end_lineno + 1))
    kept = "\n".join(
        line
        for number, line in enumerate(source.splitlines(), 1)
        if number not in skipped
    )
    return defined, set(re.findall(r"\w+", re.sub(r"\b(?:def|class)\s+\w+", "", kept)))


class TestNoDeadPublicDefinitions:
    def test_every_public_definition_is_used_outside_tests(self):
        """A public top-level function or class that nothing in src/,
        bench/ or examples/ names, apart from its own def, ``__all__``
        and package re-exports, is dead code kept alive by its tests."""
        defined: dict[str, str] = {}
        used: set[str] = set()
        for folder in ("src", "bench", "examples"):
            for path in sorted((ROOT / folder).rglob("*.py")):
                names, words = _scan(path)
                used |= words
                if folder == "src":
                    defined.update((name, str(path.relative_to(ROOT))) for name in names)
        assert set(KEPT_UNREFERENCED) <= set(defined)
        dead = sorted(
            f"{path}: {name}"
            for name, path in defined.items()
            if name not in used and name not in KEPT_UNREFERENCED
        )
        assert not dead, f"public definitions only tests use: {dead}"
