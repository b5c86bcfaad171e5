"""Smoke tests for the top-level package surface."""

import os
import subprocess
import sys
from pathlib import Path

import repro

#: Child script: block scipy (an optional dependency, only the MILP solver
#: uses it), then import the package and train opt-hash with both
#: scipy-free solvers.
WITHOUT_SCIPY = """
import importlib.abc
import sys


class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, BlockScipy())

import repro
from repro.streams import SyntheticConfig, SyntheticGenerator

prefix = SyntheticGenerator(
    SyntheticConfig(num_groups=3, fraction_seen=0.5, seed=0)
).generate_prefix(300)
for solver in ("dp", "bcd"):
    spec = repro.OptHashSpec(
        num_buckets=4, solver=solver, classifier="cart", seed=0
    )
    training = repro.train(spec, prefix)
    assert training.solver_result.solver == solver
assert "scipy" not in sys.modules
print("ok")
"""


class TestPublicApi:
    def test_version_is_exposed(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_key_entry_points_importable(self):
        # The names used throughout the README quickstart.
        from repro import (  # noqa: F401
            CountMinSketch,
            OptHashSpec,
            train_opt_hash,
        )
        from repro.streams import SyntheticConfig, SyntheticGenerator  # noqa: F401
        from repro.evaluation import run_error_vs_size, run_lambda_sweep  # noqa: F401

    def test_subpackage_all_exports_resolve(self):
        import repro.evaluation
        import repro.ml
        import repro.optimize
        import repro.sketches
        import repro.streams

        for module in (
            repro.streams,
            repro.sketches,
            repro.ml,
            repro.optimize,
            repro.evaluation,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name} missing"


class TestDeclaredDependencies:
    def test_import_and_train_without_scipy(self):
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", WITHOUT_SCIPY],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"
