import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "gcrit",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("gcrit")

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def _bench_module(name):
    """`perfbench/<name>.py`, imported without writing to it."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, spec.name, module)  # for its dataclasses
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def workloads():
    """The benchmark's item generators, so a test builds the golden items'
    own inputs."""
    return _bench_module("workloads")


@pytest.fixture(scope="session")
def spans():
    """The benchmark's span tracer, which wraps `gcrit` functions by name."""
    return _bench_module("spans")
