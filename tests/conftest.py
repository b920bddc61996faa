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


@pytest.fixture(scope="session")
def workloads():
    """The benchmark's item generators, imported from `perfbench/workloads.py`
    without writing to it, so a test builds the golden items' own inputs."""
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, spec.name, module)  # for its dataclasses
        spec.loader.exec_module(module)
    return module
