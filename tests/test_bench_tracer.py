"""Tier-1 guard on the benchmark tracer's bindings.

`perfbench/spans.py` wraps about two dozen `gcrit` functions by module
attribute, so renaming one in `src/` would otherwise break only a traced
benchmark run.  The file is only read.
"""

import sys

from gcrit import bounds, potentials
from gcrit.potentials import Potential


def _bindings():
    """Every attribute of every gcrit module, and Potential.evaluate, by
    identity."""
    out = {("Potential", "evaluate"): id(potentials.Potential.evaluate)}
    for modname, module in list(sys.modules.items()):
        if modname == "gcrit" or modname.startswith("gcrit."):
            out.update({(modname, k): id(v) for k, v in vars(module).items()})
    return out


def test_tracer_installs_records_and_restores(spans):
    before = _bindings()
    tracer = spans.Tracer()
    with tracer.installed():
        assert _bindings() != before
        bounds.lower_bargmann_schwinger(Potential.exponential(), 0)
    assert _bindings() == before
    assert tracer.metrics()["bounds.bargmann_schwinger.calls"] == 1
