"""Tiny-size smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Outside the repository's test paths, so it never runs in the tier-1 suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (pins BLAS threads before numpy loads)

sys.path.insert(0, str(run.SRC))

import spans  # noqa: E402
import workloads  # noqa: E402
from gcrit import potentials  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads(run.GOLDEN.read_text())["items"]


def _bindings() -> dict:
    """Every attribute of every gcrit module, by identity."""
    out = {("Potential", "evaluate"): id(potentials.Potential.evaluate)}
    for modname, module in sys.modules.items():
        if modname == "gcrit" or modname.startswith("gcrit."):
            out.update({(modname, k): id(v) for k, v in vars(module).items()})
    return out


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_warmup_items_match_golden():
    checker = run.Checker(GOLDEN)
    for w in workloads.WORKLOADS.values():
        checker.run(w.warmup(), {})
    assert checker.mismatches == []


def test_golden_mismatch_is_reported():
    item = workloads.WORKLOADS["solvers"].warmup()
    tampered = json.loads(json.dumps(GOLDEN))
    tampered[item.key]["out"]["g"] *= 1 + 1e-11
    checker = run.Checker(tampered)
    checker.run(item, {})
    assert len(checker.mismatches) == 1


def test_every_item_of_every_workload_is_in_golden():
    for w in workloads.WORKLOADS.values():
        assert {i.key for i in w.all_items()} <= set(GOLDEN)
        for seed in (0, 7, 123456):
            assert {i.key for i in w.make_pass(seed, 3)} <= set(GOLDEN)


def test_traced_counts_repeat_and_wrappers_restore():
    before = _bindings()
    item = workloads.WORKLOADS["tables"].warmup()
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        with tracer.installed():
            assert _bindings() != before
            run.Checker(GOLDEN).run(item, {})
        assert _bindings() == before
        metrics = tracer.metrics()
        counts.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    layer_names = {m["name"] for m in SPEC["per_layer"]} - {"trace.pass_wall_s"}
    assert set(metrics) == layer_names
    assert counts[0]["tables.compute_table_row.calls"] == 1
    assert counts[0]["exact.shooting.calls"] == 1
    assert counts[0]["bounds.calogero_ii_at.calls"] > 0
    assert counts[0]["optimize.objective_evals"] > 0


def test_run_prints_contract_json():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = _bench("--workload", "solvers", "--seed", "3", "--seconds", "1",
                      "--trace", str(trace))
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}


def test_run_without_the_package_fails_cleanly():
    bare = run.OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        done = _bench("--workload", "tables", "--seed", "0", "--seconds", "1",
                      "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert "correct" not in done.stdout
