#!/usr/bin/env python3
"""gcrit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {tables,sweep,solvers} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
The workload runs in passes, closed loop with one caller, in a single
process with BLAS pinned to one thread.  Every item's outputs are checked
against ``perfbench/golden.json`` to 1e-12 relative, and every item's verdict
(the program's own acceptance rule) against the verdict recorded there.

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` one pass runs under span tracing and
the JSON carries the per-layer metrics.  Exit codes: 0 when every output
matches the baseline, 1 on a mismatch, 2 on a usage or environment error.
"""

from __future__ import annotations

import os

# pinned before numpy loads: threaded BLAS makes the Nystrom eigen solve swing
# by two orders of magnitude on a shared machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
SPEC = ROOT / "BENCHMARK.json"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("tables", "sweep", "solvers")
#: setup repetitions; setup_s is their median
SETUP_REPEATS = 5
#: relative tolerance of the golden comparison
GOLDEN_RTOL = 1e-12

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import gcrit; "
                 "print(time.perf_counter() - t)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gcrit").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _blas_threads() -> dict:
    """Thread count reported by each loaded OpenBLAS."""
    import ctypes
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return out
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def environment(seed: int | None) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# running and checking items
# ---------------------------------------------------------------------------

class Checker:
    """Runs items, times them, and compares them with the golden baseline."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.mismatches: list[str] = []

    def run(self, item, context: dict) -> tuple[float, bool, bool]:
        """(seconds, raised, verdict ok) for one item."""
        t0 = perf_counter()
        try:
            out = item.call()
        except Exception as exc:  # an item that raises fails; the run goes on
            seconds = perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            self._compare(item.key, {"raises": type(exc).__name__})
            return seconds, True, False
        seconds = perf_counter() - t0
        ok = bool(item.verdict(out, context))
        self._compare(item.key, {"out": out, "ok": ok})
        return seconds, False, ok

    def _compare(self, key: str, got: dict):
        want = self.golden.get(key)
        if want is None:
            self.mismatches.append(f"{key}: not in the golden baseline")
            return
        if ("raises" in want) != ("raises" in got):
            self.mismatches.append(f"{key}: expected {want}, got {got}")
            return
        if "raises" in want:
            if want["raises"] != got["raises"]:
                self.mismatches.append(
                    f"{key}: raised {got['raises']}, baseline raised {want['raises']}")
            return
        if want["ok"] != got["ok"]:
            self.mismatches.append(
                f"{key}: verdict {got['ok']}, baseline verdict {want['ok']}")
        if set(want["out"]) != set(got["out"]):
            self.mismatches.append(f"{key}: outputs {sorted(got['out'])}, "
                                   f"baseline {sorted(want['out'])}")
            return
        for name, ref in want["out"].items():
            val = got["out"][name]
            if not abs(val - ref) <= GOLDEN_RTOL * abs(ref):
                self.mismatches.append(f"{key} {name}: {val!r} vs baseline {ref!r}")


def child_import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout.strip())


def measure_setup(workload, seed: int, checker: Checker, repeats: int) -> list[float]:
    """Each repeat: import in a fresh interpreter, generate the first pass,
    run one warm-up item."""
    times = []
    for _ in range(repeats):
        imported = child_import_seconds()
        t0 = perf_counter()
        workload.make_pass(seed, 0)
        checker.run(workload.warmup(), {})
        times.append(imported + perf_counter() - t0)
    return times


def run_pass(items, checker: Checker) -> dict:
    context: dict = {}
    w0, c0 = perf_counter(), process_time()
    latencies, raised, failed = [], 0, 0
    for item in items:
        seconds, exc, ok = checker.run(item, context)
        latencies.append(seconds)
        raised += exc
        failed += not ok
    return {"wall": perf_counter() - w0, "cpu": process_time() - c0,
            "latencies": latencies, "raised": raised, "failed": failed}


def timed_phase(workload, seed: int, seconds: float, checker: Checker) -> list[dict]:
    """Whole passes, closed loop, while the next one still fits in ``seconds``
    (at least one)."""
    passes = []
    t0 = perf_counter()
    while True:
        passes.append(run_pass(workload.make_pass(seed, len(passes)), checker))
        longest = max(p["wall"] for p in passes)
        if perf_counter() - t0 + longest > seconds:
            return passes


def main(argv=None) -> int:
    args = parse_args(argv)
    needed = (SRC / "gcrit" / "__init__.py", GOLDEN, SPEC)
    if not all(path.is_file() for path in needed):
        print("error: needs " + ", ".join(map(str, needed)), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    checker = Checker(json.loads(GOLDEN.read_text())["items"])
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace:
        import spans
        checker.run(workload.warmup(), {})
        tracer = spans.Tracer()
        with tracer.installed():
            passes = [run_pass(workload.make_pass(args.seed, 0), checker)]
        values = tracer.metrics()
        values["trace.pass_wall_s"] = passes[0]["wall"]
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        setups = measure_setup(workload, args.seed, checker, SETUP_REPEATS)
        passes = timed_phase(workload, args.seed, args.seconds, checker)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall"] for p in passes),
            "cpu_s": statistics.median(p["cpu"] for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    # names and units as BENCHMARK.json declares them, in its order
    declared = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    attempted = sum(len(p["latencies"]) for p in passes)
    raised = sum(p["raised"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print("detail " + json.dumps({
        "workload": args.workload, "trace": args.trace, "passes": len(passes),
        "pass_wall_s": [p["wall"] for p in passes], "items": attempted,
        "verdict_failed": failed, "raised": raised}))
    # printed, not declared: failed_frac can read 0, and the median of a few
    # heterogeneous items spreads more across runs than the bounds allow
    print(f"failed_frac {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} items fail the program's verdict, {raised} raised)")
    latencies = [s for p in passes for s in p["latencies"]]
    print(f"item_p50_s {statistics.median(latencies):.6g} s (median of {attempted} items)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for line in checker.mismatches:
        print(f"golden mismatch: {line}", file=sys.stderr)
    correct = not checker.mismatches
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": raised, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
