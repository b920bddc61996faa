#!/usr/bin/env python3
"""Regenerate ``perfbench/golden.json``: every output and verdict of every item
any seed can draw, for all three workloads.

    python3 perfbench/make_golden.py

Run from the root of a checkout; it takes about 6 minutes.  The baseline is
the standing numerical contract: a change that moves any output by more than
1e-12 relative fails the benchmark.  A change that argues for new values
reruns this script in the same commit and explains the diff of golden.json.
"""

from __future__ import annotations

import json
import sys

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402


def _record(item, context: dict) -> dict:
    try:
        out = item.call()
    except Exception as exc:  # recorded as the expected outcome
        return {"raises": type(exc).__name__}
    return {"out": out, "ok": bool(item.verdict(out, context))}


def main() -> int:
    items = {}
    for name, workload in workloads.WORKLOADS.items():
        # one context per workload, items in order: a Nystrom verdict reads
        # the shooting value recorded just before it
        context: dict = {}
        all_items = workload.all_items()
        for item in all_items:
            items[item.key] = _record(item, context)
        print(f"{name}: {len(all_items)} items", file=sys.stderr)
    golden = {"env": run.environment(seed=None), "items": dict(sorted(items.items()))}
    run.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
