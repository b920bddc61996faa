#!/usr/bin/env python3
"""Run every workload untraced and traced, print every metric with its unit
and the tracing overhead of each workload.

    python3 perfbench/suite.py [--seed N] [--seconds S] [--workload NAME ...]

Run from the root of a checkout.  Each run is a separate ``run.py`` process,
so the untraced runs never see the tracing wrappers.  Exits 1 when any run
fails or any output misses the golden baseline.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    """(final JSON, the lines before it) of one run; raises on failure."""
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {done.returncode}")
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--workload", nargs="+", choices=run.WORKLOAD_NAMES,
                   default=list(run.WORKLOAD_NAMES))
    args = p.parse_args(argv)
    status = 0
    for workload in args.workload:
        try:
            plain, detail = run_once(workload, args.seed, args.seconds, 0)
            traced, _ = run_once(workload, args.seed, args.seconds, 1)
        except RuntimeError as exc:
            print(f"{workload}: FAILED ({exc})")
            status = 1
            continue
        print(f"== {workload} (seed {args.seed}, golden "
              f"{'ok' if plain['correct'] and traced['correct'] else 'MISMATCH'})")
        print(detail)
        for name, m in traced["metrics"].items():
            print(f"  traced {name} {m['value']:.6g} {m['unit']}")
        # the traced run runs pass 0 only; compare it with the untraced pass 0
        passes = json.loads(next(line[len("detail "):] for line in detail.splitlines()
                                 if line.startswith("detail ")))
        untraced = passes["pass_wall_s"][0]
        traced_wall = traced["metrics"]["trace.pass_wall_s"]["value"]
        print(f"tracing overhead {traced_wall - untraced:+.3f} s on pass 0 "
              f"({(traced_wall - untraced) / untraced:+.1%} of {untraced:.3f} s untraced)")
        status |= not (plain["correct"] and traced["correct"])
    return status


if __name__ == "__main__":
    sys.exit(main())
