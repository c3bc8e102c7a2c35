#!/usr/bin/env python3
"""Check that the benchmark is deterministic for a fixed seed.

Runs every workload twice in each mode with the same seed, each run in its
own process, and requires identical ``outputs_sha256``, input descriptors
and per-layer counts.  Timings are not compared.

    python3 bench/check_repeat.py [--seed 3]

Exits 0 when every pair agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
# descriptor fields that hold timings or memory, which may differ between runs
VOLATILE = {"busy_s", "raw_ops_per_s", "reference_s", "run_peak_rss_mib", "layer_shares"}
TIMED_UNITS = {"s", "1/s", "MiB", "ratio"}


def exact_part(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    counts = {k: m["value"] for k, m in result["metrics"].items() if m["unit"] not in TIMED_UNITS}
    return {
        "info": {k: v for k, v in info.items() if k not in VOLATILE},
        "counts": counts,
        "correct": result["correct"],
        "attempted": result["attempted"] if trace else None,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            first = exact_part(workload, args.seed, trace)
            second = exact_part(workload, args.seed, trace)
            same = first == second and first["correct"]
            ok = ok and same
            print(f"{workload} trace={trace}: {'identical' if same else 'DIFFERENT'} "
                  f"outputs_sha256={first['info']['outputs_sha256']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
