#!/usr/bin/env python3
"""posetlab benchmark: seeded workloads, end-to-end metrics, per-layer trace.

Run from the repository root:

    python3 bench/run.py --workload search-gcpc --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload for ``--seconds`` (whole rounds) and
reports the end-to-end metrics.  ``--trace 1`` runs the workload's fixed
prefix twice, plain and then with span wrappers installed, and reports the
per-layer metrics; every count in it repeats exactly for a fixed seed.
bench/README.md describes the workloads, metrics and checks.
The metric names printed are those listed in BENCHMARK.json.  The last line
of stdout is one JSON object {"correct", "attempted", "failed", "metrics"};
the line before it describes the inputs and carries ``outputs_sha256``.
The process exits 2 without a result when posetlab cannot be imported
from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import spans
from workloads import WORKLOADS, Fingerprint, ideal_lattice_size

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MODULES = ("posets", "search", "inequalities", "extensions", "vanishing", "injections", "geometry")
SETUP_REPEATS = 9
REFERENCE_ITERATIONS = 10_000
# Time of one reference loop on the machine the benchmark was defined on
# (2 vCPU, Python 3.11.7) in its fast state.  It only fixes the scale, so
# that scaled figures read close to wall-clock figures there.
REFERENCE_S = 0.0018


def reference_s() -> float:
    """Time one fixed pure-Python integer loop.

    The benchmark machine shares its cores: its speed drifts between states
    about 1.7x apart, for seconds to minutes at a time, so raw rates of whole
    20 s runs differ by +-15%.  The loop slows down with the machine and not
    with posetlab, so every timed interval is preceded by it and is counted
    in loop units (``Tally.scaled_s``).  With intervals of 50-200 ms this
    cuts the run-to-run spread to a few percent.
    """
    start = perf_counter()
    x = acc = 1
    for i in range(REFERENCE_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        acc ^= x >> (i & 7)
    return perf_counter() - start


def load_posetlab() -> SimpleNamespace:
    """Import posetlab afresh from this checkout (earlier imports are dropped)."""
    for name in [k for k in sys.modules if k == "posetlab" or k.startswith("posetlab.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{name: importlib.import_module("posetlab." + name) for name in MODULES})
    origin = Path(sys.modules["posetlab"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"posetlab was imported from {origin}, not from {SRC}")
    return mods


class Tally:
    def __init__(self) -> None:
        self.ops = 0
        self.failed = 0
        self.busy_s = 0.0  # raw time inside workload.execute
        self.busy_refs = 0.0  # the same intervals, each in units of the reference loops around it
        self.refs: list[float] = []
        self.errors: list[str] = []
        self.fp = Fingerprint()

    def timed(self, seconds: float, ref: float) -> None:
        self.busy_s += seconds
        self.busy_refs += seconds / ref
        self.refs.append(ref)

    def scaled_s(self) -> float:
        """Busy time as it would read with every reference loop at REFERENCE_S."""
        return self.busy_refs * REFERENCE_S


def setup(workload, seed: int):
    """Import posetlab and build round 0, SETUP_REPEATS times; returns the
    last import, its inputs and each repeat's time in reference units."""
    units = []
    for _ in range(SETUP_REPEATS):
        ref = reference_s()
        start = perf_counter()
        mods = load_posetlab()
        first = workload.make_round(mods, seed, 0)
        units.append((perf_counter() - start) / ref)
    return mods, first, units


def run_round(workload, mods, items, r: int, tally: Tally, tracer=None) -> None:
    fp = tally.fp if r < workload.prefix_rounds else None
    for item in items:
        n_ops = workload.ops(item)
        tally.ops += n_ops
        before = reference_s()
        start = perf_counter()
        try:
            if tracer is None:
                result = workload.execute(mods, item)
            else:
                with tracer.root():
                    result = workload.execute(mods, item)
        except Exception as exc:  # a raising operation is a failed one
            result = exc
        elapsed = perf_counter() - start
        tally.timed(elapsed, (before + reference_s()) / 2)
        if isinstance(result, Exception):
            tally.failed += n_ops
            tally.errors.append(f"round {r}: {type(result).__name__}: {result}")
            continue
        try:
            tally.failed += workload.check(mods, item, result, fp)
        except Exception as exc:
            tally.failed += n_ops
            tally.errors.append(f"round {r} check: {type(exc).__name__}: {exc}")


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload, mods, seed: int, first, seconds: float):
    """Whole rounds until ``seconds`` have passed, never fewer than the
    prefix.  Returns the tally and the peak RSS when the prefix was done:
    later rounds vary in number with the machine's speed, the prefix not."""
    tally = Tally()
    start = perf_counter()
    items, r = first, 0
    while True:
        run_round(workload, mods, items, r, tally)
        r += 1
        if r == workload.prefix_rounds:
            prefix_peak = peak_rss_mib()
        if r >= workload.prefix_rounds and perf_counter() - start >= seconds:
            return tally, prefix_peak
        items = workload.make_round(mods, seed, r)


def trace(workload, mods, seed: int, first):
    """The prefix once plain and once traced, each on freshly built inputs."""
    plain = Tally()
    for r in range(workload.prefix_rounds):
        run_round(workload, mods, first if r == 0 else workload.make_round(mods, seed, r), r, plain)
    tracer, traced = spans.Tracer(), Tally()
    patches = spans.install(tracer, mods)
    try:
        for r in range(workload.prefix_rounds):
            run_round(workload, mods, workload.make_round(mods, seed, r), r, traced, tracer)
    finally:
        spans.uninstall(patches)
    return plain, traced, tracer


def _dp_cells(result) -> list[int]:
    if isinstance(result, dict):  # signed table
        table = result
    elif hasattr(result, "entries"):  # FTable
        table = result.entries
    else:  # NVector
        table = result.counts
    return [v for v in table.values() if v]


def layer_values(plain: Tally, traced: Tally, tracer: spans.Tracer) -> dict:
    values: dict[str, float] = {}
    names = {name for _, _, name in spans.LAYER_FUNCTIONS} | {spans.CHECK_SPAN}
    for name in names:
        values[name + ".calls"] = tracer.calls(name)
        values[name + ".self_s"] = tracer.self_s(name)
    ideals: dict = {}
    cells = max_bits = 0
    for p, result in tracer.dp_calls:
        key = (p.n, p.up)
        if key not in ideals:
            ideals[key] = ideal_lattice_size(p)[0]
        found = _dp_cells(result)
        cells += len(found)
        max_bits = max([max_bits] + [v.bit_length() for v in found])
    counts = traced.fp.counts
    values.update({
        "search.usable": counts["usable"],
        "search.certificates": counts["certificates"],
        "inequalities.fails": tracer.counts["inequalities.fails"],
        "extensions.ideals": sum(ideals[(p.n, p.up)] for p, _ in tracer.dp_calls),
        "extensions.cells": cells,
        "extensions.max_bits": max_bits,
        "extensions.words": tracer.counts["extensions.enumerate_extensions.items"],
        "extensions.dp_calls": len(tracer.dp_calls),
        "extensions.dp_posets": len(ideals),
        "injections.certificates": counts["injection_certificates"],
        "injections.domain_words": counts["domain_words"],
        "geometry.samples": counts["mc_samples"],
        "trace.overhead_ratio": traced.busy_refs / plain.busy_refs,
        "trace.root_self_s": tracer.self_s(spans.ROOT_SPAN),
    })
    return values


def layer_shares(tracer: spans.Tracer) -> dict[str, float]:
    """Share of traced self time per module (``root`` is the benchmark's own)."""
    total = sum(s for _, s in tracer.stats.values())
    shares: dict[str, float] = {}
    for name, (_, self_s) in tracer.stats.items():
        module = name.split(".")[0]
        shares[module] = shares.get(module, 0.0) + self_s / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def pick(values: dict, specs: list) -> dict:
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def run_one(args, spec: dict) -> int:
    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    try:
        mods, first, setup_units = setup(workload, args.seed)
    except ImportError as exc:
        print(f"bench: cannot import posetlab from {SRC}: {exc}", file=sys.stderr)
        return 2
    info = {"workload": workload.name, "seed": args.seed, "trace": args.trace}
    if args.trace:
        plain, traced, tracer = trace(workload, mods, args.seed, first)
        values = layer_values(plain, traced, tracer)
        metrics = pick(values, spec["per_layer"])
        attempted, failed = plain.ops + traced.ops, plain.failed + traced.failed
        errors = plain.errors + traced.errors
        if plain.fp.summary() != traced.fp.summary():
            errors.append("traced pass changed the outputs or counts of the plain pass")
        info.update(traced.fp.summary(), layer_shares=layer_shares(tracer))
    else:
        tally, prefix_peak = measure(workload, mods, args.seed, first, args.seconds)
        values = {
            "ops_per_s": (tally.ops - tally.failed) / tally.scaled_s(),
            "setup_s": statistics.median(setup_units) * REFERENCE_S,
            "peak_rss_mib": prefix_peak,
        }
        metrics = pick(values, spec["end_to_end"])
        attempted, failed, errors = tally.ops, tally.failed, tally.errors
        info.update(
            tally.fp.summary(),
            busy_s=tally.busy_s,
            run_peak_rss_mib=peak_rss_mib(),
            raw_ops_per_s=(tally.ops - tally.failed) / tally.busy_s,
            reference_s={"min": min(tally.refs), "median": statistics.median(tally.refs)},
        )
    info["fail_ratio"] = failed / attempted
    for line in errors[:20]:
        print(f"bench: {line}", file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    correct = failed == 0 and not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 2
        result = json.loads(lines[-1])
        info = json.loads(lines[-2])
        fields = " ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in result["metrics"].items())
        print(f"{name}: {fields} fail_ratio={info['fail_ratio']:.6g} "
              f"({result['failed']}/{result['attempted']}) outputs_sha256={info['outputs_sha256']}")
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args, benchmark_spec())


if __name__ == "__main__":
    sys.exit(main())
