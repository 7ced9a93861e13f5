#!/usr/bin/env python3
"""Benchmark of the MATEX reproduction (see perfbench/README.md).

    python3 perfbench/run.py --workload pg1t-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run it from the root of a checkout: it imports the package from
``src/`` beside it, and writes its records under ``.perfbench/``.
``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is the separate traced run that reports the per-layer
metrics and the tracing overhead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark never sets BLAS or OpenMP thread variables
(``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` ...): it records them,
and the effective OpenBLAS thread counts, as it finds them, so that a
thread policy inside the program shows up as a measured gain.

Exact counters (work counts fixed by the seed) are kept in
``.perfbench/counters.json``; a later run of the same code, workload,
seed and mode whose counters differ fails loudly.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "REPRO_BLAS_THREADS")


def _openblas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS mapped into this process."""
    found = {}
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[Path(path).name] = int(fn())
                break
    return found


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": _digest(SRC.rglob("*.py")),
        "bench_sha256": _digest([ROOT / "BENCHMARK.json",
                                 *Path(__file__).parent.glob("*.py")]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "openblas_threads": _openblas_threads(),
        "thread_env_set_by_benchmark": False,
    }


def _check_counters(key: str, counters: dict) -> list[str]:
    """Compare with the ledger; record first sightings.  Returns drifts."""
    ledger_path = OUT / "counters.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() \
        else {}
    seen = ledger.get(key)
    if seen is None:
        ledger[key] = counters
        tmp = ledger_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        os.replace(tmp, ledger_path)
        return []
    return [f"{name}: {seen.get(name)} before, {value} now"
            for name, value in sorted(counters.items())
            if seen.get(name) != value]


def run_all(names: list[str], args) -> int:
    """Run every workload, each in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):  # the run printed no result
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC.relative_to(ROOT)}/repro; run "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"the checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Context

    if args.workload == "all":
        return run_all(sorted(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    out_dir = OUT / run_id
    out_dir.mkdir(parents=True, exist_ok=True)
    ctx = Context(args.workload, args.seed, float(args.seconds), args.trace,
                  out_dir, ROOT)
    env = environment()
    print(f"environment: {json.dumps(env, sort_keys=True)}")

    t0 = time.perf_counter()
    outcome = WORKLOADS[args.workload](ctx)
    wall = time.perf_counter() - t0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    measured = {k: unit for k, (_, unit) in outcome.metrics.items()}
    if measured != declared:
        print(f"perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(measured.items()) ^ set(declared.items()))}",
              file=sys.stderr)
        return 2
    outcome.metrics = {k: outcome.metrics[k] for k in declared}

    counters = dict(outcome.counters)
    if args.trace:
        counters.update({k: v for k, (v, unit) in outcome.metrics.items()
                         if unit in ("count", "B") or k == "rom.fallback_rate"})
    # Counters are compared only between runs of the same code.
    drifts = _check_counters(
        f"{args.workload}|seed={args.seed}|trace={args.trace}"
        f"|src={env['src_sha256']}|bench={env['bench_sha256']}", counters)
    for d in drifts:
        print(f"EXACT COUNTER DRIFT: {d}", file=sys.stderr)
        outcome.check("exact counter repeats", False, d)
    correct = all(ok for _, ok, _ in outcome.checks)

    for name, ok, detail in outcome.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}"
              + (f" ({detail})" if detail else ""))
    for name, value in sorted(counters.items()):
        print(f"counter {name} = {value}")
    for name, (value, unit) in outcome.metrics.items():
        n = outcome.samples.get(name)
        print(f"metric {name} = {value:.6g} {unit}"
              + (f" (n={n})" if n is not None else ""))

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "wall_s": wall, "environment": env, "correct": correct,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u, "samples":
                        outcome.samples.get(k)}
                    for k, (v, u) in outcome.metrics.items()},
        "counters": counters, "checks": outcome.checks,
        "info": outcome.info,
    }
    (out_dir / "result.json").write_text(json.dumps(record, indent=1,
                                                    default=str))
    print(f"record: {(out_dir / 'result.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed if correct else max(outcome.failed, 1),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in outcome.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
