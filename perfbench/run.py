"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload matrix-A --seed 2021 --seconds 40 --trace 0

``--trace 0`` repeats the workload's paced pass (every cell built, run
and checked, one simulation at a time, each phase also counted in the
reference units of ``perfbench/hostspeed.py``) until ``--seconds`` have
passed and reports the end-to-end metrics as medians over the passes.
``--trace 1``
makes the separate traced run of ``perfbench/layers.py`` and the
micro-probes of ``perfbench/probes.py`` and reports the per-layer
metrics.  Either way the last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` count the correctness
checks, ``metrics`` maps each metric to its value and unit.  The line
before it, ``sim_digest <hex>``, hashes every simulated statistic.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Put the checkout's ``src/`` first on the path; refuse to run
    against anything else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program at {SRC}/repro; run from "
                         f"the root of a checkout of the repository")
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def _guarded(checks, label, fn, *args, **kwargs):
    """Call ``fn``; an exception becomes one failed check, not an exit."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # noqa: BLE001 - a crashing cell is a failed check
        traceback.print_exc(file=sys.stderr)
        checks.append((f"{label} raised", False))
        return None


def untraced_run(workload, seed: int, seconds: float):
    """End-to-end metrics over paced passes repeated for ``seconds``."""
    from perfbench.cells import run_pass

    checks, passes = [], []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        result = _guarded(checks, f"pass {len(passes) + 1}", run_pass,
                          workload, seed, paced=True)
        if result is None:
            break
        passes.append(result)
        if time.perf_counter() >= deadline:
            break
    if not passes:
        return {}, checks, None
    first = passes[0]
    for index, other in enumerate(passes[1:], start=2):
        checks.append((f"pass {index} reproduces sim_digest",
                       other.digest() == first.digest()))
    for result in passes:
        checks.extend(result.checks)
    # Host times in reference units (perfbench/hostspeed.py): each slice
    # of a simulation over the reference unit timed straight after it,
    # which cancels the shared host's speed phases.
    wall_ref = statistics.median(p.wall_ref for p in passes)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_ref": (wall_ref, "ref"),
        "ops_per_ref": (first.requests / wall_ref, "ops/ref"),
        "setup_s": (statistics.median(p.setup_s for p in passes), "s"),
        "total_ref": (statistics.median(p.total_ref for p in passes), "ref"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
    }
    print(f"passes {len(passes)}  requests/pass {first.requests}")
    for p in passes:
        print(f"  host s: setup {p.setup_s:.4f}  wall {p.wall_s:.4f}  "
              f"total {p.total_s:.4f}   refs: wall {p.wall_ref:.2f}  "
              f"total {p.total_ref:.2f}")
    # The same in plain host seconds, for reading; unbounded, because on
    # a shared host they spread by tens of percent from run to run.
    wall_s = statistics.median(p.wall_s for p in passes)
    print(f"host wall_s {wall_s:.4f} s  ops_per_s "
          f"{first.requests / wall_s:.1f} ops/s  total_s "
          f"{statistics.median(p.total_s for p in passes):.4f} s")
    return metrics, checks, first.digest()


def traced(workload, seed: int):
    from perfbench.layers import traced_run
    from perfbench.probes import run_probes

    checks = []
    outcome = _guarded(checks, "traced run", traced_run, workload, seed)
    if outcome is None:
        return {}, checks, None
    metrics, run_checks, digest = outcome
    checks.extend(run_checks)
    probes = _guarded(checks, "probes", run_probes, seed)
    metrics.update(probes or {})
    return metrics, checks, digest


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    from perfbench.cells import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        metrics, checks, digest = traced(workload, args.seed)
    else:
        metrics, checks, digest = untraced_run(workload, args.seed,
                                               args.seconds)
    # Every run makes at least one pass, and every pass at least one check.
    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print(f"FAILED check: {name}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6f} {unit}")
    print(f"fail_ratio {len(failed) / len(checks):.6f} "
          f"({len(failed)} of {len(checks)} checks)")
    print(f"sim_digest {digest}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
