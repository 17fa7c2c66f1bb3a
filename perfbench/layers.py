"""The traced run: per-layer numbers, measured from outside ``src/``.

A layer is a package under ``src/repro/``.  The traced run repeats the
workload's pass at the same seed:

1. untraced, with timing wrappers around zeta construction and
   ``Metrics.summarize`` (the base for every overhead ratio);
2. with a :class:`KernelProfile` per cell, for the kernel counters;
3. under the stdlib deterministic profiler, which attributes host self
   time to the layer defining each function and counts calls that cross
   into a layer;
4. on the audited workload, without its history recorder, for the
   recorder's cost.

Every pass must reproduce the same ``sim_digest``: observers do not
change the simulation.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from typing import Dict, Tuple

import repro
from repro.analysis.metrics import Metrics
from repro.workload.zipf import ZipfianGenerator

from perfbench.cells import Workload, run_pass

LAYERS = ("sim", "net", "core", "memory", "store", "workload", "txn",
          "analysis", "cluster", "faults", "recovery", "obs", "audit")

_SRC_PREFIX = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_BENCH_PREFIX = os.path.dirname(os.path.abspath(__file__)) + os.sep


@contextmanager
def _timed(owner, attr: str, totals: Dict[str, float], key: str):
    """Accumulate the host time of every call to ``owner.attr``."""
    original = owner.__dict__[attr]
    is_static = isinstance(original, staticmethod)
    func = original.__func__ if is_static else original

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            totals[key] += time.perf_counter() - start

    setattr(owner, attr, staticmethod(timed) if is_static else timed)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _own_layer(func: Tuple[str, int, str]):
    """The layer that defines ``func``, ``"bench"`` for this package,
    None for builtins, the stdlib and generated code."""
    filename = func[0]
    if filename.startswith(_SRC_PREFIX):
        head = filename[len(_SRC_PREFIX):].split(os.sep)[0]
        return head[:-3] if head.endswith(".py") else head
    if filename.startswith(_BENCH_PREFIX):
        return "bench"
    return None


def attribute(stats: dict) -> Tuple[Dict[str, float], Dict[str, Fraction]]:
    """Self seconds and cross-layer call counts per layer.

    A function outside every layer (a builtin such as ``heappush`` or a
    generator's ``send``, stdlib code) is charged to the layers of its
    callers, in proportion to the time (for self time) or calls (for
    call counts) each caller edge accounts for.  A call crosses into a
    layer when its caller, resolved the same way, belongs to another.
    """
    shares_memo: Dict[tuple, Dict[str, Fraction]] = {}

    def shares(func) -> Dict[str, Fraction]:
        layer = _own_layer(func)
        if layer is not None:
            return {layer: Fraction(1)}
        if func in shares_memo:
            return shares_memo[func]
        shares_memo[func] = {"other": Fraction(1)}  # guards caller cycles
        callers = stats[func][4] if func in stats else {}
        calls = sum(edge[1] for edge in callers.values())
        result: Dict[str, Fraction] = defaultdict(Fraction)
        if calls:
            for caller, edge in sorted(callers.items()):
                for layer, share in shares(caller).items():
                    result[layer] += share * Fraction(edge[1], calls)
        else:
            result["other"] = Fraction(1)
        shares_memo[func] = dict(result)
        return shares_memo[func]

    self_s: Dict[str, float] = defaultdict(float)
    crossings: Dict[str, Fraction] = defaultdict(Fraction)
    for func in sorted(stats):
        _cc, _nc, self_time, _cum, callers = stats[func]
        layer = _own_layer(func)
        if layer is not None:
            self_s[layer] += self_time
            for caller, edge in sorted(callers.items()):
                for caller_layer, share in shares(caller).items():
                    if caller_layer != layer:
                        crossings[layer] += share * edge[1]
            continue
        edge_time = sum(edge[2] for edge in callers.values())
        if edge_time <= 0:
            self_s["other"] += self_time
            continue
        for caller, edge in sorted(callers.items()):
            for caller_layer, share in shares(caller).items():
                self_s[caller_layer] += (self_time * edge[2] / edge_time
                                         * float(share))
    return self_s, crossings


def traced_run(workload: Workload, seed: int):
    """Per-layer metrics, the checks its passes made, and the base pass's
    ``sim_digest``."""
    host_s = defaultdict(float)
    gc.collect()
    with _timed(ZipfianGenerator, "_zeta_static", host_s, "zeta"), \
            _timed(Metrics, "summarize", host_s, "summarize"):
        base = run_pass(workload, seed)

    gc.collect()
    profiled = run_pass(workload, seed, profile=True)

    gc.collect()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        traced = run_pass(workload, seed)
    finally:
        profiler.disable()
    self_s, crossings = attribute(pstats.Stats(profiler).stats)
    del profiler

    checks = base.checks + profiled.checks + traced.checks
    compared = [("kernel-profiled", profiled, True),
                ("cProfile-traced", traced, True)]
    recorder_overhead = 1.0  # no recorder attached, nothing to remove
    if workload.audited:
        gc.collect()
        unrecorded = run_pass(workload, seed, record=False)
        checks += unrecorded.checks
        # Without a recorder there are no audit verdicts to compare.
        compared.append(("unrecorded", unrecorded, False))
        recorder_overhead = base.wall_s / unrecorded.wall_s
    for label, other, verdicts in compared:
        checks.append((f"{label} pass reproduces sim_digest",
                       other.digest(verdicts) == base.digest(verdicts)))

    requests = base.requests
    profiles = [cell.profile for cell in profiled.cells]
    events = sum(p.events_processed for p in profiles)
    begun = sum(cell.txn_begun for cell in base.cells)
    post = defaultdict(float)
    for cell in base.cells:
        for key, seconds in cell.post_s.items():
            post[key] += seconds
    traced_total = sum(self_s.values())

    metrics = {
        "sim.events_per_op": (events / requests, "count"),
        "sim.processes_per_op": (
            sum(p.processes_spawned for p in profiles) / requests, "count"),
        "sim.heap_peak": (max(p.heap_peak for p in profiles), "count"),
        "sim.ns_per_event": (base.wall_s * 1e9 / events, "ns"),
        "net.messages_per_op": (
            sum(cell.messages for cell in base.cells) / requests, "count"),
        "net.bytes_per_op": (
            sum(cell.bytes for cell in base.cells) / requests, "B"),
        "core.messages_handled_per_op": (
            sum(p.messages_handled for p in profiles) / requests, "count"),
        "memory.persists_per_op": (
            sum(cell.summary.persists for cell in base.cells) / requests,
            "count"),
        # With no transaction attempted nothing was wasted: 1.
        "txn.commit_ratio": (
            sum(cell.txn_committed for cell in base.cells) / begun
            if begun else 1.0, "ratio"),
        "workload.zeta_s": (host_s["zeta"], "s"),
        "cluster.build_s": (base.setup_s - host_s["zeta"], "s"),
        "analysis.summarize_s": (host_s["summarize"], "s"),
        "recovery.recover_s": (post["recover_s"], "s"),
        "faults.validate_s": (post["validate_s"], "s"),
        "audit.check_s": (post["audit_s"], "s"),
        "audit.ops_checked": (
            sum(cell.verdict["history"]["ops"] for cell in base.cells
                if cell.verdict is not None), "count"),
        "obs.recorder_overhead": (recorder_overhead, "ratio"),
        "obs.profile_overhead": (profiled.wall_s / base.wall_s, "ratio"),
        "trace.overhead": (traced.wall_s / base.wall_s, "ratio"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_frac"] = (self_s.get(layer, 0.0) / traced_total,
                                         "ratio")
        metrics[f"{layer}.calls_per_op"] = (
            float(crossings.get(layer, Fraction(0)) / requests), "count")
    return metrics, checks, base.digest()
