"""The benchmark's workloads and one measured pass over a workload.

A *pass* builds, runs and checks every cell (one DDP model on one
cluster) of a workload, one simulation at a time, and records the host
time each phase took.  A *paced* pass also counts each phase in the
reference units of ``perfbench/hostspeed.py``: it runs the simulation
in slices of ``SLICE_NS`` simulated ns and times a reference unit after
every slice and every other phase.  The untraced run repeats paced
passes for the requested number of seconds; the traced run
(``perfbench/layers.py``) repeats an unpaced pass under different
observers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.metrics import Summary
from repro.audit import audit_exit_code, audit_history
from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.core.model import Consistency as C, DdpModel, Persistency as P, all_ddp_models
from repro.faults import FaultInjector, plan_from_crash_specs, validate_faulty_run
from repro.obs.history import HistoryRecorder, recovered_from_cluster
from repro.obs.profile import KernelProfile
from repro.workload.ycsb import WORKLOADS as MIXES

from perfbench.hostspeed import PacedTally, sliced

CLIENTS_PER_SERVER = 20
# A paced pass times a reference unit after every slice of this many
# simulated ns: host tens of milliseconds or less on every cell.
SLICE_NS = 500.0

Check = Tuple[str, bool]


def fig6_shape(summaries: Dict[DdpModel, Summary]) -> List[Check]:
    """The Fig 6 shape ``benchmarks/test_fig6_performance.py`` asserts:
    Causal and Eventual in the Synchronous and Eventual columns beat
    <Linearizable, Synchronous> by >1.8x, and <Eventual, Eventual> lies
    2.5x-4.5x above it."""
    def thr(consistency, persistency):
        return summaries[DdpModel(consistency, persistency)].throughput_ops_per_s

    base = thr(C.LINEARIZABLE, P.SYNCHRONOUS)
    checks = []
    for persistency in (P.SYNCHRONOUS, P.EVENTUAL):
        for fast in (C.CAUSAL, C.EVENTUAL):
            checks.append((f"fig6 {fast.value}/{persistency.value} > 1.8x "
                           f"linearizable/synchronous",
                           thr(fast, persistency) > 1.8 * base))
    ratio = thr(C.EVENTUAL, P.EVENTUAL) / base
    checks.append((f"fig6 eventual/eventual = {ratio:.2f}x in [2.5, 4.5]",
                   2.5 <= ratio <= 4.5))
    return checks


@dataclass(frozen=True)
class Workload:
    """A set of cells run on one cluster shape and YCSB mix (zipf 0.99
    over 10k keys, closed-loop clients).  A workload with ``crash``
    specs also records the client history, validates the run and audits
    the history against the 5x5 matrix."""

    name: str
    mix: str
    servers: int
    models: Tuple[DdpModel, ...]
    window_us: float
    crash: Tuple[str, ...] = ()
    shape: Optional[Callable[[Dict[DdpModel, Summary]], List[Check]]] = None

    @property
    def audited(self) -> bool:
        return bool(self.crash)


# Why each workload exists is in perfbench/README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("matrix-A", "A", 5, tuple(all_ddp_models()), 15.0,
             shape=fig6_shape),
    Workload("fanout-W8", "W", 8, (DdpModel(C.CAUSAL, P.EVENTUAL),), 15.0),
    Workload("local-reads-B3", "B", 3, (DdpModel(C.EVENTUAL, P.EVENTUAL),),
             500.0),
    Workload("audited-crash", "A", 5, (DdpModel(C.CAUSAL, P.SYNCHRONOUS),),
             120.0, crash=("2@50+40",)),
)}


@dataclass
class CellRun:
    """One cell's simulation: its summary, host phase times and checks."""

    model: DdpModel
    summary: Summary
    setup_s: float
    wall_s: float
    messages: int
    bytes: int
    txn_begun: int
    txn_committed: int
    profile: Optional[KernelProfile]
    post_s: Dict[str, float] = field(default_factory=dict)
    checks: List[Check] = field(default_factory=list)
    verdict: Optional[dict] = None
    # The phases in reference units; None unless the pass is paced.
    setup_ref: Optional[float] = None
    wall_ref: Optional[float] = None
    post_ref: Optional[float] = None

    @property
    def total_s(self) -> float:
        return self.setup_s + self.wall_s + sum(self.post_s.values())

    @property
    def total_ref(self) -> float:
        return self.setup_ref + self.wall_ref + self.post_ref


def run_cell(workload: Workload, model: DdpModel, seed: int,
             profile: bool = False, record: bool = True,
             paced: bool = False) -> CellRun:
    """Build, run and check one cell.  ``profile`` attaches a fresh
    :class:`KernelProfile`; ``record=False`` leaves an audited workload's
    history recorder (and with it the audit) off; ``paced`` also counts
    each phase in reference units, leaving the reference units' own
    host time out of every phase."""
    duration_ns = workload.window_us * 1000.0
    start = time.perf_counter()
    config = ClusterConfig(servers=workload.servers,
                           clients_per_server=CLIENTS_PER_SERVER, seed=seed)
    injector = (FaultInjector(plan_from_crash_specs(list(workload.crash),
                                                    seed=seed))
                if workload.crash else None)
    recorder = HistoryRecorder() if record and workload.audited else None
    kernel_profile = KernelProfile() if profile else None
    cluster = Cluster(model, config=config, workload=MIXES[workload.mix],
                      profile=kernel_profile, faults=injector,
                      history=recorder)
    built = time.perf_counter()
    if paced:
        setup, run = PacedTally(), PacedTally()
        setup.add(built - start)
        with sliced(cluster.sim, SLICE_NS, run):
            ran_from = time.perf_counter()
            summary = cluster.run(duration_ns, warmup_ns=duration_ns / 10)
            ran = time.perf_counter()
        # Cluster.run outside the simulator's loop: start-up, summary.
        run.add(ran - ran_from - run.pacing_s - run.seconds)
        wall_s = run.seconds
    else:
        summary = cluster.run(duration_ns, warmup_ns=duration_ns / 10)
        wall_s = time.perf_counter() - built
    cell = CellRun(model, summary, built - start, wall_s,
                   cluster.network.total_messages, cluster.network.total_bytes,
                   cluster.txn_table.begun, cluster.txn_table.committed,
                   kernel_profile)
    cell.checks.append((f"{model} completed requests", summary.requests > 0))
    before = time.perf_counter()
    results = validate_faulty_run(cluster) if injector is not None else []
    validated = time.perf_counter()
    cell.checks.extend((f"{model} validate {result.name}", result.ok)
                       for result in results)
    if recorder is not None:
        recorder.recovered = recovered_from_cluster(cluster)
    recovered = time.perf_counter()
    if recorder is not None:
        recorder.meta = {"consistency": model.consistency.value,
                         "persistency": model.persistency.value}
        report = audit_history(recorder.history())
        cell.checks.append((f"{model} audit of its own cell",
                            audit_exit_code(report) == 0))
        # The verdict table without the checkers' wall-clock fields.
        cell.verdict = {"target": report.get("target"),
                        "matrix": report.get("matrix"),
                        "history": report.get("history")}
    # A phase the workload skips is still timed: it reads as the timer's
    # own cost, a measured figure rather than a constant 0.
    cell.post_s = {"validate_s": validated - before,
                   "recover_s": recovered - validated,
                   "audit_s": time.perf_counter() - recovered}
    if paced:
        post = PacedTally()
        post.add(sum(cell.post_s.values()))
        cell.setup_ref, cell.wall_ref, cell.post_ref = (
            setup.refs, run.refs, post.refs)
    return cell


@dataclass
class PassResult:
    cells: List[CellRun]
    checks: List[Check]

    @property
    def setup_s(self) -> float:
        return sum(cell.setup_s for cell in self.cells)

    @property
    def wall_s(self) -> float:
        return sum(cell.wall_s for cell in self.cells)

    @property
    def total_s(self) -> float:
        return sum(cell.total_s for cell in self.cells)

    @property
    def wall_ref(self) -> float:
        return sum(cell.wall_ref for cell in self.cells)

    @property
    def total_ref(self) -> float:
        return sum(cell.total_ref for cell in self.cells)

    @property
    def requests(self) -> int:
        return sum(cell.summary.requests for cell in self.cells)

    def digest(self, verdicts: bool = True) -> str:
        """Hash of every cell's simulated ``Summary`` (and, with
        ``verdicts``, the audit verdict table): equal digests mean every
        simulated statistic is identical."""
        doc = [[str(cell.model), dataclasses.asdict(cell.summary),
                cell.verdict if verdicts else None] for cell in self.cells]
        blob = json.dumps(doc, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def run_pass(workload: Workload, seed: int, profile: bool = False,
             record: bool = True, paced: bool = False) -> PassResult:
    """Every cell of ``workload``, serially, then the workload's checks."""
    cells = [run_cell(workload, model, seed, profile=profile, record=record,
                      paced=paced)
             for model in workload.models]
    checks = [check for cell in cells for check in cell.checks]
    if workload.shape is not None:
        checks.extend(workload.shape({cell.model: cell.summary
                                      for cell in cells}))
    return PassResult(cells, checks)
