"""Command-line interface for the reproduction.

Subcommands:

* ``run`` — simulate one DDP model on one workload and print a summary.
  ``--trace-out`` / ``--metrics-out`` / ``--profile`` additionally emit
  a Chrome-trace JSON (open in Perfetto), a run-report JSON (windowed
  throughput/latency and VP/DP-lag series), and kernel profile counters.
  ``--faults PLAN.json`` / ``--crash NODE@T_US[+RESTART_US]`` inject
  deterministic faults (crashes, message loss, partitions, NVM
  slowdowns; see :mod:`repro.faults`) and validate the model's
  durability contracts after the run — exit code 1 on a violation.
* ``trace`` — run one model and dump its timeline: writes the
  Chrome-trace file and prints a category summary plus the first records.
* ``journey`` — per-update critical-path waterfalls: where each write's
  end-to-end VP/DP latency went (network / coordination-wait / NVM-queue
  / device / compute), aggregated and for the slowest updates; ``--all``
  sweeps the 25-model matrix fig6-style.
* ``profile`` — the kernel performance observatory: run one model with
  the profiler attached and print a hotspot table (event kinds and
  message handlers ranked by cumulative wall time, per-event overhead,
  scheduling statistics).  ``--flame-out`` / ``--speedscope-out``
  additionally sample Python stacks at a wall interval and write
  Brendan-Gregg folded stacks / speedscope JSON, phase-tagged (kernel /
  protocol / store / workload); ``--json`` emits the machine-readable
  snapshot.
* ``diff`` — compare two run reports, sweep reports, or
  ``BENCH_*.json`` artifacts: config-hash compatibility check,
  per-metric deltas with a noise threshold (per matrix cell for sweep
  reports, where a crashed cell also counts as a regression), and a
  regression verdict (markdown or ``--json``).  Exit codes: 0 no
  regression, 1 regression, 2 unusable/incompatible input.
* ``audit`` — the black-box contract auditor: verify a recorded client
  history (``run --history-out``) against all 25 consistency/persistency
  cells from observation alone and print the verdict matrix (or the
  ``repro.audit_report/1`` JSON with ``--json``).  ``run --audit`` does
  the record-and-audit round trip in one command.  Exit codes: 0 target
  model passes, 1 contract violation, 2 unusable history.
* ``sweep`` — run several models (or, with ``--all``, the full 5x5
  matrix, times ``--seeds``) on the same workload, normalized to
  <Linearizable, Synchronous> (a one-line Figure 6 slice).
  ``--workers N`` fans the matrix across worker processes; the merged
  ``repro.sweep_report/1`` artifact (``--out``) is byte-identical
  whatever the worker count, and a crashed cell becomes a schema-valid
  ``error`` entry (exit code 1).  ``--journeys`` / ``--health`` /
  ``--profile`` / ``--audit`` embed the matching per-cell sections;
  ``--html-out`` also renders the dashboard.
* ``dash`` — render a saved sweep report as one self-contained static
  HTML dashboard: 5x5 heatmaps, journey waterfalls, kernel
  attribution, ``--baseline`` diff deltas, and ``--bench-dir`` trend
  sparklines.  Exit code 2 on unusable input.
* ``tradeoffs`` — print the derived Table 4 (or the full 25-model grid).
* ``recover`` — run a workload, crash the cluster, simulate recovery,
  and report what survived.
* ``lint`` — run the project's own static analysis (reprolint):
  determinism, tracer-guard, and protocol-dispatch invariants.  Exit
  codes: 0 clean, 1 findings, 2 usage error.

Examples::

    python -m repro.cli run --consistency causal --persistency synchronous
    python -m repro.cli run --trace-out t.json --metrics-out m.json --profile
    python -m repro.cli run --health --metrics-out report.json
    python -m repro.cli run --crash 2@50+40 --metrics-out report.json
    python -m repro.cli run --faults chaos.json --trace-out t.json
    python -m repro.cli trace --consistency causal --persistency eventual
    python -m repro.cli trace t.json            # re-open a saved trace
    python -m repro.cli journey --consistency linearizable --slowest 3
    python -m repro.cli journey report.json     # re-open a saved report
    python -m repro.cli journey --all --duration-us 40
    python -m repro.cli profile --consistency linearizable --top 10
    python -m repro.cli profile --flame-out kernel.folded --speedscope-out kernel.speedscope.json
    python -m repro.cli diff baseline.json fresh.json --json
    python -m repro.cli run --audit --consistency linearizable
    python -m repro.cli run --history-out h.jsonl --crash 1@120+60
    python -m repro.cli audit h.jsonl --consistency eventual
    python -m repro.cli sweep --workload B --duration-us 150
    python -m repro.cli sweep --all --workers 4 --out sweep.json --html-out dash.html
    python -m repro.cli dash sweep.json --baseline old_sweep.json --bench-dir benchmarks/results
    python -m repro.cli tradeoffs --all
    python -m repro.cli recover --persistency eventual --strategy majority
    python -m repro.cli lint src tests benchmarks --json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis.metrics import Metrics
from repro.analysis.points import PointsTracker
from repro.audit import audit_exit_code, audit_history, format_audit_table
from repro.analysis.report import format_summary_table
from repro.analysis.waterfall import aggregate_journeys, format_waterfall
from repro.cluster.cluster import Cluster, run_simulation
from repro.cluster.config import ClusterConfig
from repro.core.model import Consistency, DdpModel, Persistency, all_ddp_models
from repro.core.tradeoffs import analyze_all
from repro.devtools.cli import (add_lint_parser, add_order_parser,
                                cmd_lint, cmd_order)
from repro.faults import (FaultInjector, load_fault_plan,
                          plan_from_crash_specs, validate_faulty_run)
from repro.obs import (
    DiffError,
    FanoutTracer,
    SweepProgress,
    build_dashboard,
    build_sweep_report,
    load_bench_dir,
    matrix_specs,
    run_sweep,
    write_dashboard,
    write_sweep_report,
    FrameSampler,
    HealthMonitor,
    HistoryRecorder,
    JourneyTracker,
    JsonlSink,
    KernelProfile,
    build_run_report,
    format_hotspots,
    config_fingerprint,
    diff_json,
    diff_paths,
    format_markdown,
    health_chrome_events,
    journey_chrome_events,
    load_artifact,
    load_history,
    recovered_from_cluster,
    write_chrome_trace,
    write_history,
    write_run_report,
)
from repro.obs.schemas import (KERNEL_PROFILE_SCHEMA, SchemaError,
                               validate_artifact)
from repro.recovery.replayer import RecoveryReplayer
from repro.sim.trace import Tracer
from repro.workload.ycsb import WORKLOADS

__all__ = ["main", "build_parser"]


def _model_from(args) -> DdpModel:
    return DdpModel(Consistency(args.consistency), Persistency(args.persistency))


def _config_from(args) -> ClusterConfig:
    return ClusterConfig(servers=args.servers,
                         clients_per_server=args.clients // args.servers,
                         seed=args.seed)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", default="A", choices=sorted(WORKLOADS),
                        help="YCSB workload mix (default: A)")
    parser.add_argument("--servers", type=int, default=5)
    parser.add_argument("--clients", type=int, default=100,
                        help="total clients across the cluster")
    parser.add_argument("--duration-us", type=float, default=100.0,
                        help="measured simulated time per run")
    parser.add_argument("--seed", type=int, default=2021)


def _positive(kind):
    def parse(text: str):
        value = kind(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(f"must be positive: {text}")
        return value
    return parse


def _add_observability(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="write a Chrome trace_event JSON timeline "
                             "(open in Perfetto / chrome://tracing)")
    parser.add_argument("--trace-jsonl", metavar="PATH", default=None,
                        help="stream trace records to a JSONL file")
    parser.add_argument("--trace-limit", type=_positive(int),
                        default=1_000_000,
                        help="max in-memory trace records (default: 1M)")
    parser.add_argument("--trace-ring", action="store_true",
                        help="keep the newest records when the limit is "
                             "hit instead of the oldest")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the run-report JSON (windowed "
                             "throughput/latency, VP/DP lag series)")
    parser.add_argument("--metrics-window-us", type=_positive(float),
                        default=10.0,
                        help="time-series window size (default: 10 us)")
    parser.add_argument("--journey-out", metavar="PATH", default=None,
                        help="track per-update journeys and write a "
                             "run-report JSON with the critical-path "
                             "waterfall (journeys section)")
    parser.add_argument("--journey-sample-every", type=_positive(int),
                        default=1, metavar="N",
                        help="track every Nth write (default: 1)")
    parser.add_argument("--journey-max", type=_positive(int), default=None,
                        metavar="N",
                        help="cap tracked journeys; later writes count "
                             "as dropped (default: unlimited)")
    parser.add_argument("--profile", action="store_true",
                        help="collect and print simulation-kernel "
                             "profile counters")
    parser.add_argument("--health", action="store_true",
                        help="sample cluster health on the simulation "
                             "clock (persist queues, causal buffers, "
                             "inflight rounds, invariant probes); folds "
                             "into --metrics-out and --trace-out")
    parser.add_argument("--health-interval-us", type=_positive(float),
                        default=5.0,
                        help="health sampling interval (default: 5 us)")
    parser.add_argument("--health-samples", type=_positive(int),
                        default=10_000,
                        help="max health samples kept (default: 10000)")
    parser.add_argument("--health-top-k", type=int, default=8,
                        help="hot keys tracked per sample (default: 8)")
    parser.add_argument("--history-out", metavar="PATH", default=None,
                        help="record every client-observed operation and "
                             "write the repro.history/1 JSONL artifact "
                             "(the black-box contract auditor's input)")
    parser.add_argument("--audit", action="store_true",
                        help="record the client history and audit it "
                             "against the 5x5 consistency/persistency "
                             "matrix after the run; exit code 1 if the "
                             "run's own model fails its contract")
    parser.add_argument("--history-limit", type=_positive(int),
                        default=1_000_000, metavar="N",
                        help="max recorded operations (default: 1M); an "
                             "over-limit history is truncated and "
                             "audits as unusable")


def _run_meta(args, model: DdpModel, duration_ns: float,
              warmup_ns: float) -> dict:
    """Artifact metadata, including the ``config_hash`` that lets
    ``repro diff`` refuse apples-to-oranges comparisons.  The hash
    covers the resolved experiment shape (model, workload, cluster
    size) but not the seed or duration, so same-shape runs with
    different seeds stay comparable."""
    return {
        "model": str(model),
        "consistency": model.consistency.value,
        "persistency": model.persistency.value,
        "workload": args.workload,
        "servers": args.servers,
        "clients": args.clients,
        "seed": args.seed,
        "duration_ns": duration_ns,
        "warmup_ns": warmup_ns,
        "config_hash": config_fingerprint({
            "model": str(model),
            "workload": args.workload,
            "servers": args.servers,
            "clients": args.clients,
        }),
    }


class _Observability:
    """The per-run observability sinks the CLI flags requested."""

    def __init__(self, args):
        want_trace = bool(getattr(args, "trace_out", None)
                          or getattr(args, "trace_jsonl", None))
        want_journey = bool(getattr(args, "journey_out", None))
        # A journey report rides in the full run-report document, so it
        # needs the same metrics/points collectors as --metrics-out.
        want_metrics = bool(getattr(args, "metrics_out", None)) or want_journey
        # Fail on an unwritable destination now, not after simulating.
        for path in (getattr(args, "trace_out", None), args.metrics_out,
                     getattr(args, "journey_out", None),
                     getattr(args, "history_out", None)):
            if path:
                try:
                    open(path, "w").close()
                except OSError as exc:
                    raise SystemExit(
                        f"repro: cannot write {path}: {exc}") from exc
        self.window_ns = args.metrics_window_us * 1000.0
        self.recorder = (HistoryRecorder(
                             max_ops=getattr(args, "history_limit",
                                             1_000_000))
                         if (getattr(args, "history_out", None)
                             or getattr(args, "audit", False)) else None)
        self.tracer = (Tracer(max_records=args.trace_limit,
                              ring=args.trace_ring)
                       if want_trace else None)
        self.points = PointsTracker(args.servers) if want_metrics else None
        self.journey = (JourneyTracker(
                            args.servers,
                            sample_every=args.journey_sample_every,
                            max_journeys=args.journey_max)
                        if want_journey else None)
        self.jsonl = (JsonlSink(args.trace_jsonl)
                      if getattr(args, "trace_jsonl", None) else None)
        self.metrics = (Metrics(window_ns=self.window_ns)
                        if want_metrics else None)
        self.profile = KernelProfile() if args.profile else None
        self.monitor = None
        if getattr(args, "health", False):
            self.monitor = HealthMonitor(
                interval_ns=args.health_interval_us * 1000.0,
                max_samples=args.health_samples,
                top_k=args.health_top_k)
            self.monitor.watch(tracer=self.tracer, journey=self.journey)
        sinks = [s for s in (self.tracer, self.points, self.journey,
                             self.jsonl)
                 if s is not None]
        self.engine_tracer = (sinks[0] if len(sinks) == 1
                              else FanoutTracer(sinks) if sinks else None)

    def finalize(self, args, model: DdpModel, summary, duration_ns: float,
                 warmup_ns: float, faults=None, audit=None) -> None:
        """Write the requested artifacts after the run."""
        if self.jsonl is not None:
            self.jsonl.close()
        meta = _run_meta(args, model, duration_ns, warmup_ns)
        waterfall = None
        if self.journey is not None:
            waterfall = aggregate_journeys(self.journey.journeys,
                                           args.servers, label=str(model),
                                           dropped=self.journey.dropped)
        if getattr(args, "trace_out", None):
            extra = (journey_chrome_events(self.journey.journeys,
                                           args.servers)
                     if self.journey is not None else [])
            if self.monitor is not None:
                extra = list(extra) + health_chrome_events(self.monitor)
            write_chrome_trace(args.trace_out, self.tracer.records,
                               dropped=self.tracer.dropped, meta=meta,
                               extra_events=extra or None)
            print(f"trace    -> {args.trace_out} "
                  f"({len(self.tracer)} records, "
                  f"{self.tracer.dropped} dropped)")
        if getattr(args, "metrics_out", None):
            report = build_run_report(summary, self.metrics, self.window_ns,
                                      meta=meta, points=self.points,
                                      profile=self.profile,
                                      tracer=self.tracer,
                                      journeys=waterfall,
                                      monitor=self.monitor,
                                      faults=faults, audit=audit)
            write_run_report(args.metrics_out, report)
            print(f"metrics  -> {args.metrics_out} "
                  f"(window {args.metrics_window_us:g} us)")
        if getattr(args, "journey_out", None):
            report = build_run_report(summary, self.metrics, self.window_ns,
                                      meta=meta, points=self.points,
                                      profile=self.profile,
                                      tracer=self.tracer,
                                      journeys=waterfall,
                                      monitor=self.monitor,
                                      faults=faults, audit=audit)
            write_run_report(args.journey_out, report)
            print(f"journeys -> {args.journey_out} "
                  f"({len(self.journey)} tracked, "
                  f"{self.journey.dropped} dropped)")
        if self.monitor is not None:
            print(f"health   :  {len(self.monitor)} samples "
                  f"(every {self.monitor.interval_ns / 1000:g} us, "
                  f"{self.monitor.dropped} dropped)  "
                  f"peak-queue={self.monitor.peak_event_queue_depth}  "
                  f"peak-nvm={self.monitor.peak_nvm_outstanding}  "
                  f"violations={self.monitor.violations_total}")
        if self.profile is not None:
            print(self.profile.format())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed Data Persistency (MICRO 2021) reproduction")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="simulate one DDP model")
    run_parser.add_argument("--consistency", default="causal",
                            choices=[c.value for c in Consistency])
    run_parser.add_argument("--persistency", default="synchronous",
                            choices=[p.value for p in Persistency])
    _add_common(run_parser)
    _add_observability(run_parser)
    run_parser.add_argument("--faults", metavar="PLAN.json", default=None,
                            help="inject the faults described in a JSON "
                                 "plan (crashes, drops, delays, "
                                 "duplicates, partitions, NVM slowdowns) "
                                 "and validate durability contracts "
                                 "afterwards")
    run_parser.add_argument("--crash", metavar="NODE@T_US[+RESTART_US]",
                            action="append", default=None,
                            help="crash a node at a time (us), optionally "
                                 "restarting it after RESTART_US more; "
                                 "repeatable; combines with --faults")

    trace_parser = subparsers.add_parser(
        "trace", help="run one model and dump its event timeline")
    trace_parser.add_argument("input", nargs="?", default=None,
                              metavar="FILE",
                              help="re-open a saved Chrome-trace JSON "
                                   "instead of running a simulation")
    trace_parser.add_argument("--consistency", default="causal",
                              choices=[c.value for c in Consistency])
    trace_parser.add_argument("--persistency", default="synchronous",
                              choices=[p.value for p in Persistency])
    _add_common(trace_parser)
    trace_parser.add_argument("--out", metavar="PATH", default=None,
                              help="write the Chrome trace_event JSON here")
    trace_parser.add_argument("--limit", type=int, default=20,
                              help="records to print (default: 20)")
    trace_parser.add_argument("--category", action="append", default=None,
                              help="only trace these categories "
                                   "(repeatable)")
    trace_parser.add_argument("--max-records", type=_positive(int),
                              default=1_000_000,
                              help="max in-memory trace records "
                                   "(default: 1M)")
    trace_parser.add_argument("--ring", action="store_true",
                              help="keep the newest records when the "
                                   "limit is hit instead of the oldest")

    journey_parser = subparsers.add_parser(
        "journey", help="per-update critical-path latency waterfalls")
    journey_parser.add_argument("input", nargs="?", default=None,
                                metavar="FILE",
                                help="re-open a saved run-report JSON "
                                     "(journeys section) instead of "
                                     "running a simulation")
    journey_parser.add_argument("--consistency", default="causal",
                                choices=[c.value for c in Consistency])
    journey_parser.add_argument("--persistency", default="synchronous",
                                choices=[p.value for p in Persistency])
    journey_parser.add_argument("--all", action="store_true",
                                help="fig6-style sweep: one waterfall per "
                                     "model of the 5x5 matrix")
    _add_common(journey_parser)
    journey_parser.add_argument("--key", type=int, default=None,
                                help="only updates to this key")
    journey_parser.add_argument("--node", type=int, default=None,
                                help="only updates coordinated by this node")
    journey_parser.add_argument("--slowest", type=int, default=5,
                                help="slowest-N updates to break down "
                                     "individually (default: 5)")
    journey_parser.add_argument("--sample-every", type=_positive(int),
                                default=1,
                                help="track every Nth write (default: 1)")
    journey_parser.add_argument("--journey-out", metavar="PATH", default=None,
                                help="write the run-report JSON "
                                     "(repro.run_report/7) with the "
                                     "journeys section (single model only)")

    profile_parser = subparsers.add_parser(
        "profile", help="kernel performance observatory: hotspot "
                        "attribution and flamegraph export")
    profile_parser.add_argument("--consistency", default="causal",
                                choices=[c.value for c in Consistency])
    profile_parser.add_argument("--persistency", default="synchronous",
                                choices=[p.value for p in Persistency])
    _add_common(profile_parser)
    profile_parser.add_argument("--top", type=_positive(int), default=None,
                                metavar="N",
                                help="rows per hotspot section "
                                     "(default: all)")
    profile_parser.add_argument("--flame-out", metavar="PATH", default=None,
                                help="sample Python stacks and write "
                                     "Brendan-Gregg folded stacks "
                                     "(flamegraph.pl / speedscope input)")
    profile_parser.add_argument("--speedscope-out", metavar="PATH",
                                default=None,
                                help="sample Python stacks and write a "
                                     "speedscope JSON profile")
    profile_parser.add_argument("--sample-interval-ms", type=_positive(float),
                                default=5.0,
                                help="stack sampling wall interval "
                                     "(default: 5 ms)")
    profile_parser.add_argument("--json", action="store_true",
                                dest="as_json",
                                help="print the profile snapshot as JSON "
                                     "instead of the hotspot table")

    diff_parser = subparsers.add_parser(
        "diff", help="compare two run/sweep reports or bench artifacts "
                     "for regressions")
    diff_parser.add_argument("baseline", help="baseline artifact "
                             "(run report, sweep report, or "
                             "BENCH_*.json)")
    diff_parser.add_argument("candidate", help="candidate artifact to "
                             "judge against the baseline")
    diff_parser.add_argument("--threshold", type=_positive(float),
                             default=5.0, metavar="PCT",
                             help="noise threshold in percent "
                                  "(default: 5)")
    diff_parser.add_argument("--json", action="store_true", dest="as_json",
                             help="print the repro.diff_report/1 JSON "
                                  "instead of markdown")
    diff_parser.add_argument("--out", metavar="PATH", default=None,
                             help="also write the JSON diff document here")
    diff_parser.add_argument("--force", action="store_true",
                             help="compare despite a config-hash mismatch")

    audit_parser = subparsers.add_parser(
        "audit", help="verify a recorded client history against the 5x5 "
                      "consistency/persistency matrix")
    audit_parser.add_argument("history", metavar="HISTORY.jsonl",
                              help="repro.history/1 artifact from "
                                   "run --history-out")
    audit_parser.add_argument("--consistency", default=None,
                              choices=[c.value for c in Consistency],
                              help="override the target consistency model "
                                   "(default: the history's run metadata)")
    audit_parser.add_argument("--persistency", default=None,
                              choices=[p.value for p in Persistency],
                              help="override the target persistency model "
                                   "(default: the history's run metadata)")
    audit_parser.add_argument("--json", action="store_true", dest="as_json",
                              help="print the repro.audit_report/1 JSON "
                                   "instead of the verdict table")
    audit_parser.add_argument("--out", metavar="PATH", default=None,
                              help="also write the JSON audit report here")

    sweep_parser = subparsers.add_parser(
        "sweep", help="compare models on one workload; --workers fans "
                      "the matrix across processes")
    sweep_parser.add_argument("--all", action="store_true",
                              help="sweep all 25 models (slow)")
    _add_common(sweep_parser)
    sweep_parser.add_argument("--workers", type=_positive(int), default=1,
                              metavar="N",
                              help="worker processes (default: 1 = "
                                   "in-process); the merged artifact is "
                                   "byte-identical for any worker count")
    sweep_parser.add_argument("--seeds", type=int, nargs="+", default=None,
                              metavar="SEED",
                              help="run each model once per seed "
                                   "(default: just --seed)")
    sweep_parser.add_argument("--out", metavar="PATH", default=None,
                              help="write the merged repro.sweep_report/1 "
                                   "JSON here")
    sweep_parser.add_argument("--html-out", metavar="PATH", default=None,
                              help="also render the self-contained HTML "
                                   "dashboard here")
    sweep_parser.add_argument("--baseline", metavar="PATH", default=None,
                              help="sweep report to diff against in the "
                                   "dashboard")
    sweep_parser.add_argument("--bench-dir", metavar="DIR", default=None,
                              help="BENCH_*.json directory for dashboard "
                                   "trend sparklines")
    sweep_parser.add_argument("--journeys", action="store_true",
                              help="embed per-cell journey waterfalls")
    sweep_parser.add_argument("--health", action="store_true",
                              help="embed per-cell health sections")
    sweep_parser.add_argument("--profile", action="store_true",
                              help="embed per-cell kernel profiles "
                                   "(deterministic counters only)")
    sweep_parser.add_argument("--audit", action="store_true",
                              help="embed per-cell black-box audit "
                                   "verdicts")
    sweep_parser.add_argument("--no-progress", action="store_true",
                              help="suppress the stderr progress "
                                   "telemetry")

    dash_parser = subparsers.add_parser(
        "dash", help="render a sweep report as a static HTML dashboard")
    dash_parser.add_argument("report", metavar="SWEEP.json",
                             help="repro.sweep_report/1 artifact from "
                                  "sweep --out")
    dash_parser.add_argument("--out", metavar="PATH", default=None,
                             help="output HTML path "
                                  "(default: <report>.html)")
    dash_parser.add_argument("--baseline", metavar="PATH", default=None,
                             help="sweep report to diff against "
                                  "(deltas colored by repro diff verdict)")
    dash_parser.add_argument("--bench-dir", metavar="DIR", default=None,
                             help="BENCH_*.json directory for trend "
                                  "sparklines")
    dash_parser.add_argument("--title", default="DDP sweep dashboard",
                             help="page title")

    tradeoff_parser = subparsers.add_parser(
        "tradeoffs", help="print the derived Table 4")
    tradeoff_parser.add_argument("--all", action="store_true",
                                 help="derive all 25 models")

    recover_parser = subparsers.add_parser(
        "recover", help="crash mid-run and simulate recovery")
    recover_parser.add_argument("--consistency", default="causal",
                                choices=[c.value for c in Consistency])
    recover_parser.add_argument("--persistency", default="synchronous",
                                choices=[p.value for p in Persistency])
    recover_parser.add_argument("--strategy", default="latest",
                                choices=["latest", "majority"])
    _add_common(recover_parser)

    add_lint_parser(subparsers)
    add_order_parser(subparsers)
    return parser


def _faults_from(args) -> Optional[FaultInjector]:
    """Build the injector requested by ``--faults`` / ``--crash``."""
    plan = None
    if getattr(args, "faults", None):
        try:
            plan = load_fault_plan(args.faults)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"repro: bad fault plan {args.faults}: {exc}")
    if getattr(args, "crash", None):
        crash_plan = plan_from_crash_specs(args.crash, seed=args.seed)
        if plan is None:
            plan = crash_plan
        else:
            import dataclasses
            plan = dataclasses.replace(
                plan, events=tuple(sorted(plan.events + crash_plan.events,
                                          key=lambda e: (e.at_ns, e.kind))))
    return FaultInjector(plan) if plan is not None else None


def _print_fault_outcome(cluster, injector) -> int:
    """Fault/recovery summary + contract validation; returns exit code."""
    network = cluster.network
    resends = sum(e.round_resends for e in cluster.engines)
    retargeted = sum(e.rounds_retargeted for e in cluster.engines)
    print(f"\nfaults   :  crashes={injector.crashes} "
          f"detections={injector.detections} restarts={injector.restarts} "
          f"txns-abandoned={injector.txns_abandoned} "
          f"ops-severed={injector.ops_severed}")
    print(f"network  :  dropped={network.dropped_messages} "
          f"delayed={network.delayed_messages} "
          f"duplicated={network.duplicated_messages}")
    print(f"rounds   :  resends={resends} retargeted={retargeted} "
          f"epoch={cluster.membership.epoch} "
          f"live={sorted(cluster.membership.live)}")
    failed = False
    for result in validate_faulty_run(cluster):
        status = "ok" if result.ok else "VIOLATED"
        print(f"check    :  {result.name:28s} {status}")
        for detail in result.details[:5]:
            print(f"            [{detail['rule']}] {detail['detail']}")
        if result.violations > 5:
            print(f"            ... and {result.violations - 5} more")
        failed = failed or not result.ok
    return 1 if failed else 0


def _cmd_run(args) -> int:
    model = _model_from(args)
    duration = args.duration_us * 1000.0
    warmup = duration / 10
    obs = _Observability(args)
    injector = _faults_from(args)
    cluster = Cluster(model, config=_config_from(args),
                      workload=WORKLOADS[args.workload],
                      tracer=obs.engine_tracer,
                      metrics=obs.metrics,
                      profile=obs.profile,
                      monitor=obs.monitor,
                      faults=injector,
                      history=obs.recorder)
    summary = cluster.run(duration, warmup_ns=warmup)
    print(format_summary_table([(str(model), summary)]))
    print(f"\npersists={summary.persists}  messages={summary.total_messages}"
          f"  causal-buffer-peak={summary.causal_buffer_peak}"
          f"  txn-conflicts={summary.txn_conflicts}")
    exit_code = 0
    if injector is not None:
        exit_code = _print_fault_outcome(cluster, injector)
    audit_report = None
    if obs.recorder is not None:
        obs.recorder.meta = _run_meta(args, model, duration, warmup)
        obs.recorder.recovered = recovered_from_cluster(cluster)
        history = obs.recorder.history()
        if args.history_out:
            write_history(args.history_out, history)
            print(f"history  -> {args.history_out} "
                  f"({len(history.ops)} ops, "
                  f"{history.dropped} dropped)")
        if args.audit:
            audit_report = audit_history(history)
            print()
            print(format_audit_table(audit_report))
            exit_code = max(exit_code, audit_exit_code(audit_report))
    obs.finalize(args, model, summary, duration, warmup, faults=injector,
                 audit=audit_report)
    return exit_code


def _load_trace_file(path: str) -> dict:
    """Load a saved Chrome-trace JSON; :class:`DiffError` if unusable."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DiffError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DiffError(f"{path} is not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"),
                                                   list):
        raise DiffError(f"{path}: not a Chrome trace_event file "
                        f"(no traceEvents array)")
    return doc


def _show_trace_file(args) -> int:
    try:
        doc = _load_trace_file(args.input)
    except DiffError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    events = doc["traceEvents"]
    other = doc.get("otherData", {})
    model = other.get("model", "?")
    print(f"{args.input}: model {model}   "
          f"{other.get('record_count', len(events))} records, "
          f"{other.get('dropped_records', 0)} dropped")
    counts: dict = {}
    for event in events:
        if event.get("ph") == "M":
            continue
        name = str(event.get("name", "?"))
        counts[name] = counts.get(name, 0) + 1
    print("\nevent counts:")
    for name, count in sorted(counts.items()):
        print(f"  {name:28s} {count:8d}")
    return 0


def _cmd_trace(args) -> int:
    if args.input is not None:
        return _show_trace_file(args)
    model = _model_from(args)
    duration = args.duration_us * 1000.0
    warmup = duration / 10
    tracer = Tracer(categories=args.category, max_records=args.max_records,
                    ring=args.ring)
    summary = run_simulation(model, WORKLOADS[args.workload],
                             config=_config_from(args),
                             duration_ns=duration,
                             warmup_ns=warmup,
                             tracer=tracer)
    print(f"model: {model}   throughput: "
          f"{summary.throughput_ops_per_s / 1e6:.2f} Mops/s   "
          f"records: {len(tracer)}   dropped: {tracer.dropped}")
    if tracer.dropped:
        end = "oldest" if args.ring else "newest"
        print(f"WARNING: timeline truncated — {tracer.dropped} {end} "
              f"records dropped at the --max-records={args.max_records} "
              f"cap; raise it or switch --ring to change which end is "
              f"kept")
    print("\ncategory counts:")
    for category, count in sorted(tracer.categories().items()):
        print(f"  {category:28s} {count:8d}")
    if args.limit > 0:
        print(f"\nfirst {min(args.limit, len(tracer))} records:")
        print(tracer.dump(limit=args.limit))
    if args.out:
        write_chrome_trace(args.out, tracer.records, dropped=tracer.dropped,
                           meta={"model": str(model),
                                 "workload": args.workload,
                                 "seed": args.seed})
        print(f"\ntrace -> {args.out}")
    return 0


def _show_journey_file(args) -> int:
    try:
        doc = load_artifact(args.input)
    except DiffError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    journeys = doc.get("journeys")
    if not isinstance(journeys, dict):
        print(f"repro: {args.input}: run report has no journeys section "
              f"(produce one with --journey-out)", file=sys.stderr)
        return 2
    meta = doc.get("meta", {})
    print(f"{args.input}: model {meta.get('model', '?')}   "
          f"{journeys.get('journeys', 0)} journeys, "
          f"{journeys.get('dropped', 0)} dropped")
    for point in ("vp", "dp"):
        aggregate = journeys.get(point)
        if not aggregate:
            print(f"  {point}: no completed journeys")
            continue
        buckets = aggregate.get("buckets_ns", {})
        top = sorted(buckets.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
        split = "  ".join(f"{name} {ns / 1000:.1f}us" for name, ns in top)
        print(f"  {point}: {aggregate.get('count', 0)} journeys, "
              f"mean {aggregate.get('mean_latency_ns', 0.0) / 1000:.2f} us"
              f"   top buckets: {split}")
    return 0


def _cmd_journey(args) -> int:
    if args.input is not None:
        return _show_journey_file(args)
    if args.journey_out and args.all:
        raise SystemExit("repro: --journey-out needs a single model "
                         "(drop --all)")
    duration = args.duration_us * 1000.0
    warmup = duration / 10
    window_ns = 10_000.0
    models = all_ddp_models() if args.all else [_model_from(args)]
    first = True
    for model in models:
        tracker = JourneyTracker(args.servers,
                                 sample_every=args.sample_every)
        metrics = (Metrics(window_ns=window_ns)
                   if args.journey_out else None)
        points = PointsTracker(args.servers) if args.journey_out else None
        engine_tracer = (tracker if points is None
                         else FanoutTracer([tracker, points]))
        summary = run_simulation(model, WORKLOADS[args.workload],
                                 config=_config_from(args),
                                 duration_ns=duration,
                                 warmup_ns=warmup,
                                 tracer=engine_tracer,
                                 metrics=metrics)
        journeys = tracker.journeys
        if args.key is not None:
            journeys = [j for j in journeys if j.key == args.key]
        if args.node is not None:
            journeys = [j for j in journeys if j.coordinator == args.node]
        report = aggregate_journeys(journeys, args.servers,
                                    label=str(model),
                                    slowest=args.slowest,
                                    dropped=tracker.dropped)
        if not first:
            print()
        first = False
        print(format_waterfall(report))
        if args.journey_out:
            meta = _run_meta(args, model, duration, warmup)
            doc = build_run_report(summary, metrics, window_ns, meta=meta,
                                   points=points, journeys=report)
            write_run_report(args.journey_out, doc)
            print(f"\njourneys -> {args.journey_out} "
                  f"({len(tracker)} tracked, {tracker.dropped} dropped)")
    return 0


def _cmd_profile(args) -> int:
    model = _model_from(args)
    duration = args.duration_us * 1000.0
    warmup = duration / 10
    # Fail on an unwritable destination now, not after simulating.
    for path in (args.flame_out, args.speedscope_out):
        if path:
            try:
                open(path, "w").close()
            except OSError as exc:
                print(f"repro: cannot write {path}: {exc}", file=sys.stderr)
                return 2
    profile = KernelProfile()
    sampler = None
    if args.flame_out or args.speedscope_out:
        sampler = FrameSampler(interval_s=args.sample_interval_ms / 1000.0)
        sampler.start()
    try:
        summary = run_simulation(model, WORKLOADS[args.workload],
                                 config=_config_from(args),
                                 duration_ns=duration,
                                 warmup_ns=warmup,
                                 profile=profile)
    finally:
        if sampler is not None:
            sampler.stop()
    if args.as_json:
        doc = {
            "schema": KERNEL_PROFILE_SCHEMA,
            "meta": _run_meta(args, model, duration, warmup),
            "profile": profile.snapshot(),
        }
        if sampler is not None:
            doc["sampling"] = {
                "samples": len(sampler.samples),
                "interval_ms": args.sample_interval_ms,
                "phase_seconds": sampler.phase_totals(),
            }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"model: {model}   throughput: "
              f"{summary.throughput_ops_per_s / 1e6:.2f} Mops/s   "
              f"{profile.format()}")
        print()
        print(format_hotspots(profile, top=args.top))
    if sampler is not None and not args.as_json:
        totals = sampler.phase_totals()
        split = "  ".join(f"{phase} {seconds * 1e3:.0f}ms" for phase, seconds
                          in sorted(totals.items(), key=lambda kv: -kv[1]))
        print(f"\nsampled  :  {len(sampler.samples)} stacks "
              f"(every {args.sample_interval_ms:g} ms)  {split}")
    if args.flame_out:
        lines = sampler.write_folded(args.flame_out)
        print(f"folded   -> {args.flame_out} ({lines} stack lines)")
    if args.speedscope_out:
        sampler.write_speedscope(args.speedscope_out, name=str(model))
        print(f"speedscope -> {args.speedscope_out}")
    return 0


def _cmd_diff(args) -> int:
    try:
        report = diff_paths(args.baseline, args.candidate,
                            threshold=args.threshold / 100.0,
                            force=args.force)
    except DiffError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    doc = diff_json(report)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    if args.as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(format_markdown(report))
    return 1 if report.verdict == "regression" else 0


def _cmd_audit(args) -> int:
    try:
        history = load_history(args.history)
    except (OSError, ValueError) as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    report = audit_history(history, consistency=args.consistency,
                           persistency=args.persistency)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_audit_table(report))
    return audit_exit_code(report)


def _dashboard_inputs(args):
    """Load the optional dashboard context (baseline sweep, bench dir).

    :class:`DiffError` propagates for an unusable baseline — the caller
    maps it to exit code 2."""
    baseline = load_artifact(args.baseline) if args.baseline else None
    bench = load_bench_dir(args.bench_dir) if args.bench_dir else []
    return baseline, bench


def _cmd_sweep(args) -> int:
    duration = args.duration_us * 1000.0
    if args.all:
        models = all_ddp_models()
    else:
        models = [
            DdpModel(Consistency.LINEARIZABLE, Persistency.SYNCHRONOUS),
            DdpModel(Consistency.READ_ENFORCED, Persistency.SYNCHRONOUS),
            DdpModel(Consistency.TRANSACTIONAL, Persistency.SYNCHRONOUS),
            DdpModel(Consistency.CAUSAL, Persistency.SYNCHRONOUS),
            DdpModel(Consistency.CAUSAL, Persistency.EVENTUAL),
            DdpModel(Consistency.EVENTUAL, Persistency.EVENTUAL),
        ]
    seeds = args.seeds if args.seeds else [args.seed]
    sections = tuple(name for name in ("journeys", "health", "profile",
                                       "audit") if getattr(args, name))
    specs = matrix_specs(models, seeds, workload=args.workload,
                         servers=args.servers, clients=args.clients,
                         duration_ns=duration, warmup_ns=duration / 10,
                         sections=sections)
    progress = (None if args.no_progress
                else SweepProgress(len(specs), workers=args.workers))
    results = run_sweep(specs, workers=args.workers, progress=progress)
    doc = build_sweep_report(results)
    if args.out:
        write_sweep_report(args.out, doc)
        print(f"sweep report -> {args.out} "
              f"({doc['totals']['ok']}/{doc['totals']['cells']} cells ok)")
    if args.html_out:
        try:
            baseline_doc, bench = _dashboard_inputs(args)
        except DiffError as exc:
            print(f"repro: {exc}", file=sys.stderr)
            return 2
        write_dashboard(args.html_out,
                        build_dashboard(doc, baseline=baseline_doc,
                                        bench_docs=bench))
        print(f"dashboard -> {args.html_out}")
    by_key = {(r.spec.consistency, r.spec.persistency, r.spec.seed): r
              for r in results}
    rows = []
    baseline = None
    for model in models:
        result = by_key[(model.consistency.value, model.persistency.value,
                         seeds[0])]
        if result.status != "ok":
            continue
        if baseline is None:
            baseline = result.summary
        rows.append((str(model), result.summary))
    if rows:
        print(format_summary_table(rows, baseline=baseline))
    errors = doc["totals"]["errors"]
    if errors:
        print(f"repro: {errors} sweep cell(s) errored", file=sys.stderr)
        return 1
    return 0


def _cmd_dash(args) -> int:
    try:
        with open(args.report) as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"repro: cannot read {args.report}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"repro: {args.report} is not valid JSON ({exc})",
              file=sys.stderr)
        return 2
    try:
        validate_artifact(doc, family="repro.sweep_report",
                          path=args.report)
    except SchemaError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    try:
        baseline_doc, bench = _dashboard_inputs(args)
    except DiffError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    out = args.out or args.report + ".html"
    write_dashboard(out, build_dashboard(doc, baseline=baseline_doc,
                                         bench_docs=bench,
                                         title=args.title))
    print(f"dashboard -> {out}")
    return 0


def _cmd_tradeoffs(args) -> int:
    models = all_ddp_models() if args.all else None
    for profile in analyze_all(models):
        print(profile.row())
    return 0


def _cmd_recover(args) -> int:
    model = _model_from(args)
    duration = args.duration_us * 1000.0
    cluster = Cluster(model, config=_config_from(args),
                      workload=WORKLOADS[args.workload])
    cluster.run(duration_ns=duration, warmup_ns=duration / 10)
    cluster.crash_all()
    report = RecoveryReplayer(cluster).simulate(args.strategy)
    print(f"model                : {model}")
    print(f"strategy             : {report.strategy}")
    print(f"keys in NVM images   : {report.total_keys}")
    print(f"divergent keys       : {report.divergent_keys} "
          f"({report.divergence_fraction:.1%})")
    print(f"scan time            : {report.scan_ns / 1000:.1f} us")
    print(f"reconciliation time  : {report.reconcile_ns / 1000:.1f} us")
    print(f"total recovery time  : {report.total_ns / 1000:.1f} us")
    print(f"recovered keys       : {len(report.state)}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "trace": _cmd_trace,
    "journey": _cmd_journey,
    "profile": _cmd_profile,
    "diff": _cmd_diff,
    "audit": _cmd_audit,
    "sweep": _cmd_sweep,
    "dash": _cmd_dash,
    "tradeoffs": _cmd_tradeoffs,
    "recover": _cmd_recover,
    "lint": cmd_lint,
    "order": cmd_order,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
