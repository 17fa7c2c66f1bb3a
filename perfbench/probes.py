"""Layer micro-probes: a fixed op count against one component, ns/op.

Each probe builds its component fresh (a new :class:`Simulator` where it
needs one), times ``OPS`` operations, and reports the median of
``REPEATS`` timings, so one preempted repeat does not move the figure.
"""

from __future__ import annotations

import statistics
import time

from repro.memory.devices import NvmDevice
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.sim.rng import SeededStream
from repro.sim.sync import Resource
from repro.sim.trace import NullTracer
from repro.store import STORE_TYPES, make_store
from repro.workload.ycsb import WORKLOADS, RequestStream
from repro.workload.zipf import ScrambledZipfianGenerator, ZipfianGenerator

OPS = 2000
REPEATS = 5
KEY_SPACE = 10_000
THETA = 0.99


def _median_ns(run, ops: int = OPS) -> float:
    """Median over ``REPEATS`` of ``run()``'s host time, per op, in ns.
    ``run`` does its own set-up and returns the time to count."""
    return statistics.median(run() for _ in range(REPEATS)) * 1e9 / ops


def _sim_loop(body) -> float:
    """Time ``sim.run()`` over one process that runs ``body(sim)``."""
    sim = Simulator()
    sim.process(body(sim))
    start = time.perf_counter()
    sim.run()
    return time.perf_counter() - start


def _timeouts(sim):
    for _ in range(OPS):
        yield sim.timeout(1.0)


def _spawn() -> float:
    sim = Simulator()

    def child():
        yield sim.timeout(0.0)

    start = time.perf_counter()
    for _ in range(OPS):
        sim.process(child())
    sim.run()
    return time.perf_counter() - start


def _resource(sim):
    resource = Resource(sim, capacity=1)
    for _ in range(OPS):
        yield resource.acquire()
        resource.release()


def _send() -> float:
    sim = Simulator()
    network = Network(sim)
    network.attach(0)
    network.attach(1)
    start = time.perf_counter()
    for seq in range(OPS):
        network.send(0, 1, seq, 64)
    sim.run()
    elapsed = time.perf_counter() - start
    if len(network.nic(1).inbox) != OPS:
        raise RuntimeError("network probe lost messages")
    return elapsed


def _persists(sim):
    nvm = NvmDevice(sim)
    for _ in range(OPS):
        yield from nvm.persist(0)


def _store_probe(kind: str, keys):
    def put() -> float:
        store = make_store(kind)
        start = time.perf_counter()
        for value, key in enumerate(keys):
            store.put(key, value)
        return time.perf_counter() - start

    def get() -> float:
        store = make_store(kind)
        for value, key in enumerate(keys):
            store.put(key, value)
        start = time.perf_counter()
        for key in keys:
            store.get(key)
        return time.perf_counter() - start

    return _median_ns(get), _median_ns(put)


def _draws(make, method: str) -> float:
    draw = getattr(make(), method)
    start = time.perf_counter()
    for _ in range(OPS):
        draw()
    return time.perf_counter() - start


def _tracer_guard() -> float:
    tracer = NullTracer()
    start = time.perf_counter()
    for _ in range(OPS):
        if tracer.enabled:
            raise AssertionError("NullTracer is enabled")
    return time.perf_counter() - start


def _zeta_build() -> float:
    start = time.perf_counter()
    ZipfianGenerator(KEY_SPACE, THETA, SeededStream(0, "probe"))
    return time.perf_counter() - start


def run_probes(seed: int):
    """Every probe's metric as ``name -> (value, unit)``."""
    rng = SeededStream(seed, "probes")
    keygen = ScrambledZipfianGenerator(KEY_SPACE, THETA, rng.fork("keys"))
    keys = [keygen.next() for _ in range(OPS)]
    metrics = {
        "sim.timeout_ns": _median_ns(lambda: _sim_loop(_timeouts)),
        "sim.spawn_ns": _median_ns(_spawn),
        "sim.resource_ns": _median_ns(lambda: _sim_loop(_resource)),
        "net.send_ns": _median_ns(_send),
        "memory.persist_ns": _median_ns(lambda: _sim_loop(_persists)),
        "workload.zipf_next_ns": _median_ns(lambda: _draws(
            lambda: ScrambledZipfianGenerator(KEY_SPACE, THETA,
                                              rng.fork("zipf")), "next")),
        "workload.next_request_ns": _median_ns(lambda: _draws(
            lambda: RequestStream(WORKLOADS["A"], rng.fork("stream")),
            "next_request")),
        "obs.tracer_guard_ns": _median_ns(_tracer_guard),
    }
    metrics = {name: (value, "ns") for name, value in metrics.items()}
    for kind in sorted(STORE_TYPES):
        get_ns, put_ns = _store_probe(kind, keys)
        metrics[f"store.{kind}.get_ns"] = (get_ns, "ns")
        metrics[f"store.{kind}.put_ns"] = (put_ns, "ns")
    metrics["workload.zeta_build_ms"] = (
        statistics.median(_zeta_build() for _ in range(REPEATS)) * 1e3, "ms")
    return metrics
