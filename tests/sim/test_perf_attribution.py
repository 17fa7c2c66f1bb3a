"""Attribution counters for kernel paths the profiler newly exposes.

Micro-simulations with hand-traceable schedules pin *exact* counter
values: event-kind buckets, composite (`AllOf`/`AnyOf`) and defused
events, same-timestamp tie-batches, interrupt-driven resumes, and the
trampoline fast path.  A kernel refactor that changes any of these
numbers changes scheduling — these tests make that visible before the
byte-identity suites fail mysteriously.
"""

import pytest

from repro.devtools.sanitizer import TieBatchSanitizer
from repro.obs import KernelProfile
from repro.sim.engine import Interrupt, SimulationError, Simulator


def _attached():
    sim = Simulator()
    profile = KernelProfile()
    profile.attach(sim)
    return sim, profile


def _kind_counts(profile):
    return {kind: stats[0] for kind, stats in profile.by_event_kind.items()}


def _drain_by_steps(sim, _proc):
    while sim.queue_depth:
        sim.step()


def _run_until_complete(sim, proc):
    # run_until_complete returns once ``proc`` has triggered, with the
    # process's own process_end still queued; one step() pops it.
    sim.run_until_complete(proc)
    sim.step()


#: The three kernel entry points, each driving a schedule to empty.
DRIVERS = {
    "run": lambda sim, _proc: sim.run(),
    "step": _drain_by_steps,
    "run_until_complete": _run_until_complete,
}


class TestEventKindAttribution:
    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_all_of_composite_pinned_counts(self, driver):
        """3 same-delay timeouts under an AllOf: 6 pops total —
        process_start, 3 timeouts, the composite, process_end — with the
        5 t=5 pops forming one tie-batch, whichever entry point drives
        the schedule (they share one step body)."""
        sim, profile = _attached()

        def waiter():
            yield sim.all_of([sim.timeout(5.0) for _ in range(3)])

        DRIVERS[driver](sim, sim.process(waiter()))
        profile.stop(sim.now)

        assert sim.queue_depth == 0
        assert profile.events_processed == 6
        assert profile.processes_spawned == 1
        assert _kind_counts(profile) == {
            "process_start": 1, "timeout": 3,
            "composite": 1, "process_end": 1,
        }
        assert profile.tie_batch_hist == {1: 1, 5: 1}
        assert profile.events_defused == 0
        # Wall attribution covers every pop exactly once.
        assert sum(s[0] for s in profile.by_event_kind.values()) == \
            profile.events_processed

    def test_any_of_defuses_the_loser(self):
        """AnyOf(5ns, 10ns): the losing timeout still pops at t=10 but
        arrives defused (the composite already triggered)."""
        sim, profile = _attached()

        def waiter():
            index, _value = yield sim.any_of([sim.timeout(5.0),
                                              sim.timeout(10.0)])
            assert index == 0

        sim.process(waiter())
        sim.run()
        profile.stop(sim.now)

        assert _kind_counts(profile) == {
            "process_start": 1, "timeout": 2,
            "composite": 1, "process_end": 1,
        }
        assert profile.events_defused == 1
        # 5 pops total (start, winner, composite, process_end, loser).
        assert profile.snapshot()["scheduling"]["defused_ratio"] == \
            pytest.approx(1 / 5)

    def test_call_at_and_plain_events_are_bucketed(self):
        sim, profile = _attached()
        fired = []
        sim.call_at(3.0, lambda: fired.append(sim.now))
        event = sim.event()

        def trigger():
            yield sim.timeout(1.0)
            event.succeed("x")

        def waiter():
            value = yield event
            assert value == "x"

        sim.process(trigger())
        sim.process(waiter())
        sim.run()
        profile.stop(sim.now)

        assert fired == [3.0]
        counts = _kind_counts(profile)
        assert counts["call_at"] == 1
        assert counts["event"] == 1  # the hand-made event
        assert counts["timeout"] == 1
        assert counts["process_start"] == 2
        assert counts["process_end"] == 2


class TestSchedulingStatistics:
    def test_same_timestamp_tie_batches_pinned(self):
        """4 timeouts at t=7 and 2 at t=9 from one process spawn:
        batches are [1 (start), 4, 2, 1 (process_end at 9)]... the end
        event shares t=9 with its trigger batch, so: {1: 1, 4: 1, 3: 1}."""
        sim, profile = _attached()

        def waiter():
            yield sim.all_of([sim.timeout(7.0) for _ in range(4)]
                             + [sim.timeout(9.0) for _ in range(2)])

        sim.process(waiter())
        sim.run()
        profile.stop(sim.now)

        # Pops: start@0 | 4 timeouts@7 | 2 timeouts + composite +
        # process_end @9 -> batches 1, 4, 4.
        assert profile.tie_batch_hist == {1: 1, 4: 2}
        assert profile.snapshot()["scheduling"]["max_tie_batch"] == 4

    def test_heap_depth_histogram_buckets_by_bit_length(self):
        """Depth is recorded before each pop in power-of-two buckets
        (bucket = depth.bit_length())."""
        sim, profile = _attached()

        def waiter():
            yield sim.all_of([sim.timeout(5.0) for _ in range(3)])

        sim.process(waiter())
        sim.run()
        profile.stop(sim.now)

        # Depths before pops: 1 (init), 3, 2, 1, 1, 1 -> buckets 1x4, 2x2.
        assert profile.heap_depth_hist == {1: 4, 2: 2}
        assert sum(profile.heap_depth_hist.values()) == \
            profile.events_processed

    def test_already_processed_target_adds_no_pop(self):
        """Yielding an event that already ran its callbacks resumes the
        generator inline (the trampoline fast path): no extra pop."""
        sim, profile = _attached()
        early = sim.timeout(1.0)

        def waiter():
            yield sim.timeout(5.0)  # by now `early` is long processed
            value = yield early  # trampoline: continue immediately
            assert value is None

        sim.process(waiter())
        sim.run()
        profile.stop(sim.now)

        # `early` popped with no waiters; the late yield adds no pop.
        assert _kind_counts(profile) == {
            "process_start": 1, "timeout": 2, "process_end": 1,
        }


class TestInterruptAttribution:
    def test_interrupt_cancels_callback_and_buckets_event(self):
        sim, profile = _attached()

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt as interrupt:
                assert interrupt.cause == "wake"

        def interrupter(target):
            yield sim.timeout(2.0)
            target.interrupt("wake")

        target = sim.process(sleeper())
        sim.process(interrupter(target))
        sim.run()
        profile.stop(sim.now)

        counts = _kind_counts(profile)
        assert counts["interrupt"] == 1
        # The abandoned 100ns timeout still pops (undefused, no waiters).
        assert counts["timeout"] == 2

    def test_uninterrupted_run_counts_no_cancellations(self):
        sim, profile = _attached()

        def worker():
            yield sim.timeout(1.0)

        sim.process(worker())
        sim.run()
        profile.stop(sim.now)
        assert "interrupt" not in profile.by_event_kind


class TestOneHookSlot:
    @pytest.mark.parametrize("first,second", [
        (KernelProfile, TieBatchSanitizer),
        (TieBatchSanitizer, KernelProfile),
        (KernelProfile, KernelProfile),
    ])
    def test_second_hook_is_refused(self, first, second):
        """One hook slot: a second attach is refused with an error naming
        both hooks, rather than one of them silently recording nothing."""
        sim = Simulator()
        held = first()
        held.attach(sim)
        with pytest.raises(SimulationError) as excinfo:
            second().attach(sim)
        message = str(excinfo.value)
        assert first.__name__ in message and second.__name__ in message
        assert sim.hook is held


class TestSanitizerEntryPoints:
    @staticmethod
    def _deliveries(sim, popped):
        """Six same-timestamp deliveries plus a process to wait on."""
        for label in range(6):
            event = sim.event()
            event.kind = "msg_delivery"
            event.callbacks.append(lambda ev: popped.append(ev.value))
            event.succeed(label)

        def sleeper():
            yield sim.timeout(1.0)

        return sim.process(sleeper())

    @pytest.mark.parametrize("seed", [None, 5])
    def test_every_entry_point_sees_the_same_batches(self, seed):
        """The sanitizer observes, and permutes, the same tie batch
        whichever entry point drives the run."""
        outcomes = {}
        for name, drive in sorted(DRIVERS.items()):
            sim, popped = Simulator(), []
            sanitizer = TieBatchSanitizer(seed=seed)
            sanitizer.attach(sim)
            drive(sim, self._deliveries(sim, popped))
            assert sorted(popped) == list(range(6))
            outcomes[name] = (popped, sanitizer.batches,
                              sanitizer.max_batch, sanitizer.permuted)
        assert len(set(map(repr, outcomes.values()))) == 1, outcomes
        popped, batches, max_batch, permuted = outcomes["run"]
        # The deliveries and the process start tie at t=0.
        assert (batches, max_batch) == (1, 7)
        if seed is None:
            assert popped == list(range(6)) and permuted == 0
        else:
            assert popped != list(range(6)) and permuted == 1


class TestClusterLevelInvariants:
    """Cross-checks on a real protocol run (fixed seed)."""

    @pytest.fixture(scope="class")
    def profiled_run(self):
        from repro.cluster.cluster import Cluster
        from repro.cluster.config import ClusterConfig
        from repro.core.model import Consistency, DdpModel, Persistency
        from repro.workload.ycsb import WORKLOADS

        profile = KernelProfile()
        cluster = Cluster(
            DdpModel(Consistency.LINEARIZABLE, Persistency.SYNCHRONOUS),
            config=ClusterConfig(servers=3, clients_per_server=3, seed=2021),
            workload=WORKLOADS["A"], profile=profile)
        cluster.run(40_000.0, warmup_ns=4_000.0)
        return profile

    def test_every_pop_lands_in_exactly_one_kind_bucket(self, profiled_run):
        assert sum(s[0] for s in profiled_run.by_event_kind.values()) == \
            profiled_run.events_processed

    def test_handlers_are_a_subset_of_deliveries(self, profiled_run):
        """Every driven handler consumed one delivered message; messages
        delivered but not yet dispatched at cutoff stay unhandled."""
        deliveries = profiled_run.by_event_kind["msg_delivery"][0]
        handled = profiled_run.messages_handled
        assert 0 < handled <= deliveries
        # The replicated-write protocol exercises several handler types.
        assert set(profiled_run.by_msg_type) == {"INV", "ACK", "VAL"}

    def test_attribution_covers_loop_wall_within_5_percent(self,
                                                           profiled_run):
        loop = profiled_run.loop_wall_seconds
        attributed = profiled_run.attributed_wall_seconds
        assert loop > 0
        assert abs(attributed - loop) <= 0.05 * loop

    def test_tie_batches_and_depth_histogram_cover_all_pops(self,
                                                            profiled_run):
        assert sum(size * count for size, count
                   in profiled_run.tie_batch_hist.items()) == \
            profiled_run.events_processed
        assert sum(profiled_run.heap_depth_hist.values()) == \
            profiled_run.events_processed
