"""Tests for the NVM log, recovery algorithms, and the contract
predicates judged against a log's recovered image."""

from types import SimpleNamespace

import pytest

from repro.audit import (PreparedHistory, check_completed_writes_durable,
                         check_monotonic_reads, check_read_values_durable,
                         check_scope_writes_durable)
from repro.core.replica import ZERO_VERSION
from repro.obs.history import History, HistoryOpRecord, recovered_from_cluster
from repro.recovery.log import NvmLog
from repro.recovery.recovery import (
    recover_latest,
    recover_majority,
    recovery_divergence,
)

NODES = [0, 1, 2]


@pytest.fixture
def log():
    return NvmLog(NODES)


class TestNvmLog:
    def test_record_and_read_back(self, log):
        log.record(0, key=1, version=(1, 0), value="a")
        entry = log.durable_entry(0, 1)
        assert entry.value == "a"
        assert log.durable_entry(1, 1) is None

    def test_newer_version_wins(self, log):
        log.record(0, 1, (2, 0), "new")
        log.record(0, 1, (1, 0), "old-late-arrival")
        assert log.durable_entry(0, 1).value == "new"

    def test_scope_entries_staged_until_commit(self, log):
        log.record(0, 1, (1, 0), "scoped", scope_id=9)
        assert log.durable_entry(0, 1) is None       # partial scope
        log.commit_scope(0, 9)
        assert log.durable_entry(0, 1).value == "scoped"
        assert log.is_scope_committed(0, 9)

    def test_uncommitted_scope_does_not_clobber_older_commit(self, log):
        log.record(0, 1, (1, 0), "committed")
        log.record(0, 1, (2, 0), "partial", scope_id=5)
        # Crash before scope 5 commits: the old committed value survives.
        assert log.durable_entry(0, 1).value == "committed"

    def test_durable_keys(self, log):
        log.record(0, 1, (1, 0), "a")
        log.record(0, 2, (1, 0), "b", scope_id=3)
        assert log.durable_keys(0) == [1]

    def test_durable_version_default(self, log):
        assert log.durable_version(0, 99) == ZERO_VERSION


class TestRecovery:
    def test_latest_takes_max_across_nodes(self, log):
        log.record(0, 1, (1, 0), "old")
        log.record(1, 1, (2, 0), "new")
        recovered = recover_latest(log, NODES)
        assert recovered.value_of(1) == "new"
        assert recovered.version_of(1) == (2, 0)

    def test_latest_empty_log(self, log):
        recovered = recover_latest(log, NODES)
        assert len(recovered) == 0
        assert recovered.version_of(5) == ZERO_VERSION

    def test_majority_prefers_quorum_version(self, log):
        log.record(0, 1, (1, 0), "quorum")
        log.record(1, 1, (1, 0), "quorum")
        log.record(2, 1, (9, 0), "lone-unacked")
        recovered = recover_majority(log, NODES)
        assert recovered.value_of(1) == "quorum"

    def test_majority_falls_back_to_latest(self, log):
        log.record(0, 1, (1, 0), "a")
        log.record(1, 1, (2, 0), "b")
        recovered = recover_majority(log, NODES)
        assert recovered.value_of(1) == "b"

    def test_majority_of_newer_wins_over_minority(self, log):
        log.record(0, 1, (2, 0), "new")
        log.record(1, 1, (2, 0), "new")
        log.record(2, 1, (1, 0), "old")
        recovered = recover_majority(log, NODES)
        assert recovered.version_of(1) == (2, 0)

    def test_divergence_counts_distinct_versions(self, log):
        log.record(0, 1, (1, 0), "a")
        log.record(1, 1, (1, 0), "a")
        log.record(2, 1, (2, 0), "b")
        log.record(0, 2, (1, 0), "x")
        log.record(1, 2, (1, 0), "x")
        log.record(2, 2, (1, 0), "x")
        divergence = recovery_divergence(log, NODES)
        assert divergence[1] == 2
        assert divergence[2] == 1


def prepared(log, ops):
    """A history of ``(client, op, key, version, extras)`` operations,
    completed in order, judged against ``log``'s recovered image."""
    records = [
        HistoryOpRecord(index=index, client=client, session=0, node=0,
                        op=op, key=key, value=None, invoke_us=2.0 * index,
                        respond_us=2.0 * index + 1.0, version=version,
                        **extras)
        for index, (client, op, key, version, extras) in enumerate(ops)]
    cluster = SimpleNamespace(nvm_log=log,
                              config=SimpleNamespace(servers=len(NODES)))
    return PreparedHistory(History(meta={}, ops=records,
                                   recovered=recovered_from_cluster(cluster)))


class TestCheckers:
    def test_completed_writes_recovered_pass(self, log):
        log.record(0, 1, (3, 0), "v")
        prep = prepared(log, [(0, "write", 1, (3, 0), {})])
        assert check_completed_writes_durable(prep).ok

    def test_completed_writes_recovered_fail(self, log):
        log.record(0, 1, (1, 0), "v")
        prep = prepared(log, [(0, "write", 1, (5, 0), {})])
        result = check_completed_writes_durable(prep)
        assert not result.ok
        assert result.details[0]["rule"] == "lost-durable-write"

    def test_read_values_recovered_ignores_initial_reads(self, log):
        prep = prepared(log, [(0, "read", 1, ZERO_VERSION, {})])
        assert check_read_values_durable(prep).ok

    def test_read_values_recovered_fail(self, log):
        prep = prepared(log, [(0, "write", 1, (2, 0), {}),
                              (1, "read", 1, (2, 0), {})])
        result = check_read_values_durable(prep)
        assert not result.ok
        assert result.details[0]["rule"] == "lost-read-value"

    def test_scope_atomicity_committed_complete(self, log):
        log.record(0, 1, (1, 0), "a", scope_id=7)
        log.record(0, 2, (1, 0), "b", scope_id=7)
        log.commit_scope(0, 7)
        prep = prepared(log, [
            (0, "write", 1, (1, 0), {"scope_id": 7}),
            (0, "write", 2, (1, 0), {"scope_id": 7}),
            (0, "persist", None, None, {"scope_id": 7, "committed": True})])
        result = check_scope_writes_durable(prep)
        assert result.ok and result.checked == 2

    def test_scope_atomicity_partial_discarded(self, log):
        log.record(0, 1, (1, 0), "a", scope_id=7)
        # Crash before commit: scope is simply not recoverable — that is
        # legal (all-or-nothing), so the checker passes.
        prep = prepared(log, [(0, "write", 1, (1, 0), {"scope_id": 7}),
                              (0, "write", 2, (1, 0), {"scope_id": 7})])
        assert check_scope_writes_durable(prep).ok
        assert log.durable_entry(0, 1) is None

    def test_monotonic_reads_pass(self, log):
        prep = prepared(log, [(1, "write", 1, (1, 0), {}),
                              (1, "write", 1, (2, 0), {}),
                              (1, "write", 2, (1, 0), {}),
                              (0, "read", 1, (1, 0), {}),
                              (0, "read", 1, (2, 0), {}),
                              (0, "read", 2, (1, 0), {})])
        assert check_monotonic_reads(prep).ok

    def test_monotonic_reads_fail(self, log):
        prep = prepared(log, [(1, "write", 1, (1, 0), {}),
                              (1, "write", 1, (2, 0), {}),
                              (0, "read", 1, (2, 0), {}),
                              (0, "read", 1, (1, 0), {})])
        result = check_monotonic_reads(prep)
        assert not result.ok
        assert result.details[0]["rule"] == "monotonic-reads"
