"""Cell contract predicates: what each matrix cell owes beyond its
consistency row, judged over the history plus the recovered image.

Most predicates compare what clients observed (the history) with what
NVM recovery yielded after the run (``History.recovered``: the merged
latest-version image across every node's durable log, each node's own
image, and each node's durable scope commit markers).
:func:`checks_for_cell` is the one map from matrix cell to predicate
set, derived from the paper's Table 4 semantics; both the 5×5 audit
(:func:`repro.audit.audit_history`) and the post-fault validation
(:func:`repro.audit.validate_faulty_run`) use it:

* **strict** persists before the write is acknowledged anywhere, so it
  owes `completed_writes_durable` under every consistency model;
  **synchronous** persists inline too, but only the models whose write
  acknowledgment already waits for the full round (linearizable's
  follower ACKs, transactional's commit) tie the ack to durability —
  read-enforced/causal/eventual acknowledge after the local update, so
  their last writes may die with a crash.
* **read_enforced** only persists a version once somebody reads it, so
  it owes `read_values_durable` — and so does **synchronous** under
  causal/eventual consistency, where writes are acknowledged early but
  reads return only persisted versions.
* **scope** owes durability exactly for writes whose scope completed
  its Persist call (`scope_writes_durable`), in the merged image and at
  every node holding the scope's commit marker.
* every cell owes `recovered_no_phantom`: recovery may lose suffixes
  but must never invent versions nobody wrote.
* every non-transactional cell owes `monotonic_reads` within each
  client session (a crash-restart opens a new one); it needs no
  recovered image.  Transactional reads may legally observe a
  later-squashed attempt's write, so it is not owed there.

All predicates share the checkers' soundness contract: writes of
squashed transaction attempts, pending (crash-severed) operations, and
unattributable versions are excluded rather than guessed at.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.audit.checkers import CheckResult, PreparedHistory
from repro.core.replica import Version, ZERO_VERSION
from repro.obs.history import HistoryOpRecord

__all__ = ["DURABILITY_CHECKERS", "HISTORY_ONLY_CHECKS", "checks_for_cell",
           "check_completed_writes_durable", "check_read_values_durable",
           "check_scope_writes_durable", "check_recovered_no_phantom",
           "check_monotonic_reads"]

#: Consistency models whose write acknowledgment waits for the full
#: protocol round, which under synchronous (inline) persistency makes
#: the ack imply durability.
_ACK_IMPLIES_PERSIST = ("linearizable", "transactional")

#: Consistency models without invalidation rounds: under synchronous
#: persistency their reads return the *persisted* version, so every
#: observed value is recoverable.
_READS_RETURN_PERSISTED = ("causal", "eventual")

#: Cell predicates judged from the history alone: evaluated even when
#: the recovered image was not captured.
HISTORY_ONLY_CHECKS = frozenset({"monotonic_reads"})


def checks_for_cell(consistency: str, persistency: str) -> List[str]:
    """Contract predicate names owed by one matrix cell."""
    checks = ["recovered_no_phantom"]
    if persistency == "strict" or (persistency == "synchronous"
                                   and consistency in _ACK_IMPLIES_PERSIST):
        checks.append("completed_writes_durable")
    if persistency == "read_enforced" or (persistency == "synchronous"
                                          and consistency
                                          in _READS_RETURN_PERSISTED):
        checks.append("read_values_durable")
    if persistency == "scope":
        checks.append("scope_writes_durable")
    if consistency != "transactional":
        checks.append("monotonic_reads")
    return checks


def check_completed_writes_durable(prep: PreparedHistory) -> CheckResult:
    """Every acknowledged (and, for transactions, committed) write
    survived into the recovered image."""
    res = CheckResult("completed_writes_durable")
    for op in prep.completed_writes:
        if op.version is None or prep.write_effect(op) is not True:
            continue
        res.checked += 1
        version = tuple(op.version)
        if prep.recovered.get(op.key, ZERO_VERSION) < version:
            res.violate(
                "lost-durable-write",
                f"key {op.key}: acknowledged write {version} missing "
                f"from recovered state "
                f"{prep.recovered.get(op.key, ZERO_VERSION)}", (op,))
    return res


def check_read_values_durable(prep: PreparedHistory) -> CheckResult:
    """Every version a completed read returned was durable by then and
    stayed recoverable (reads of squashed-attempt writes are excluded:
    their durability was legitimately reverted with the abort)."""
    res = CheckResult("read_values_durable")
    excluded = 0
    for op in prep.completed_reads:
        if op.version is None:
            continue
        version = tuple(op.version)
        if version == ZERO_VERSION:
            continue
        if prep.observation_effect(op) is not True:
            excluded += 1
            continue
        res.checked += 1
        if prep.recovered.get(op.key, ZERO_VERSION) < version:
            res.violate(
                "lost-read-value",
                f"key {op.key}: observed version {version} missing from "
                f"recovered state "
                f"{prep.recovered.get(op.key, ZERO_VERSION)}", (op,))
    res.stats["excluded_observations"] = excluded
    return res


def check_scope_writes_durable(prep: PreparedHistory) -> CheckResult:
    """Every write belonging to a scope whose Persist call completed
    survived into the merged recovered image and into the image of
    every node holding that scope's commit marker (histories without
    recorded markers get the merged check only)."""
    res = CheckResult("scope_writes_durable")
    holders: Dict[int, List[int]] = {}
    images: Dict[int, Dict[int, Version]] = {}
    for node, scope_ids in (prep.history.recovered.get("scopes")
                            or {}).items():
        if scope_ids:
            images[int(node)] = prep.history.recovered_versions(int(node))
        for scope_id in scope_ids:
            holders.setdefault(scope_id, []).append(int(node))
    for op in prep.completed_writes:
        if op.scope_id is None or op.version is None:
            continue
        if (op.client, op.session, op.scope_id) not in prep.committed_scopes:
            continue
        if prep.write_effect(op) is not True:
            continue
        res.checked += 1
        version = tuple(op.version)
        targets = [("recovered state", prep.recovered)] + [
            (f"node {node}'s recovered image", images[node])
            for node in sorted(holders.get(op.scope_id, ()))]
        for where, image in targets:
            found = image.get(op.key, ZERO_VERSION)
            if found < version:
                res.violate(
                    "torn-scope",
                    f"key {op.key}: write {version} of completed scope "
                    f"{op.scope_id} missing from {where} {found}", (op,))
                break
    return res


def check_recovered_no_phantom(prep: PreparedHistory) -> CheckResult:
    """Recovery never yields a version no recorded write produced
    (keys touched by a version-unknown pending write are skipped: the
    severed write may legitimately be what recovery found)."""
    res = CheckResult("recovered_no_phantom")
    skipped = 0
    for key in sorted(prep.recovered):
        version = prep.recovered[key]
        if version == ZERO_VERSION:
            continue
        if key in prep.unknown_token_keys:
            skipped += 1
            continue
        res.checked += 1
        if (key, version) not in prep.writes_by_token:
            res.violate(
                "recovered-phantom",
                f"key {key}: recovered version {version} was never "
                f"written by any recorded operation")
    res.stats["skipped_keys"] = skipped
    return res


def check_monotonic_reads(prep: PreparedHistory) -> CheckResult:
    """Within each client session, per-key read versions never go
    backward (reads of unattributable or squashed versions excluded)."""
    res = CheckResult("monotonic_reads")
    last: Dict[Tuple[int, int, int], HistoryOpRecord] = {}
    excluded = 0
    for op in prep.completed_reads:
        if op.version is None:
            continue
        if prep.observation_effect(op) is not True:
            excluded += 1
            continue
        res.checked += 1
        slot = (op.client, op.session, op.key)
        previous = last.get(slot)
        if previous is not None and tuple(op.version) < tuple(
                previous.version):
            res.violate(
                "monotonic-reads",
                f"client {op.client} session {op.session} key {op.key}: "
                f"read {tuple(op.version)} after having read "
                f"{tuple(previous.version)}", (previous, op))
        last[slot] = op
    res.stats["excluded_observations"] = excluded
    return res


DURABILITY_CHECKERS = {
    "completed_writes_durable": check_completed_writes_durable,
    "read_values_durable": check_read_values_durable,
    "scope_writes_durable": check_scope_writes_durable,
    "recovered_no_phantom": check_recovered_no_phantom,
    "monotonic_reads": check_monotonic_reads,
}
