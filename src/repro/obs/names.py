"""The unified metric name table for the network layers.

``repro.net`` (the simulator), ``repro.netd`` (the real daemon), and the
chaos proxy emit overlapping telemetry; this module is the single
authority on what a network metric is called and what it means:

* :data:`METRIC_NAME_TABLE` — every canonical ``net.*`` / ``netd.*`` /
  ``chaos.*`` / ``chase.*`` / ``sync.*`` instrument name with its kind
  and meaning.  Wildcard entries (``netd.rounds.*``) cover per-key
  families.  A test asserts that every metric the code emits appears
  here, so the table cannot rot;
* :data:`DEPRECATED_METRICS` — renamed instruments.
  :class:`~repro.obs.metrics.MetricsRegistry` resolves old names to
  their replacements on access, so ``registry.counter(old)`` and
  ``registry.counter(new)`` are the *same* instrument and dashboards
  keyed on either name agree during a migration window;
* :func:`metric_documented` / :func:`undocumented` — the lookup helpers
  the completeness test (and ``scripts/selfcheck.py``) use.

Solver-side metrics (``solve.*``, ``certain.*``) are named by their
result objects and documented in ``docs/api.md``; this table covers the
distributed namespaces, where the simulator and the daemon must agree on
vocabulary to be comparable, plus the ``chase.*`` incremental-chase
counters and the ``sync.*`` round instruments shared by every sync stack.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "METRIC_NAME_TABLE",
    "DEPRECATED_METRICS",
    "canonical_metric_name",
    "metric_documented",
    "undocumented",
]

#: Canonical network-layer metric names: name → (kind, meaning).
#: A trailing ``.*`` makes an entry a family: it documents every name
#: sharing the prefix (``netd.rounds.applied``, ``netd.lag.peer-a``, ...).
METRIC_NAME_TABLE: dict[str, tuple[str, str]] = {
    # -- net.* : the deterministic simulator (transport + simulator) ----
    "net.sent": ("counter", "messages handed to the simulated transport"),
    "net.delivered": ("counter", "messages delivered to their recipient"),
    "net.dropped": ("counter", "messages lost to the seeded drop fault"),
    "net.partition_dropped": ("counter", "messages lost to an active partition"),
    "net.duplicated": ("counter", "messages delivered twice by the dup fault"),
    "net.reordered": ("counter", "messages delivered out of order"),
    "net.delayed": ("counter", "messages held back by the delay fault"),
    "net.facts_sent": ("counter", "facts on the wire (delta-aware payload size)"),
    "net.queue_evicted": ("counter", "pending messages evicted by the queue bound"),
    "net.partitions": ("counter", "partition events applied"),
    "net.heals": ("counter", "partition heals applied"),
    "net.delta_applied": ("counter", "delta payloads applied by a peer"),
    "net.delta_fallbacks": ("counter", "chain-broken deltas resent as snapshots"),
    "net.anti_entropy": ("counter", "anti-entropy repair publishes"),
    "net.chain_broken": ("counter", "delta-chain breaks observed at peers"),
    "net.forwarded": ("counter", "stamped snapshots relayed down a topology link"),
    "net.score.*": ("gauge", "per-link peer health score (sender->recipient)"),
    "net.publish_apply_ms": ("histogram", "end-to-end publish→apply latency, ms"),
    # -- netd.* : the real asyncio daemon + publisher client ------------
    "netd.connections": ("counter", "connections accepted by the daemon"),
    "netd.protocol_errors": ("counter", "connections dropped for protocol errors"),
    "netd.drained_rounds": ("counter", "queued rounds completed during drain"),
    "netd.rounds.*": ("counter", "ingest rounds by verdict (applied/stale/...)"),
    "netd.reconnects": ("counter", "publisher reconnect attempts that re-dialed"),
    "netd.queue_depth": ("gauge", "current pending-queue depth (client or peer)"),
    "netd.queue_peak": ("gauge", "high-water pending-queue depth"),
    "netd.queue_evicted": ("counter", "pending entries evicted by the queue bound"),
    "netd.sent_snapshots": ("counter", "full snapshots put on the wire"),
    "netd.sent_deltas": ("counter", "delta payloads put on the wire"),
    "netd.ack_timeouts": ("counter", "publishes whose ACK never arrived in time"),
    "netd.ack_unmatched": ("counter", "ACKs discarded by stamp mismatch"),
    "netd.delta_fallbacks": ("counter", "chain-broken deltas resent as snapshots"),
    "netd.chain_broken": ("counter", "delta-chain breaks observed by the daemon"),
    "netd.anti_entropy": ("counter", "anti-entropy repair publishes"),
    "netd.forwarded": ("counter", "applied rounds enqueued for relay forwarding"),
    "netd.score.*": ("gauge", "per-link peer health score (sender->recipient)"),
    "netd.lag.*": ("gauge", "per-peer watermark lag (publishes not yet applied)"),
    "netd.publish_apply_ms": ("histogram", "end-to-end publish→apply latency, ms"),
    # -- chase.* : the incremental (semi-naive) chase on the sync path --
    "chase.incremental": ("counter", "solve rounds served by the warm incremental pipeline"),
    "chase.retracted": ("counter", "derived facts withdrawn by provenance-guided retraction"),
    "chase.refired": ("counter", "chase steps re-fired by semi-naive delta matching"),
    "chase.fallback": ("counter", "incremental rounds that fell back to a from-scratch chase"),
    # -- sync.* : SyncSession rounds (one registry per session caller) ---
    "sync.rounds": ("counter", "sync rounds that ran the solver (applied or not)"),
    "sync.added": ("counter", "facts imported by sync rounds"),
    "sync.retracted": ("counter", "imported facts retracted by sync rounds"),
    "sync.attempts": ("counter", "solve attempts across sync rounds"),
    "sync.retries": ("counter", "budget-exhausted attempts re-run by the retry policy"),
    "sync.stale": ("counter", "stamped snapshots or deltas skipped as stale"),
    "sync.delta_rounds": ("counter", "delta payloads whose chain matched"),
    "sync.delta_broken": ("counter", "delta payloads rejected as chain-broken"),
    "sync.state_size": ("gauge", "materialized target facts after the last round"),
    "sync.status": ("label", "the last round's SolveStatus value"),
    # -- chaos.* : the socket-level fault-injection proxy ---------------
    "chaos.connections": ("counter", "connections the proxy accepted and linked"),
    "chaos.refused": ("counter", "connections refused (severed/partitioned)"),
    "chaos.forwarded": ("counter", "data frames forwarded unharmed"),
    "chaos.dropped": ("counter", "data frames swallowed by the drop fault"),
    "chaos.delayed": ("counter", "data frames held back by the delay fault"),
    "chaos.reordered": ("counter", "data frames forwarded out of order"),
    "chaos.duplicated": ("counter", "data frames forwarded twice"),
    "chaos.severed": ("counter", "frames lost to a mid-stream connection kill"),
}

#: Renamed instruments: old name → canonical name.  The registry resolves
#: these on access, so both names address one instrument.
DEPRECATED_METRICS: dict[str, str] = {
    # PR 8: pluralized to match netd.delta_fallbacks (one vocabulary for
    # the simulator and the daemon).
    "net.delta_fallback": "net.delta_fallbacks",
}


def canonical_metric_name(name: str) -> str:
    """Resolve a possibly-deprecated metric name to its canonical form."""
    return DEPRECATED_METRICS.get(name, name)


def metric_documented(name: str) -> bool:
    """True when ``name`` (canonicalized) appears in the table.

    Names outside the ``net.`` / ``netd.`` / ``chaos.`` / ``chase.`` /
    ``sync.`` namespaces are not this table's business and always pass.
    """
    name = canonical_metric_name(name)
    if not name.startswith(("net.", "netd.", "chaos.", "chase.", "sync.")):
        return True
    if name in METRIC_NAME_TABLE:
        return True
    return any(
        name.startswith(entry[:-1])
        for entry in METRIC_NAME_TABLE
        if entry.endswith(".*")
    )


def undocumented(names: Iterable[str]) -> list[str]:
    """The subset of ``names`` missing from the table, sorted."""
    return sorted({name for name in names if not metric_documented(name)})
