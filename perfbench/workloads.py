"""The round benchmark's three workloads.

Each workload is a closed loop with one caller: it sends the next round
only after the previous round's verdict is back.  All inputs come from
the workload seed; the program only sees the generated instances.

* ``delta-journaled`` -- an in-process ``SyncSession`` with a
  ``SessionJournal``, fed fixed-size ``sync_delta`` rounds by a
  steady-state churn feed.  The production warm path: the O(|state|)
  work around the incremental chase and the full-state journal commits
  dominate; the full retraction scan and netd do nothing.
* ``snapshot-netd`` -- a loopback ``SyncDaemon`` with one journaled
  hosted peer, fed full snapshots by a ``PublisherClient`` in its
  default snapshot mode; every ``publish`` awaits its ACK.  The sync
  layer the other way round: large retraction sets through the full
  ``_still_justified`` scan, the frame codec and the daemon's
  queue/``to_thread`` path.
* ``cold-figure3`` -- one-shot ``solve()`` decisions over a fixed seeded
  batch of ``(setting, I, J)``.  The scratch chase, block decomposition,
  block embedding and classification do all the work; sync, journal,
  netd and the incremental solver do none.

A run returns a :class:`RunResult`; in a traced run every other round
runs with the layer wrappers of :mod:`layers` installed, the rest run the
unmodified code.
"""

from __future__ import annotations

import asyncio
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro.solver.exists_solution as exists_solution
from repro.core.instance import Instance
from repro.core.setting import PDESetting
from repro.netd import PublisherClient, SyncDaemon
from repro.runtime.journal import SessionJournal
from repro.sync import SyncSession
from repro.workloads import (
    consistent_pair,
    generate_genomics_data,
    genomics_setting,
    random_full_st_setting,
    random_lav_setting,
    random_source,
)

from churn import SteadyChurnFeed
from layers import LayerTracer
from oracle import matches_scratch_solve

#: Fewest set-ups per run; ``setup_s`` is the median of a run's set-ups.
MIN_SETUPS = 3


@dataclass
class RunResult:
    """What one workload run measured and checked."""

    size: str
    latencies_ms: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: Known program defects the run observed but does not count as failed.
    findings: list[str] = field(default_factory=list)
    resume_s: float | None = None
    journal_bytes_per_round: float | None = None
    #: Traced-run extras: per-round netd frame counts, ...
    counts: dict[str, float] = field(default_factory=dict)

    def round(self, latency_s: float, traced: bool, failure: str | None) -> None:
        self.attempted += 1
        self.latencies_ms.append(latency_s * 1000.0)
        self.traced.append(traced)
        if failure is not None:
            self.failures.append(failure)


def _traced_call(tracer: LayerTracer | None, traced: bool, call):
    """Run ``call()`` (with the layer wrappers when ``traced``); time it."""
    if traced:
        tracer.install()
    try:
        started = time.perf_counter()
        value = call()
        return value, time.perf_counter() - started
    finally:
        if traced:
            tracer.uninstall()


def _check_session(
    setting: PDESetting,
    journal_path: Path,
    live: SyncSession,
    feed: SteadyChurnFeed,
    run: RunResult,
    tracer: LayerTracer | None,
) -> None:
    """Check the final synced state, then time and check ``resume``.

    The live session's final state must be hom-equivalent to a scratch
    ``solve()`` of the last snapshot.  The resumed session must hold the
    live session's state, watermark and delta base, and the next
    ``sync_delta`` must apply on it and yield a solution.
    """
    last = feed.snapshot()
    problem = matches_scratch_solve(setting, last, live.pinned, live.state())
    if problem is not None:
        run.failures.append(problem)

    resumed, run.resume_s = _traced_call(
        tracer, tracer is not None, lambda: SyncSession.resume(SessionJournal(journal_path))
    )
    if tracer is not None:
        load = tracer.layers.pop("runtime.journal.load")
        tracer.root_ms -= load.outer_ms  # keep the round accounting to rounds
        run.counts["runtime.journal.load_ms"] = load.total_ms
    if resumed.state() != live.state():
        run.failures.append("resumed state differs from the live state")
    elif resumed.last_stamp != live.last_stamp:
        run.failures.append(f"resumed watermark {resumed.last_stamp} != live {live.last_stamp}")
    elif resumed.last_source != last:
        run.failures.append("resumed delta base differs from the last snapshot")
    else:
        step = feed.next_round()
        outcome = resumed.sync_delta(
            step.added, step.withdrawn, base=step.base, stamp=step.stamp
        )
        run.attempted += 1
        failure = _round_failure(step, outcome, feed)
        if failure is None and not setting.is_solution(step.snapshot, resumed.pinned, outcome.state):
            failure = f"round {step.stamp} after resume: state is not a solution"
        if failure is not None:
            run.failures.append(failure)
            return
        # Known defect, reported on every run rather than counted: the
        # resumed session's solver restarts its null factory at 0, so its
        # first rebuild can reuse the labels of restored nulls.
        divergence = matches_scratch_solve(setting, step.snapshot, resumed.pinned, outcome.state)
        if divergence is not None:
            run.findings.append(f"round {step.stamp} after resume: {divergence}")


def _round_failure(step, outcome, feed: SteadyChurnFeed) -> str | None:
    if not outcome.ok or outcome.stale:
        return f"round {step.stamp}: {outcome.reason or outcome.status.value}"
    if len(outcome.state) != feed.size:
        # Genomics with nothing pinned: one target fact per source fact.
        return f"round {step.stamp}: state has {len(outcome.state)} facts, expected {feed.size}"
    return None


def _episodes(
    seed: int,
    seconds: float,
    tmp: Path,
    tracer: LayerTracer | None,
    run: RunResult,
    episode,
    proteins: int,
    swap: int,
) -> RunResult:
    """Run whole sync episodes for about ``seconds``, then check the session.

    An episode is one session lifetime on a fresh journal: ``episode(feed,
    workdir, run, tracer)`` times its set-up (through the cold full sync),
    records its fixed number of rounds on ``run`` and returns ``(session,
    journal path, journal size after set-up)``.

    The journal re-reads its whole file on every commit, so round cost
    grows with history: late rounds of an episode cost more than early
    ones.  Restarting the journal keeps the measured process
    stationary, and running whole episodes only gives every run the same
    mix of early and late rounds, whatever its speed.  A new episode starts
    while at least half an episode's time is left, so a run ends within
    half an episode of ``seconds``.  The last episode is kept for the
    final-state and resume checks.
    """
    kept = None
    grown = 0
    deadline = time.perf_counter() + seconds
    index = 0
    last = 0.0
    while time.perf_counter() + last / 2 < deadline or len(run.setup_s) < MIN_SETUPS:
        started = time.perf_counter()
        feed = SteadyChurnFeed(proteins, swap, seed * 1000 + index)
        workdir = tmp / f"episode-{index}"
        workdir.mkdir()
        session, journal_path, committed = episode(feed, workdir, run, tracer)
        grown += journal_path.stat().st_size - committed
        if kept is not None:
            shutil.rmtree(kept[2].parent)
        kept = (session, feed, journal_path)
        last = time.perf_counter() - started
        index += 1
    run.journal_bytes_per_round = grown / run.attempted
    session, feed, journal_path = kept
    _check_session(genomics_setting(), journal_path, session, feed, run, tracer)
    return run


# ---------------------------------------------------------------------------
# delta-journaled
# ---------------------------------------------------------------------------

DELTA_PROTEINS = 640  # |I| = 1920 source facts
DELTA_SWAP = 9  # 9 withdrawn + 9 added entries: a 54-fact delta
DELTA_ROUNDS = 20  # delta rounds per journal


def delta_journaled(seed: int, seconds: float, tmp: Path, tracer: LayerTracer | None) -> RunResult:
    run = RunResult(
        size=f"|I|={3 * DELTA_PROTEINS} facts, delta={6 * DELTA_SWAP} facts/round, "
             f"{DELTA_ROUNDS} rounds per journal"
    )
    return _episodes(seed, seconds, tmp, tracer, run, _delta_episode, DELTA_PROTEINS, DELTA_SWAP)


def _delta_episode(feed, workdir: Path, run: RunResult, tracer):
    first = feed.next_round()
    journal_path = workdir / "session.journal"
    started = time.perf_counter()
    session = SyncSession(genomics_setting(), journal=SessionJournal(journal_path))
    outcome = session.sync(first.snapshot, stamp=first.stamp)
    run.setup_s.append(time.perf_counter() - started)
    if not outcome.ok:
        raise RuntimeError(f"cold full sync failed: {outcome.reason}")
    committed = journal_path.stat().st_size
    for _ in range(DELTA_ROUNDS):
        step = feed.next_round()
        traced = tracer is not None and run.attempted % 2 == 1
        outcome, latency = _traced_call(
            tracer, traced,
            lambda: session.sync_delta(step.added, step.withdrawn, base=step.base, stamp=step.stamp),
        )
        run.round(latency, traced, _round_failure(step, outcome, feed))
    return session, journal_path, committed


# ---------------------------------------------------------------------------
# snapshot-netd
# ---------------------------------------------------------------------------

NETD_PROTEINS = 100  # |I| = 300 source facts
NETD_SWAP = 8  # 8% of the entries withdrawn (and replaced) per round
NETD_ROUNDS = 40  # snapshot rounds per daemon journal
PEER = "uni"


def snapshot_netd(seed: int, seconds: float, tmp: Path, tracer: LayerTracer | None) -> RunResult:
    run = RunResult(
        size=f"|I|={3 * NETD_PROTEINS} facts, churn={NETD_SWAP / NETD_PROTEINS:.0%} of "
             f"entries/round, {NETD_ROUNDS} rounds per journal"
    )
    return _episodes(
        seed, seconds, tmp, tracer, run,
        lambda *args: asyncio.run(_netd_episode(*args)),
        NETD_PROTEINS, NETD_SWAP,
    )


async def _netd_episode(feed, workdir: Path, run: RunResult, tracer):
    """One daemon lifetime: start, cold full sync, then the rounds."""
    first = feed.next_round()
    started = time.perf_counter()
    daemon = SyncDaemon(genomics_setting(), peers=[PEER], journal_dir=workdir)
    await daemon.start()
    client = PublisherClient(daemon.address, peer=PEER)
    try:
        await client.start()
        verdict = await client.publish(first.stamp, first.snapshot)
        run.setup_s.append(time.perf_counter() - started)
        if verdict != "applied":
            raise RuntimeError(f"cold full sync over netd answered {verdict!r}")
        journal_path = workdir / f"{PEER}.journal"
        committed = journal_path.stat().st_size
        for _ in range(NETD_ROUNDS):
            step = feed.next_round()
            traced = tracer is not None and run.attempted % 2 == 1
            received = daemon.stats["frames_received"]
            if traced:
                tracer.install()
            try:
                started = time.perf_counter()
                verdict = await client.publish(step.stamp, step.snapshot)
                latency = time.perf_counter() - started
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                run.counts["netd.daemon.frames_received"] = (
                    run.counts.get("netd.daemon.frames_received", 0)
                    + daemon.stats["frames_received"] - received
                )
            if verdict != "applied":
                failure = f"round {step.stamp}: daemon answered {verdict!r}"
            elif len(daemon.peer_state(PEER)) != feed.size:
                failure = f"round {step.stamp}: hosted state has the wrong size"
            else:
                failure = None
            run.round(latency, traced, failure)
        return daemon.hosts[PEER].session, journal_path, committed
    finally:
        await client.close()
        await daemon.stop()


# ---------------------------------------------------------------------------
# cold-figure3
# ---------------------------------------------------------------------------

#: ``(setting generator, setting seed, instances, facts per relation)`` of
#: the large random decisions, over 64 constants.  Their ``I_can`` keeps
#: nulls and splits into blocks (FULL-2 about 35, LAV-1 about 70, LAV-3
#: about 100).
LARGE = (
    (random_full_st_setting, 2, 1, 64),
    (random_lav_setting, 1, 1, 64),
    (random_lav_setting, 3, 8, 48),
    (random_lav_setting, 3, 8, 56),
)
#: Small random settings (4 facts per relation), whose decisions are
#: cross-checked against the complete valuation search.
SMALL = tuple(
    (make, seed) for make in (random_lav_setting, random_full_st_setting) for seed in (0, 1)
)
#: Genomics instances, by protein count.
GENOMICS_PROTEINS = (300, 450)
#: Batch loads per run; ``setup_s`` is their median.
BATCH_LOADS = 5


@dataclass
class BatchItem:
    label: str
    setting: PDESetting
    source: Instance
    target: Instance
    small: bool = False


def load_batch(seed: int) -> list[BatchItem]:
    """The fixed seeded batch of ``(setting, I, J)`` decisions.

    Sorted by cost, the batch of 24 is three groups of eight: light (the
    small settings, FULL-2, LAV-1, genomics; under 300 ms), mid (LAV-3 at
    48 facts per relation; 350-500 ms) and heavy (LAV-3 at 56; 600-750
    ms).  So the median falls in the middle of the mid group and the tail
    inside the heavy group, never on an edge between groups of different
    cost.  Light solves stay out of the median on purpose: on a shared
    machine their time swings far more with the machine's state than heavy
    solves' does.
    """
    rng = random.Random(f"cold-figure3:{seed}")
    batch: list[BatchItem] = []
    genomics = genomics_setting()
    for proteins in GENOMICS_PROTEINS:
        source, target = generate_genomics_data(proteins=proteins, seed=rng.randrange(1 << 30))
        batch.append(BatchItem(f"genomics-{proteins}.{len(batch)}", genomics, source, target))
    for make, setting_seed, instances, facts in LARGE:
        setting = make(seed=setting_seed)
        for _ in range(instances):
            source = random_source(
                setting, domain_size=64, facts_per_relation=facts, seed=rng.randrange(1 << 30)
            )
            batch.append(BatchItem(f"{setting.name}.{len(batch)}", setting, source, Instance()))
    for make, setting_seed in SMALL:
        setting = make(seed=setting_seed)
        source, target = consistent_pair(
            setting, domain_size=4, facts_per_relation=4, seed=rng.randrange(1 << 30)
        )
        batch.append(
            BatchItem(f"small-{setting.name}.{len(batch)}", setting, source, target, small=True)
        )
    return batch


def cold_figure3(seed: int, seconds: float, tmp: Path, tracer: LayerTracer | None) -> RunResult:
    loads = []
    for _ in range(BATCH_LOADS):
        started = time.perf_counter()
        batch = load_batch(seed)
        loads.append(time.perf_counter() - started)
    run = RunResult(
        size=f"{len(batch)} decisions per batch, |I| up to "
             f"{max(len(item.source) for item in batch)} facts",
        setup_s=loads,
    )

    decisions: dict[str, set[bool]] = {item.label: set() for item in batch}
    cycle = 0
    deadline = time.perf_counter() + seconds
    last = 0.0
    # Whole batch cycles only, so every run weighs every item equally; a
    # new cycle starts while at least half a cycle's time is left.
    while time.perf_counter() + last / 2 < deadline:
        started = time.perf_counter()
        for position, item in enumerate(batch):
            # Each item alternates between traced and untraced cycles.
            traced = tracer is not None and (cycle + position) % 2 == 1
            result, latency = _traced_call(
                tracer, traced,
                lambda: exists_solution.solve(item.setting, item.source, item.target),
            )
            failure = None
            if not result.decided:
                failure = f"{item.label}: solve degraded ({result.reason})"
            elif result.exists and not item.setting.is_solution(
                item.source, item.target, result.solution
            ):
                failure = f"{item.label}: witness is not a solution"
            decisions[item.label].add(result.exists)
            run.round(latency, traced, failure)
        cycle += 1
        last = time.perf_counter() - started

    for item in batch:
        if len(decisions[item.label]) > 1:
            run.failures.append(f"{item.label}: decision changed between cycles")
        elif item.small:
            reference = exists_solution.solve(
                item.setting, item.source, item.target, method="valuation"
            )
            if not reference.decided or {reference.exists} != decisions[item.label]:
                run.failures.append(
                    f"{item.label}: Figure 3 says {decisions[item.label]}, "
                    f"valuation search says {reference.exists}"
                )
    return run


WORKLOADS = {
    "delta-journaled": delta_journaled,
    "snapshot-netd": snapshot_netd,
    "cold-figure3": cold_figure3,
}
