"""Run simulator scenarios against real daemons over real sockets.

:func:`run_scenario_netd` takes the *same* :class:`~repro.net.Scenario`
values the in-memory :class:`~repro.net.NetworkSimulator` executes and
replays them against live machinery, with one runner for every scenario:
a star is just its :attr:`~repro.net.Scenario.relay_links`
(``publisher → peer``), a declared topology adds relay hops.

* Every peer runs in its own :class:`~repro.netd.SyncDaemon` on a unix
  socket.  Relay links are the daemons' own relay subscriptions (an
  applied round is pushed to the downstream daemon over the frame
  protocol), so a 3-hop chain exchanges state over three real socket
  connections.
* Under chaos, every link runs through a :class:`~repro.netd.ChaosProxy`
  carrying that link's seeded :class:`~repro.runtime.FaultSchedule`.
* One :class:`~repro.netd.PublisherClient` per first-hop link walks the
  scenario's publish timeline (scaled from virtual seconds to wall clock
  by ``time_scale``).

Control events map one-to-one: :class:`~repro.net.Partition` /
:class:`~repro.net.Heal` partition and heal the proxies of the links a
partition severs; :class:`~repro.net.Crash` flushes the peer's flight
recorder (:meth:`~repro.netd.SyncDaemon.crash_peer`, which writes
``<peer>.postmortem.jsonl``) and then aborts its daemon — ``kill -9`` —
and :class:`~repro.net.Restart` boots a fresh daemon on the same
journals and socket path; :class:`~repro.net.BumpEpoch` bumps the stamp
epoch and re-baselines every client's delta chain.

After the timeline drains and relay forwards settle, the harness runs
the same bounded, path-aware **anti-entropy** repair the simulator runs:
a lagging reachable peer is re-offered the latest snapshot over a clean
connection (no proxy) from its healthiest caught-up upstream (the
publisher, on a star).  Reachability is
:func:`~repro.net.scenarios.relay_reachable`, the walk the simulator
and the scenario linter use.  The final states are then judged with the
very same transport-independent :func:`~repro.net.check_convergence`
oracle.  That shared oracle is the point: a scenario that converges in
simulation must converge over real sockets, and the chaos integration
tests additionally assert the final states *agree*
(:func:`~repro.net.states_agree`) between the two runs.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.instance import Instance
from repro.net.scenarios import (
    BumpEpoch,
    Crash,
    Heal,
    Partition,
    Restart,
    Scenario,
    connected,
    relay_reachable,
)
from repro.net.scoring import PeerScorer
from repro.net.simulator import ConvergenceReport, check_convergence
from repro.netd.chaos import ChaosProxy
from repro.netd.client import PublisherClient
from repro.netd.daemon import SyncDaemon
from repro.obs.exporters import write_trace_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.runtime.retry import RetryPolicy
from repro.sync.session import Stamp

__all__ = ["NetdReport", "run_scenario_netd"]

#: Tie-break ranks matching the simulator: control events before
#: publishes at the same timeline instant.
_CONTROL, _PUBLISH = 0, 1


@dataclass
class NetdReport:
    """Everything one real-socket scenario run produced.

    The socket twin of :class:`~repro.net.SimulationReport`: the same
    identifying fields, a convergence verdict from the same oracle, the
    final per-peer states (so tests can compare them against a
    simulator run of the same scenario), and merged ``netd.*`` /
    ``chaos.*`` counters.
    """

    scenario: str
    seed: int
    published: int
    final_stamp: Stamp | None
    states: dict[str, Instance]
    unreachable: list[str]
    stats: dict[str, int]
    convergence: ConvergenceReport | None = None
    drained: bool = True
    log: list[str] = field(repr=False, default_factory=list)
    trace_files: dict[str, Path] = field(default_factory=dict)
    postmortems: list[Path] = field(default_factory=list)
    #: Per-link peer scores (``"sender->recipient"``) merged from every
    #: daemon's scorer plus the publisher's own first-hop links.
    scores: dict[str, float] = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.convergence is not None and self.convergence.converged

    @property
    def lag(self) -> dict[str, int]:
        """Per-peer watermark lag at the end of the run (0 = caught up)."""
        return dict(self.convergence.lag) if self.convergence is not None else {}


def run_scenario_netd(
    scenario: Scenario,
    deltas: bool = False,
    journal_dir: str | Path | None = None,
    time_scale: float = 0.02,
    use_chaos: bool = True,
    max_queue: int = 32,
    ack_timeout: float = 0.3,
    anti_entropy_limit: int = 8,
    node_cap: int | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    trace_dir: str | Path | None = None,
) -> NetdReport:
    """Execute ``scenario`` over real sockets; blocking wrapper.

    Star and relay-topology scenarios run the same way: one daemon per
    peer on a unix socket, relay hops as daemon-to-daemon links, and a
    :class:`~repro.net.Crash` as that peer's ``crash_peer`` post-mortem
    followed by an ``abort()`` of its daemon.

    Args:
        scenario: the same scenario value the simulator runs.
        deltas: ship incremental payloads when they beat the snapshot.
        journal_dir: journal root; each peer's daemon journals (and
            writes its post-mortems) under ``journal_dir/<peer>``.  A
            temp dir when None, removed after the run.
        time_scale: wall-clock seconds per virtual scenario second.
        use_chaos: route each link through a fault-injecting
            :class:`~repro.netd.ChaosProxy`; False connects directly
            (a clean-network baseline, also used by the benchmarks).
        max_queue: bound for client pending queues and daemon queues.
        ack_timeout: per-message ACK wait before the client moves on.
        anti_entropy_limit: bounded repair rounds after the timeline.
        node_cap: optional per-round node cap on each daemon's budgets.
        tracer / metrics: optional shared :mod:`repro.obs` sinks.
        trace_dir: when set, the run records one distributed-tracing
            lane per component — ``publisher.jsonl``, ``daemon.jsonl``,
            and (under chaos) ``chaos.jsonl`` are written there for
            :func:`repro.obs.stitch`; overrides ``tracer``.
    """
    return asyncio.run(
        _run(
            scenario,
            deltas=deltas,
            journal_dir=journal_dir,
            time_scale=time_scale,
            use_chaos=use_chaos,
            max_queue=max_queue,
            ack_timeout=ack_timeout,
            anti_entropy_limit=anti_entropy_limit,
            node_cap=node_cap,
            tracer=tracer if tracer is not None else NULL_TRACER,
            metrics=metrics,
            trace_dir=trace_dir,
        )
    )


async def _run(
    scenario: Scenario,
    deltas: bool,
    journal_dir: str | Path | None,
    time_scale: float,
    use_chaos: bool,
    max_queue: int,
    ack_timeout: float,
    anti_entropy_limit: int,
    node_cap: int | None,
    tracer: Tracer,
    metrics: MetricsRegistry | None,
    trace_dir: str | Path | None = None,
) -> NetdReport:
    owns_journal_dir = journal_dir is None
    if owns_journal_dir:
        journal_dir = tempfile.mkdtemp(prefix=f"repro-netd-{scenario.name}-")
    journal_dir = Path(journal_dir)
    journal_dir.mkdir(parents=True, exist_ok=True)
    # Unix socket paths live in their own short-lived directory: journal
    # dirs (pytest tmp paths) can exceed the ~100-char sun_path limit.
    socket_dir = Path(tempfile.mkdtemp(prefix="repro-mesh-"))
    log: list[str] = []
    virtual_now = 0.0

    lane_tracers: dict[str, Tracer] = {}
    if trace_dir is not None:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        lane_tracers["publisher"] = Tracer()
        lane_tracers["daemon"] = Tracer()
        if use_chaos:
            lane_tracers["chaos"] = Tracer()
    publisher_tracer = lane_tracers.get("publisher", tracer)
    daemon_tracer = lane_tracers.get("daemon", tracer)
    chaos_tracer = lane_tracers.get("chaos", tracer)

    def note(text: str) -> None:
        log.append(f"t={virtual_now:07.3f} {text}")

    feed = scenario.publisher
    links = scenario.relay_links
    socket_of = {peer: str(socket_dir / f"{peer}.sock") for peer in scenario.peers}

    proxies: dict[tuple[str, str], ChaosProxy] = {}
    daemons: dict[str, SyncDaemon] = {}
    clients: dict[str, PublisherClient] = {}
    crashed: set[str] = set()
    groups: tuple[frozenset[str], ...] | None = None
    scorer = PeerScorer(metrics=metrics, prefix="netd")
    postmortems: list[Path] = []

    def link_address(sender: str, recipient: str):
        proxy = proxies.get((sender, recipient))
        return proxy.address if proxy is not None else socket_of[recipient]

    def relay_config(peer: str) -> dict[str, list[tuple[str, object]]]:
        downstream = [
            (link.recipient, link_address(peer, link.recipient))
            for link in scenario.downstream(peer, feed)
        ]
        return {peer: downstream} if downstream else {}

    async def boot_daemon(peer: str) -> SyncDaemon:
        path = Path(socket_of[peer])
        if path.exists():
            # A previous incarnation's socket file; the new server must
            # bind the same address relay pumps keep dialing.
            path.unlink()
        daemon = SyncDaemon(
            scenario.setting,
            [peer],
            listen=socket_of[peer],
            journal_dir=journal_dir / peer,
            pinned={peer: scenario.pinned[peer]} if peer in scenario.pinned else None,
            node_cap=node_cap,
            heartbeat_interval=5.0,
            idle_timeout=60.0,
            max_queue=max_queue,
            tracer=daemon_tracer,
            metrics=metrics,
            relays=relay_config(peer),
        )
        await daemon.start()
        daemons[peer] = daemon
        return daemon

    try:
        # Chaos proxies first: relay configs point at them.  Every link
        # gets one under chaos (schedule may be None — the proxy still
        # enforces partitions); clean runs dial daemons directly.
        if use_chaos:
            for link in links:
                proxy = ChaosProxy(
                    upstream=socket_of[link.recipient],
                    schedule=scenario.faults.get((link.sender, link.recipient)),
                    latency=scenario.latency,
                    reorder_delay=scenario.reorder_delay,
                    time_scale=time_scale,
                    tracer=chaos_tracer,
                    metrics=metrics,
                )
                await proxy.start()
                proxies[(link.sender, link.recipient)] = proxy
        for peer in scenario.peers:
            await boot_daemon(peer)
            note(f"daemon {peer} serving {socket_of[peer]}")
        for link in scenario.downstream(feed, feed):
            client = PublisherClient(
                link_address(feed, link.recipient),
                link.recipient,
                sender=feed,
                deltas=deltas,
                retry=RetryPolicy(
                    max_attempts=3,
                    base_delay=0.02,
                    max_delay=0.1,
                    seed=scenario.seed,
                ),
                max_queue=max_queue,
                ack_timeout=ack_timeout,
                heartbeat_interval=1.0,
                tracer=publisher_tracer,
                metrics=metrics,
            )
            await client.start()
            clients[link.recipient] = client

        # ---- the timeline, in simulator order
        timeline: list[tuple[float, int, int, object]] = []
        order = 0
        for index in range(len(scenario.snapshots)):
            timeline.append((index * scenario.interval, _PUBLISH, order, index))
            order += 1
        for event in scenario.events:
            timeline.append((event.at, _CONTROL, order, event))
            order += 1
        timeline.sort()

        epoch, seq = 1, 0
        published = 0
        published_stamps: list[Stamp] = []
        latest_stamp: Stamp | None = None
        latest_snapshot: Instance | None = None

        def apply_partition() -> None:
            for (sender, recipient), proxy in proxies.items():
                if connected(groups, sender, recipient):
                    proxy.heal()
                else:
                    proxy.partition()

        for at, kind, _order, payload in timeline:
            if at > virtual_now:
                await asyncio.sleep((at - virtual_now) * time_scale)
                virtual_now = at
            if kind == _PUBLISH:
                snapshot = scenario.snapshots[payload]
                seq += 1
                stamp = Stamp(epoch, seq)
                latest_stamp, latest_snapshot = stamp, snapshot
                published_stamps.append(stamp)
                published += 1
                note(f"publish stamp={stamp} facts={len(snapshot)}")
                for peer, client in clients.items():
                    await client.offer(stamp, snapshot)
            elif isinstance(payload, Partition):
                rendered = [",".join(sorted(group)) for group in payload.groups]
                note(f"partition {'|'.join(rendered)}")
                groups = payload.groups
                apply_partition()
            elif isinstance(payload, Heal):
                note("heal")
                groups = None
                apply_partition()
            elif isinstance(payload, Crash):
                # kill -9 of that peer's whole daemon: no drain, no BYE;
                # only its fsynced journal survives for the restart.  The
                # peer's flight recorder is flushed first, so the crash's
                # prelude lands in <peer>.postmortem.jsonl.
                note(f"crash {payload.peer} (daemon abort)")
                daemon = daemons[payload.peer]
                daemon.crash_peer(payload.peer)
                daemon.abort()
                postmortems.extend(daemon.postmortems)
                crashed.add(payload.peer)
            elif isinstance(payload, Restart):
                daemon = await boot_daemon(payload.peer)
                crashed.discard(payload.peer)
                note(
                    f"restart {payload.peer} "
                    f"stamp={daemon.watermark(payload.peer)}"
                )
            elif isinstance(payload, BumpEpoch):
                epoch += 1
                seq = 0
                for client in clients.values():
                    client.rebase()
                note(f"epoch-bump epoch={epoch}")

        # ---- quiescence: drain the publisher, then let forwards settle
        for client in clients.values():
            await client.drain(timeout=30.0)
        await _settle(daemons, crashed)
        note("quiescent")

        # Fold the publisher's own link outcomes into the harness scorer
        # so repair ranking sees first-hop health too.
        for peer, client in clients.items():
            for outcome in client.outcomes.values():
                scorer.record((feed, peer), outcome.replace("-", "_"))

        def link_score(sender: str, recipient: str) -> float:
            if sender in daemons:
                return daemons[sender].scorer.score((sender, recipient))
            return scorer.score((sender, recipient))

        # ---- path-aware anti-entropy: repair each lagging peer from its
        # healthiest caught-up upstream neighbor, cascading hop by hop.
        reachable = relay_reachable(scenario, crashed, groups)
        anti_entropy = 0
        if latest_snapshot is not None:
            for round_number in range(1, anti_entropy_limit + 1):
                lagging = [
                    peer
                    for peer in scenario.peers
                    if peer in reachable
                    and _behind(daemons[peer].watermark(peer), latest_stamp)
                ]
                if not lagging:
                    break
                repaired_any = False
                for peer in lagging:
                    candidates = []
                    for link in scenario.upstreams(peer, feed):
                        sender = link.sender
                        if not connected(groups, sender, peer):
                            continue
                        if sender != feed:
                            if sender in crashed or _behind(
                                daemons[sender].watermark(sender), latest_stamp
                            ):
                                continue
                        candidates.append(sender)
                    if not candidates:
                        continue
                    upstream = sorted(
                        candidates,
                        key=lambda sender: (-link_score(sender, peer), sender),
                    )[0]
                    if upstream == feed:
                        payload_snapshot = latest_snapshot
                    else:
                        payload_snapshot = daemons[upstream].peer_source(upstream)
                        if payload_snapshot is None:
                            continue
                    anti_entropy += 1
                    repaired_any = True
                    if metrics is not None:
                        metrics.counter("netd.anti_entropy").inc()
                    repair = PublisherClient(
                        socket_of[peer],
                        peer,
                        sender=upstream,
                        ack_timeout=max(1.0, ack_timeout),
                        tracer=publisher_tracer,
                        metrics=metrics,
                    )
                    await repair.start()
                    outcome = await repair.publish(latest_stamp, payload_snapshot)
                    await repair.close()
                    scorer.record((upstream, peer), outcome.replace("-", "_"))
                    note(
                        f"anti-entropy round={round_number} peer={peer} "
                        f"via={upstream} stamp={latest_stamp} -> {outcome}"
                    )
                if not repaired_any:
                    break

        # ---- collect final states and judge with the shared oracle
        states: dict[str, Instance] = {}
        unreachable: list[str] = []
        watermarks: dict[str, Stamp | None] = {}
        for peer in scenario.peers:
            watermarks[peer] = (
                daemons[peer].watermark(peer) if peer not in crashed else None
            )
            if peer in reachable:
                states[peer] = daemons[peer].peer_state(peer)
            else:
                unreachable.append(peer)
        convergence = check_convergence(
            scenario, states, unreachable,
            watermarks=watermarks, published=published_stamps,
        )
        note(
            "convergence "
            + (
                " ".join(
                    f"{name}={'ok' if ok else 'DIVERGED'}"
                    for name, ok in sorted(convergence.peers.items())
                )
                if convergence.peers
                else "vacuous (no reachable peers)"
            )
        )

        stats: dict[str, int] = {"anti_entropy": anti_entropy}
        for client in clients.values():
            for key, value in client.stats.items():
                stats[key] = stats.get(key, 0) + value
        for proxy in proxies.values():
            for key, value in proxy.stats.items():
                stats[f"chaos_{key}"] = stats.get(f"chaos_{key}", 0) + value
        for peer, daemon in daemons.items():
            stats["forwarded"] = stats.get("forwarded", 0) + daemon.stats["forwarded"]
            for host in daemon.hosts.values():
                for key, value in host.stats.items():
                    stats[f"daemon_{key}"] = stats.get(f"daemon_{key}", 0) + value

        scores = scorer.snapshot()
        for daemon in daemons.values():
            scores.update(daemon.scorer.snapshot())

        drained = True
        for peer, client in clients.items():
            await client.close(bye=True)
        for peer, daemon in daemons.items():
            if peer in crashed:
                continue
            drained = await daemon.stop(drain=True) and drained
            postmortems.extend(
                path for path in daemon.postmortems if path not in postmortems
            )
        note(f"daemons stopped drained={drained}")

        trace_files = _write_lanes(lane_tracers, trace_dir)
        for label, path in trace_files.items():
            note(f"trace lane {label} -> {path}")

        return NetdReport(
            scenario=scenario.name,
            seed=scenario.seed,
            published=published,
            final_stamp=latest_stamp,
            states=states,
            unreachable=unreachable,
            stats=stats,
            convergence=convergence,
            drained=drained,
            log=log,
            trace_files=trace_files,
            postmortems=postmortems,
            scores=scores,
        )
    finally:
        for client in clients.values():
            await client.close(bye=False)
        for proxy in proxies.values():
            await proxy.stop()
        for daemon in daemons.values():
            await daemon.stop(drain=False)
        _write_lanes(lane_tracers, trace_dir)
        shutil.rmtree(socket_dir, ignore_errors=True)
        if owns_journal_dir:
            shutil.rmtree(journal_dir, ignore_errors=True)


async def _settle(
    daemons: dict[str, SyncDaemon], crashed: set[str], deadline: float = 5.0
) -> None:
    """Wait for relay forwards to stop propagating (watermarks stable).

    The publisher's drain only covers first-hop deliveries; forwarded
    rounds are still in flight down the mesh.  Settling = every live
    daemon's relay queues empty and no watermark moved for a few ticks.
    """
    loop = asyncio.get_running_loop()
    end = loop.time() + deadline
    last: tuple = ()
    stable = 0
    while loop.time() < end:
        snapshot = tuple(
            (peer, daemon.watermark(peer))
            for peer, daemon in sorted(daemons.items())
            if peer not in crashed
        )
        busy = any(
            not queue.empty()
            for peer, daemon in daemons.items()
            if peer not in crashed
            for queue in daemon._relay_queues.values()
        )
        if snapshot == last and not busy:
            stable += 1
            if stable >= 3:
                return
        else:
            stable = 0
        last = snapshot
        await asyncio.sleep(0.05)


def _write_lanes(
    lane_tracers: dict[str, Tracer], trace_dir: str | Path | None
) -> dict[str, Path]:
    """Write one JSONL trace file per component lane (idempotent)."""
    if trace_dir is None or not lane_tracers:
        return {}
    trace_files: dict[str, Path] = {}
    for label, lane in lane_tracers.items():
        path = Path(trace_dir) / f"{label}.jsonl"
        write_trace_jsonl(lane, path)
        trace_files[label] = path
    return trace_files


def _behind(watermark: Stamp | None, latest: Stamp | None) -> bool:
    if latest is None:
        return False
    return watermark is None or watermark < latest
