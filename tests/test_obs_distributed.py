"""The distributed observability plane, end to end.

Covers the PR-8 surface: wire trace context (:class:`repro.obs.
TraceContext`), the cross-file stitcher (:func:`repro.obs.stitch`), the
crash flight recorder (:class:`repro.obs.FlightRecorder`), the unified
metric name table (:mod:`repro.obs.names`), convergence-lag arithmetic
(:func:`repro.sync.watermark_lag`), the daemon's ``STATS`` frame +
:func:`repro.netd.fetch_stats`, the self-describing ``chaos.*`` events,
the ``repro.cli obs`` toolbox, and — the acceptance scenario — a chaos
run under :func:`repro.netd.run_scenario_netd` whose stitched timeline
links one publish across peers, whose killed peer leaves a readable
post-mortem, and whose convergence report shows every lag at 0.
"""

import asyncio
import json
import re
import threading
from pathlib import Path

import pytest

from repro.cli import EXIT_DEGRADED, main
from repro.core.parser import parse_instance
from repro.exceptions import TraceError
from repro.net import (
    NetworkSimulator,
    crash_scenario,
    registry_scenario,
    registry_setting,
)
from repro.netd import (
    ChaosProxy,
    PublisherClient,
    SyncDaemon,
    fetch_stats,
    run_scenario_netd,
)
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    Tracer,
    TraceContext,
    canonical_metric_name,
    metric_documented,
    read_postmortem,
    stitch,
    undocumented,
    write_trace_jsonl,
)
from repro.runtime import FaultSchedule
from repro.sync import Stamp, watermark_lag

SNAPSHOTS = [
    parse_instance("reg(a, 1)"),
    parse_instance("reg(a, 1); reg(b, 2)"),
    parse_instance("reg(b, 2); reg(c, 3)"),
]


def run(coroutine):
    return asyncio.run(coroutine)


async def _daemon(tmp_path, peers=("peer-a",), **kwargs):
    daemon = SyncDaemon(
        registry_setting(),
        list(peers),
        journal_dir=tmp_path / "journals",
        **kwargs,
    )
    await daemon.start()
    return daemon


async def _client(address, peer="peer-a", **kwargs):
    kwargs.setdefault("ack_timeout", 2.0)
    client = PublisherClient(address, peer, **kwargs)
    await client.start()
    return client


# ----------------------------------------------------------------------
# TraceContext: deterministic ids, wire codec, leniency
# ----------------------------------------------------------------------


def test_trace_context_is_deterministic_stamp_arithmetic():
    # Same sender + stamp → identical ids everywhere, no coordination.
    first = TraceContext.for_publish("origin", Stamp(2, 5))
    second = TraceContext.for_publish("origin", (2, 5))
    assert first.trace_id == second.trace_id == "origin:2.5"
    assert first.span_id == "origin:2.5:publish"
    assert first.parent_id is None


def test_trace_context_child_parents_on_the_upstream_span():
    publish = TraceContext.for_publish("origin", Stamp(1, 3), at=12.5)
    ingest = publish.child("peer-a:ingest")
    assert ingest.trace_id == publish.trace_id
    assert ingest.span_id == "origin:1.3:peer-a:ingest"
    assert ingest.parent_id == publish.span_id
    assert ingest.published_at == 12.5


def test_trace_context_wire_roundtrip():
    publish = TraceContext.for_publish("origin", Stamp(1, 1), at=3.25)
    assert TraceContext.from_wire(publish.to_wire()) == publish
    child = publish.child("peer-b:apply")
    assert TraceContext.from_wire(child.to_wire()) == child
    # Origin contexts omit the optional keys on the wire.
    assert "p" not in publish.to_wire()
    assert TraceContext.for_publish("o", (1, 1)).to_wire() == {
        "t": "o:1.1", "s": "o:1.1:publish",
    }


@pytest.mark.parametrize(
    "dented",
    [
        None,
        "origin:1.1",
        42,
        [],
        {},
        {"t": "origin:1.1"},
        {"s": "origin:1.1:publish"},
        {"t": 7, "s": "origin:1.1:publish"},
    ],
)
def test_trace_context_from_wire_is_lenient(dented):
    # A dented envelope must never fail the frame it rides on.
    assert TraceContext.from_wire(dented) is None


def test_trace_context_from_wire_drops_malformed_optionals():
    decoded = TraceContext.from_wire(
        {"t": "o:1.1", "s": "o:1.1:publish", "p": 9, "at": True}
    )
    assert decoded is not None
    assert decoded.parent_id is None
    assert decoded.published_at is None


def test_trace_context_annotate_uses_plain_attributes():
    # Schema stays at v1: correlation lives in ordinary attributes.
    tracer = Tracer()
    context = TraceContext.for_publish("origin", Stamp(1, 1)).child("peer-a:ingest")
    with tracer.span("netd.ingest") as span:
        context.annotate(span)
    recorded = tracer.find("netd.ingest")
    assert recorded.attributes["ctx.trace"] == "origin:1.1"
    assert recorded.attributes["ctx.span"] == "origin:1.1:peer-a:ingest"
    assert recorded.attributes["ctx.parent"] == "origin:1.1:publish"


# ----------------------------------------------------------------------
# watermark lag: the shared convergence-lag primitive
# ----------------------------------------------------------------------


def test_watermark_lag_counts_publishes_above_the_mark():
    published = [Stamp(1, 1), Stamp(1, 2), Stamp(2, 1)]
    assert watermark_lag(published, None) == 3
    assert watermark_lag(published, Stamp(1, 1)) == 2
    assert watermark_lag(published, (1, 2)) == 1
    assert watermark_lag(published, Stamp(2, 1)) == 0
    assert watermark_lag([], None) == 0
    # Tuples and Stamps are interchangeable: pure stamp arithmetic.
    assert watermark_lag([(1, 1), (1, 2)], (1, 1)) == 1


# ----------------------------------------------------------------------
# flight recorder: ring, flush, torn-tail reader
# ----------------------------------------------------------------------


def test_flight_recorder_ring_evicts_oldest():
    ticks = iter(range(100))
    recorder = FlightRecorder(capacity=4, clock=lambda: float(next(ticks)))
    for index in range(10):
        recorder.record("tick", index=index)
    assert len(recorder) == 4
    assert recorder.recorded == 10
    assert recorder.dropped == 6
    assert [event["attributes"]["index"] for event in recorder.events()] == [
        6, 7, 8, 9,
    ]


def test_flight_recorder_rejects_zero_capacity():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


def test_flight_recorder_flush_and_read_roundtrip(tmp_path):
    recorder = FlightRecorder(capacity=3, clock=lambda: 1.0)
    for index in range(5):
        recorder.record("netd.ingest", index=index, stamp=f"1.{index}")
    path = recorder.flush(tmp_path / "peer.postmortem.jsonl", reason="crash")
    postmortem = read_postmortem(path)
    assert postmortem.reason == "crash"
    assert postmortem.recorded == 5
    assert postmortem.dropped == 2
    assert [event["attributes"]["index"] for event in postmortem.events] == [2, 3, 4]
    assert [event["attributes"]["index"] for event in postmortem.last(2)] == [3, 4]
    assert postmortem.last(0) == []


def test_flight_recorder_reader_tolerates_torn_tail(tmp_path):
    recorder = FlightRecorder(capacity=8, clock=lambda: 1.0)
    for index in range(3):
        recorder.record("tick", index=index)
    path = recorder.flush(tmp_path / "torn.postmortem.jsonl", reason="abort")
    # A crash mid-flush leaves a torn final line; the prefix must read.
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"type": "event", "name": "tr')
    postmortem = read_postmortem(path)
    assert postmortem.reason == "abort"
    assert len(postmortem.events) == 3


def test_read_postmortem_rejects_foreign_files(tmp_path):
    path = tmp_path / "not-a-postmortem.jsonl"
    path.write_text('{"type": "header", "format": "elsewhere", "version": 1}\n')
    with pytest.raises(TraceError):
        read_postmortem(path)


# ----------------------------------------------------------------------
# stitch: concurrent writers, torn lines, lane attribution
# ----------------------------------------------------------------------


def _traced_publish(tracer, sender, seq, site):
    context = TraceContext.for_publish(sender, Stamp(1, seq))
    with tracer.span("netd.publish", stamp=f"1.{seq}") as span:
        context.annotate(span)
    return context


def test_stitch_survives_concurrent_writers_and_torn_tail(tmp_path):
    # Two writers, one publish each; writer B's file ends mid-record the
    # way a concurrent flush tears it.  Stitch must not raise TraceError.
    writer_a, writer_b = Tracer(), Tracer()
    context = _traced_publish(writer_a, "origin", 1, "publish")
    with writer_b.span("netd.ingest") as span:
        context.child("peer-b:ingest").annotate(span)
    path_a = tmp_path / "peer-a.jsonl"
    path_b = tmp_path / "peer-b.jsonl"
    write_trace_jsonl(writer_a, path_a)
    write_trace_jsonl(writer_b, path_b)
    with open(path_b, "a", encoding="utf-8") as handle:
        handle.write('{"type": "span", "name": "torn-mid-wri')
    timeline = stitch({"peer-a": path_a, "peer-b": path_b})
    assert timeline.corrupt_lines == 1
    assert set(timeline.lanes) >= {"peer-a", "peer-b"}
    spans = timeline.traces()["origin:1.1"]
    assert {span.lane for span in spans} == {"peer-a", "peer-b"}
    # Causal order: the publish precedes the ingest it parented.
    names = [span.name for span in spans]
    assert names.index("netd.publish") < names.index("netd.ingest")


def test_stitch_span_lane_attribute_overrides_file_label(tmp_path):
    tracer = Tracer()
    with tracer.span("netd.ingest", lane="peer-c"):
        pass
    path = tmp_path / "daemon.jsonl"
    write_trace_jsonl(tracer, path)
    timeline = stitch([path])
    assert timeline.spans[0].lane == "peer-c"
    assert timeline.lanes == ["peer-c"]


def test_stitch_accepts_repeated_headers(tmp_path):
    # A re-opened writer re-emits its header; the lenient reader skips it.
    first, second = Tracer(), Tracer()
    with first.span("round-one"):
        pass
    with second.span("round-two"):
        pass
    path = tmp_path / "reopened.jsonl"
    tail = tmp_path / "tail.jsonl"
    write_trace_jsonl(first, path)
    write_trace_jsonl(second, tail)
    path.write_text(path.read_text() + tail.read_text())
    timeline = stitch({"daemon": path})
    assert {span.name for span in timeline.spans} == {"round-one", "round-two"}
    assert timeline.corrupt_lines == 0


def test_stitch_chrome_export_one_lane_per_peer(tmp_path):
    writer_a, writer_b = Tracer(), Tracer()
    context = _traced_publish(writer_a, "origin", 1, "publish")
    with writer_b.span("netd.ingest") as span:
        context.child("peer-b:ingest").annotate(span)
    path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_trace_jsonl(writer_a, path_a)
    write_trace_jsonl(writer_b, path_b)
    timeline = stitch({"origin": path_a, "peer-b": path_b})
    dump = timeline.chrome()
    lanes = {
        record["args"]["name"]: record["tid"]
        for record in dump["traceEvents"]
        if record.get("ph") == "M"
    }
    assert set(lanes) == {"origin", "peer-b"}
    assert len(set(lanes.values())) == 2
    by_tid = {
        record["name"]: record["tid"]
        for record in dump["traceEvents"]
        if record.get("ph") == "X"
    }
    assert by_tid["netd.publish"] == lanes["origin"]
    assert by_tid["netd.ingest"] == lanes["peer-b"]


# ----------------------------------------------------------------------
# the metric name table: completeness and deprecation shims
# ----------------------------------------------------------------------

_METRIC_CALL = re.compile(
    r"""\.(?:counter|gauge|histogram|annotate)\(\s*f?["']([^"']+)["']"""
)


def test_every_emitted_network_metric_is_documented():
    # Static scan: every net.*/netd.*/chaos.*/sync.* literal the source
    # passes to a registry instrument or label must appear in the name
    # table (f-string placeholders collapse to the wildcard families).
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    emitted: set[str] = set()
    for path in sorted(src.rglob("*.py")):
        for name in _METRIC_CALL.findall(path.read_text(encoding="utf-8")):
            name = re.sub(r"\{[^}]*\}", "*", name)
            if name in ("net.*", "netd.*", "chaos.*"):
                # Fully dynamic leaf (f"chaos.{counter}"): unresolvable
                # statically; the selfcheck runtime audit covers these.
                continue
            if name.startswith(("net.", "netd.", "chaos.", "sync.")):
                emitted.add(name)
    assert emitted, "the scan found no network metric emissions at all"
    assert {"sync.rounds", "sync.status", "sync.delta_broken"} <= emitted
    missing = undocumented(emitted)
    assert not missing, f"undocumented metric name(s): {missing}"


def test_deprecated_metric_names_alias_one_instrument():
    registry = MetricsRegistry()
    registry.counter("net.delta_fallback").inc()
    registry.counter("net.delta_fallbacks").inc(2)
    # Both names address the same counter, keyed canonically.
    assert registry.counter("net.delta_fallback") is registry.counter(
        "net.delta_fallbacks"
    )
    counters = registry.snapshot()["counters"]
    assert counters["net.delta_fallbacks"] == 3
    assert "net.delta_fallback" not in counters


def test_metric_name_helpers():
    assert canonical_metric_name("net.delta_fallback") == "net.delta_fallbacks"
    assert canonical_metric_name("net.sent") == "net.sent"
    assert metric_documented("netd.rounds.applied")  # wildcard family
    assert metric_documented("netd.lag.peer-b")
    assert metric_documented("net.delta_fallback")  # via the shim
    assert metric_documented("solve.duration_ms")  # not this table's business
    assert not metric_documented("netd.made_up")
    assert metric_documented("sync.delta_rounds")
    assert not metric_documented("sync.made_up")
    assert undocumented(["net.sent", "chaos.nonsense"]) == ["chaos.nonsense"]


# ----------------------------------------------------------------------
# simulator: ctx-linked spans, lag, publish→apply latency
# ----------------------------------------------------------------------


def test_simulator_propagates_context_and_reports_lag():
    tracer = Tracer()
    metrics = MetricsRegistry()
    simulator = NetworkSimulator(registry_scenario(0), tracer=tracer, metrics=metrics)
    simulator.run()
    report = simulator.check_convergence()
    assert report.converged
    assert report.lag, "convergence report carries per-peer lag"
    assert all(lag == 0 for lag in report.lag.values())

    publishes = {
        span.attributes["ctx.span"]: span
        for span in tracer.spans()
        if span.name == "net.publish" and "ctx.span" in span.attributes
    }
    applies = [
        span for span in tracer.spans()
        if span.name == "net.apply" and "ctx.parent" in span.attributes
    ]
    assert publishes and applies
    # Every apply parents on a recorded publish within the same trace.
    for span in applies:
        parent = publishes[span.attributes["ctx.parent"]]
        assert span.attributes["ctx.trace"] == parent.attributes["ctx.trace"]

    histograms = metrics.snapshot()["histograms"]
    assert histograms["net.publish_apply_ms"]["count"] > 0


# ----------------------------------------------------------------------
# daemon: STATS frame, fetch_stats, lag gauges, post-mortems
# ----------------------------------------------------------------------


def test_daemon_stats_payload_and_fetch_stats(tmp_path):
    async def scenario():
        daemon = await _daemon(tmp_path, peers=("peer-a", "peer-b"))
        client = await _client(daemon.address)
        for index, snapshot in enumerate(SNAPSHOTS):
            assert await client.publish(Stamp(1, index + 1), snapshot) == "applied"
        await client.close()

        # The one-shot probe needs no HELLO and matches the local payload.
        payload = await fetch_stats(daemon.address)
        assert payload["state"] == "serving"
        peers = payload["peers"]
        assert set(peers) == {"peer-a", "peer-b"}
        assert peers["peer-a"]["watermark"] == [1, 3]
        assert peers["peer-a"]["lag"] == 0
        assert peers["peer-a"]["crashed"] is False
        # peer-b never received a publish: it lags the full history.
        assert peers["peer-b"]["watermark"] is None
        assert peers["peer-b"]["lag"] == 3
        assert daemon.lag("peer-b") == 3
        await daemon.stop()

    run(scenario())


def test_daemon_crash_flushes_postmortem_and_marks_stats(tmp_path):
    async def scenario():
        daemon = await _daemon(tmp_path)
        client = await _client(daemon.address)
        assert await client.publish(Stamp(1, 1), SNAPSHOTS[0]) == "applied"
        await client.close()

        daemon.crash_peer("peer-a")
        payload = daemon.stats_payload()
        assert payload["peers"]["peer-a"]["crashed"] is True

        postmortems = list(daemon.postmortems)
        assert postmortems, "crash_peer flushed a post-mortem"
        path = postmortems[-1]
        assert path.name == "peer-a.postmortem.jsonl"
        postmortem = read_postmortem(path)
        assert postmortem.reason == "crash"
        names = [event["name"] for event in postmortem.events]
        assert "netd.ingest" in names
        assert "netd.peer_crashed" in names
        await daemon.stop()
        # The graceful stop leaves its own flight-recorder flush.
        reasons = {
            read_postmortem(p).reason for p in daemon.postmortems
        }
        assert reasons == {"crash", "stop"}

    run(scenario())


def test_daemon_lag_gauge_and_latency_histogram(tmp_path):
    async def scenario():
        metrics = MetricsRegistry()
        daemon = await _daemon(tmp_path, metrics=metrics)
        client = await _client(daemon.address)
        assert await client.publish(Stamp(1, 1), SNAPSHOTS[0]) == "applied"
        await client.close()
        await daemon.stop()
        snapshot = metrics.snapshot()
        assert snapshot["gauges"]["netd.lag.peer-a"] == 0
        assert snapshot["histograms"]["netd.publish_apply_ms"]["count"] == 1
        assert snapshot["counters"]["netd.rounds.applied"] == 1

    run(scenario())


# ----------------------------------------------------------------------
# chaos proxy: self-describing chaos.* events
# ----------------------------------------------------------------------


def test_chaos_events_carry_index_frame_and_trace(tmp_path):
    async def scenario():
        daemon = await _daemon(tmp_path)
        tracer = Tracer()
        schedule = FaultSchedule(
            drop=frozenset({1}),
            duplicate=frozenset({3}),
            reorder=frozenset({4}),
            delay={5: 0.2},
        )
        proxy = ChaosProxy(
            daemon.address,
            schedule=schedule,
            latency=0.02,
            time_scale=0.01,
            tracer=tracer,
        )
        await proxy.start()
        client = await _client(proxy.address, ack_timeout=0.4)
        for seq in range(1, 7):
            await client.publish(Stamp(1, seq), SNAPSHOTS[seq % 3])
        await client.close()
        await proxy.stop()
        await daemon.stop()
        return tracer

    tracer = run(scenario())
    events = {
        name: [e for e in tracer.orphan_events if e["name"] == name]
        for name in ("chaos.drop", "chaos.duplicate", "chaos.reorder", "chaos.delay")
    }
    for name, found in events.items():
        assert found, f"no {name} event recorded"
    # Every fault names the delivery it hit, describes the frame it saw,
    # and carries the publish's wire trace id for stitching.
    assert events["chaos.drop"][0]["attributes"]["index"] == 1
    for found in events.values():
        attributes = found[0]["attributes"]
        assert attributes["frame"].startswith(("snapshot(", "delta("))
        assert "ctx" in attributes["frame"]
        assert re.fullmatch(r"origin:\d+\.\d+", attributes["trace"])
    assert events["chaos.delay"][0]["attributes"]["delay"] == pytest.approx(0.2)
    assert events["chaos.reorder"][0]["attributes"]["hold"] == pytest.approx(
        4 * 0.02
    )


# ----------------------------------------------------------------------
# the CLI obs toolbox
# ----------------------------------------------------------------------


def _write_two_lane_traces(tmp_path):
    writer_a, writer_b = Tracer(), Tracer()
    context = _traced_publish(writer_a, "origin", 1, "publish")
    with writer_b.span("netd.ingest") as span:
        context.child("peer-b:ingest").annotate(span)
    path_a, path_b = tmp_path / "origin.jsonl", tmp_path / "peer-b.jsonl"
    write_trace_jsonl(writer_a, path_a)
    write_trace_jsonl(writer_b, path_b)
    return path_a, path_b


def test_cli_obs_stitch_renders_and_exports_chrome(tmp_path, capsys):
    path_a, path_b = _write_two_lane_traces(tmp_path)
    chrome = tmp_path / "stitched.json"
    code = main([
        "obs", "stitch", f"origin={path_a}", str(path_b), "--chrome", str(chrome),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "trace origin:1.1" in out
    assert "netd.publish" in out and "netd.ingest" in out
    dump = json.loads(chrome.read_text())
    lanes = {
        record["args"]["name"]
        for record in dump["traceEvents"]
        if record.get("ph") == "M"
    }
    assert lanes == {"origin", "peer-b"}


def test_cli_obs_stitch_unreadable_file_exits_2(tmp_path, capsys):
    code = main(["obs", "stitch", str(tmp_path / "missing.jsonl")])
    captured = capsys.readouterr()
    assert code == 2
    assert "cannot read trace" in captured.err


def test_cli_obs_postmortem_renders_the_tail(tmp_path, capsys):
    recorder = FlightRecorder(capacity=4, clock=lambda: 2.0)
    for index in range(6):
        recorder.record("netd.ingest", peer="peer-a", index=index)
    path = recorder.flush(tmp_path / "peer-a.postmortem.jsonl", reason="crash")
    code = main(["obs", "postmortem", str(path), "--last", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "reason: crash" in out
    assert "(showing the last 2 of 4)" in out
    assert "netd.ingest" in out
    assert "index=5" in out and "index=3" not in out


def test_cli_obs_postmortem_unreadable_exits_2(tmp_path, capsys):
    code = main(["obs", "postmortem", str(tmp_path / "missing.jsonl")])
    assert code == 2
    assert capsys.readouterr().err


def test_cli_obs_top_rejects_bad_address(capsys):
    code = main(["obs", "top", "not-an-address"])
    assert code == 2
    assert "neither HOST:PORT nor unix:PATH" in capsys.readouterr().err


def test_cli_obs_top_reports_unreachable_as_degraded(capsys):
    code = main(["obs", "top", "127.0.0.1:1", "--timeout", "0.5"])
    out = capsys.readouterr().out
    assert code == EXIT_DEGRADED
    assert "unreachable" in out


def test_cli_obs_top_polls_a_live_daemon(tmp_path, capsys):
    # The daemon runs in a worker thread's event loop; the CLI probes it
    # over TCP from this thread, exactly as a real operator would.
    started = threading.Event()
    stop = threading.Event()
    holder = {}

    def serve():
        async def body():
            daemon = await _daemon(tmp_path, peers=("peer-a", "peer-b"))
            client = await _client(daemon.address)
            await client.publish(Stamp(1, 1), SNAPSHOTS[0])
            await client.close()
            holder["address"] = daemon.address
            started.set()
            while not stop.is_set():
                await asyncio.sleep(0.02)
            await daemon.stop()

        asyncio.run(body())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert started.wait(5.0), "daemon thread never came up"
    host, port = holder["address"]
    try:
        code = main(["obs", "top", f"{host}:{port}", "--json"])
    finally:
        stop.set()
        thread.join(5.0)
    out = capsys.readouterr().out
    assert code == 0
    results = json.loads(out)
    payload = results[f"{host}:{port}"]
    assert payload["state"] == "serving"
    assert payload["peers"]["peer-a"]["watermark"] == [1, 1]
    assert payload["peers"]["peer-a"]["lag"] == 0
    assert payload["peers"]["peer-b"]["lag"] == 1


# ----------------------------------------------------------------------
# profile CLI: --trace/--chrome parity through the one exporter path
# ----------------------------------------------------------------------


def test_cli_profile_trace_and_chrome_share_the_exporter(tmp_path, capsys):
    trace = tmp_path / "profile.jsonl"
    chrome = tmp_path / "profile.json"
    code = main([
        "profile", "genomics", "--size", "3",
        "--trace", str(trace), "--chrome", str(chrome),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert trace.exists() and chrome.exists()
    # Both exports describe the same spans: the JSONL span names all
    # appear in the Chrome dump and vice versa.
    jsonl_names = {
        record["name"]
        for record in map(json.loads, trace.read_text().splitlines())
        if record.get("type") == "span"
    }
    chrome_names = {
        record["name"]
        for record in json.loads(chrome.read_text())["traceEvents"]
        if record.get("ph") == "X"
    }
    assert jsonl_names == chrome_names
    assert f"spans written to {trace}" in captured.err
    assert f"chrome trace written to {chrome}" in captured.err


# ----------------------------------------------------------------------
# acceptance: the chaos run, stitched, with a post-mortem and zero lag
# ----------------------------------------------------------------------


def test_crash_scenario_stitches_postmortems_and_converges(tmp_path):
    report = run_scenario_netd(
        crash_scenario(7),
        journal_dir=tmp_path / "journals",
        trace_dir=tmp_path / "traces",
    )
    assert report.converged

    # (1) Convergence lag: every peer's watermark caught up at quiescence.
    assert report.lag
    assert all(lag == 0 for lag in report.lag.values())

    # (2) The stitched timeline links one publish across >= 2 peers:
    # the publisher's netd.publish span (lane "origin") parents daemon
    # ingest spans recorded under per-peer lanes — different tracers,
    # one correlation id.
    assert set(report.trace_files) == {"publisher", "daemon", "chaos"}
    timeline = stitch(report.trace_files)
    linked = []
    for trace_id, spans in timeline.traces().items():
        if trace_id is None:
            continue
        publish_lanes = {s.lane for s in spans if s.name == "netd.publish"}
        ingest_lanes = {s.lane for s in spans if s.name == "netd.ingest"}
        if "origin" in publish_lanes and len(ingest_lanes) >= 2:
            linked.append(trace_id)
    assert linked, "no publish trace links origin to >= 2 peer lanes"
    spans = timeline.traces()[linked[0]]
    publish = next(s for s in spans if s.name == "netd.publish")
    for ingest in (s for s in spans if s.name == "netd.ingest"):
        assert ingest.parent_id == publish.span_id

    # (3) The killed peer left a non-empty, readable post-mortem.
    crashed = [p for p in report.postmortems if p.name == "peer-b.postmortem.jsonl"]
    assert crashed, "no post-mortem for the SIGKILLed peer"
    postmortem = read_postmortem(crashed[0])
    assert postmortem.reason == "crash"
    assert postmortem.events
    assert any(event["name"] == "netd.peer_crashed" for event in postmortem.events)
