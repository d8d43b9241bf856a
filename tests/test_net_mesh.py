"""Relay topologies in the simulator: forwarding, scoring, reachability.

The star simulator suite lives in ``test_net_sim.py``; this file covers
what a declared ``topology`` adds — multi-hop forwarding, idempotence
under relay cycles, per-link peer scores and score-routed anti-entropy,
path-wise reachability, topology validation and serialization, and the
``PDE31x`` scenario-lint rules.
"""

import dataclasses
import json

import pytest

from repro.analysis import analyze_scenario
from repro.core.parser import parse_instance
from repro.exceptions import SimulationError
from repro.net import (
    Crash,
    Heal,
    NetworkSimulator,
    Partition,
    PeerScorer,
    RelayLink,
    Restart,
    SCORE_WEIGHTS,
    Scenario,
    crash_scenario,
    dumps_scenario,
    genomics_churn_scenario,
    loads_scenario,
    registry_scenario,
    registry_setting,
    relay_chain_scenario,
    relay_mesh_scenario,
)
from repro.net.scenarios import connected, relay_reachable
from repro.runtime.faults import FaultSchedule

SNAPSHOTS = [
    parse_instance("reg(a, 1)"),
    parse_instance("reg(a, 1); reg(b, 2)"),
    parse_instance("reg(b, 2); reg(c, 3)"),
    parse_instance("reg(b, 2); reg(c, 3); reg(d, 4)"),
]


def mesh(name, peers, topology, **kwargs):
    kwargs.setdefault("snapshots", SNAPSHOTS)
    return Scenario(
        name=name,
        description="test mesh",
        setting=registry_setting(),
        publisher="origin",
        peers=peers,
        topology=topology,
        **kwargs,
    )


# ----------------------------------------------------------------------
# convergence through relays
# ----------------------------------------------------------------------


class TestRelayConvergence:
    @pytest.mark.parametrize("deltas", [False, True], ids=["snap", "delta"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_relay_chain_converges(self, seed, deltas, tmp_path):
        simulator = NetworkSimulator(
            relay_chain_scenario(seed=seed),
            journal_dir=tmp_path,
            deltas=deltas,
        )
        report = simulator.run()
        assert report.converged
        assert not report.convergence.unreachable
        assert report.stats["forwarded"] > 0

    @pytest.mark.parametrize("deltas", [False, True], ids=["snap", "delta"])
    def test_relay_mesh_converges(self, deltas):
        report = NetworkSimulator(relay_mesh_scenario(seed=0), deltas=deltas).run()
        assert report.converged

    def test_chain_leaf_state_matches_oracle(self):
        chain = mesh(
            "chain",
            ["mid", "leaf"],
            (RelayLink("origin", "mid"), RelayLink("mid", "leaf")),
        )
        simulator = NetworkSimulator(chain)
        report = simulator.run()
        assert report.converged
        # The leaf is two hops from the publisher: everything it holds
        # arrived by relay forwarding, not a direct link.
        assert report.stats["forwarded"] >= len(SNAPSHOTS)

    def test_forwarding_is_deterministic(self):
        logs = [
            NetworkSimulator(relay_chain_scenario(seed=3)).run().log
            for _ in range(2)
        ]
        assert logs[0] == logs[1]

    def test_relay_cycle_is_idempotent_and_terminates(self):
        # mid <-> back form a 2-cycle below the publisher.  Forwarding
        # happens only on a *fresh* apply, so each node forwards each
        # stamp at most once: the loop terminates, the extra lap arrives
        # stale, and both peers converge.
        cyclic = mesh(
            "cycle",
            ["mid", "back"],
            (
                RelayLink("origin", "mid"),
                RelayLink("mid", "back"),
                RelayLink("back", "mid"),
            ),
        )
        report = NetworkSimulator(cyclic).run()
        assert report.converged
        # Each stamp is applied exactly once per peer; the cycle's echo
        # deliveries are all rejected as stale.
        assert report.stats["applied"] == len(SNAPSHOTS) * 2
        assert report.stats["stale"] >= len(SNAPSHOTS)

    def test_duplicate_paths_apply_once(self):
        # A diamond delivers every stamp over two routes; the watermark
        # accepts the first copy and rejects the second.
        diamond = mesh(
            "diamond",
            ["hub-a", "hub-b", "leaf"],
            (
                RelayLink("origin", "hub-a"),
                RelayLink("origin", "hub-b"),
                RelayLink("hub-a", "leaf"),
                RelayLink("hub-b", "leaf"),
            ),
        )
        report = NetworkSimulator(diamond).run()
        assert report.converged
        assert report.stats["applied"] == len(SNAPSHOTS) * 3
        assert report.stats["stale"] >= len(SNAPSHOTS)


# ----------------------------------------------------------------------
# scoring and score-routed anti-entropy
# ----------------------------------------------------------------------


class TestScoring:
    def test_lossy_link_scores_below_healthy_twin(self):
        simulator = NetworkSimulator(relay_mesh_scenario(seed=0))
        assert simulator.run().converged
        scores = simulator.scorer.snapshot()
        # hub-a -> leaf drops 60% of deliveries; hub-b -> leaf is clean.
        assert scores["hub-a->leaf"] < scores["hub-b->leaf"]

    def test_catchup_reroutes_through_healthier_upstream(self):
        # leaf is partitioned away while publishes continue, then healed:
        # anti-entropy must repair it through an upstream hub, and the
        # scorer ranks the clean hub above the lossy one.
        lossy = mesh(
            "reroute",
            ["hub-a", "hub-b", "leaf"],
            (
                RelayLink("origin", "hub-a"),
                RelayLink("origin", "hub-b"),
                RelayLink("hub-a", "leaf"),
                RelayLink("hub-b", "leaf"),
            ),
            faults={
                ("hub-a", "leaf"): FaultSchedule.seeded(seed=5, drop=0.9),
            },
            events=[
                Partition(0.5, {"origin", "hub-a", "hub-b"}, {"leaf"}),
                Heal(2.5),
            ],
        )
        simulator = NetworkSimulator(lossy)
        report = simulator.run()
        assert report.converged
        scores = simulator.scorer.snapshot()
        assert scores["hub-a->leaf"] < scores["hub-b->leaf"]
        best = simulator.scorer.best_upstream("leaf", ["hub-a", "hub-b"])
        assert best == "hub-b"

    def test_scorer_unit_behavior(self):
        scorer = PeerScorer()
        link = ("a", "b")
        assert scorer.score(link) == 1.0
        scorer.record(link, "applied")
        assert scorer.score(link) == pytest.approx(1.0 + SCORE_WEIGHTS["applied"])
        # Unknown outcomes are worth nothing but do not raise.
        before = scorer.score(link)
        scorer.record(link, "never-heard-of-it")
        assert scorer.score(link) == before
        # Clamped to [0, 2] in both directions.
        for _ in range(100):
            scorer.record(link, "unreachable")
        assert scorer.score(link) == 0.0
        for _ in range(100):
            scorer.record(link, "applied")
        assert scorer.score(link) == 2.0

    def test_best_upstream_ranks_by_score_then_name(self):
        scorer = PeerScorer()
        scorer.record(("x", "peer"), "dropped")
        assert scorer.best_upstream("peer", ["x", "y"]) == "y"
        # Equal scores tie-break on name for determinism.
        assert scorer.best_upstream("peer", ["b", "a"]) in ("a", "b")
        assert scorer.best_upstream("peer", []) is None

    def test_snapshot_is_sorted_and_serializable(self):
        scorer = PeerScorer()
        scorer.record(("b", "c"), "applied")
        scorer.record(("a", "b"), "dropped")
        snapshot = scorer.snapshot()
        assert list(snapshot) == sorted(snapshot)
        json.dumps(snapshot)


# ----------------------------------------------------------------------
# path-wise reachability
# ----------------------------------------------------------------------


class TestReachability:
    def test_dead_relay_severs_downstream(self):
        chain = mesh(
            "severed",
            ["mid", "leaf"],
            (RelayLink("origin", "mid"), RelayLink("mid", "leaf")),
            events=[Crash(0.5, "mid")],
        )
        report = NetworkSimulator(chain).run()
        # mid is crashed; leaf is alive but has no live path.
        assert sorted(report.convergence.unreachable) == ["leaf", "mid"]

    def test_restarted_relay_restores_the_path(self, tmp_path):
        chain = mesh(
            "healed",
            ["mid", "leaf"],
            (RelayLink("origin", "mid"), RelayLink("mid", "leaf")),
            events=[Crash(0.5, "mid"), Restart(1.5, "mid")],
        )
        report = NetworkSimulator(chain, journal_dir=tmp_path).run()
        assert report.converged
        assert not report.convergence.unreachable


def declared_star(scenario):
    """``scenario`` with its implicit star spelled out as a topology."""
    return dataclasses.replace(
        scenario,
        topology=tuple(
            RelayLink(scenario.publisher, peer) for peer in scenario.peers
        ),
    )


class TestStarIsATopology:
    """An implicit star and the same star declared as relay links are one
    scenario: the simulator has no separate star path to disagree."""

    @pytest.mark.parametrize("deltas", [False, True], ids=["snapshot", "delta"])
    @pytest.mark.parametrize(
        "builder",
        [registry_scenario, crash_scenario, genomics_churn_scenario],
        ids=lambda builder: builder.__name__.replace("_scenario", ""),
    )
    def test_implicit_and_declared_star_agree(self, builder, deltas, tmp_path):
        implicit = NetworkSimulator(
            builder(seed=3), journal_dir=tmp_path / "implicit", deltas=deltas
        )
        declared = NetworkSimulator(
            declared_star(builder(seed=3)),
            journal_dir=tmp_path / "declared",
            deltas=deltas,
        )
        implicit_report, declared_report = implicit.run(), declared.run()
        assert implicit_report.converged
        assert implicit_report.log == declared_report.log
        assert implicit_report.stats == declared_report.stats
        for peer, node in implicit.nodes.items():
            assert node.crashed == declared.nodes[peer].crashed
            if not node.crashed:
                assert node.state() == declared.nodes[peer].state()

    def test_partition_predicate_and_walk_on_a_star(self):
        groups = (frozenset({"origin", "a"}), frozenset({"b"}))
        assert connected(None, "origin", "b")
        assert connected(groups, "origin", "a")
        assert not connected(groups, "origin", "b")
        # Names in no group share the implicit remainder group.
        assert connected(groups, "c", "d")
        assert not connected(groups, "a", "c")
        star = registry_scenario(seed=0)
        assert relay_reachable(star, (), None) == set(star.peers)
        assert relay_reachable(star, ["peer-a"], None) == {"peer-b", "peer-c"}
        partition = (frozenset({"origin", "peer-a"}),)
        assert relay_reachable(star, (), partition) == {"peer-a"}


# ----------------------------------------------------------------------
# topology validation and serialization
# ----------------------------------------------------------------------


class TestTopologyValue:
    def test_custody_filtering(self):
        link = RelayLink("a", "b", custody=("origin",))
        assert link.carries("origin")
        assert not link.carries("other")
        assert RelayLink("a", "b").carries("anything")

    def test_validation_rejects_bad_edges(self):
        base = dict(peers=["mid"], topology=(RelayLink("ghost", "mid"),))
        with pytest.raises(SimulationError):
            mesh("bad-sender", **base)
        with pytest.raises(SimulationError):
            mesh("bad-recipient", ["mid"], (RelayLink("origin", "ghost"),))
        with pytest.raises(SimulationError):
            mesh("self-loop", ["mid"], (RelayLink("mid", "mid"),))
        with pytest.raises(SimulationError):
            mesh(
                "duplicate",
                ["mid"],
                (RelayLink("origin", "mid"), RelayLink("origin", "mid")),
            )
        with pytest.raises(SimulationError):
            mesh(
                "bad-custody",
                ["mid"],
                (RelayLink("origin", "mid", custody=("nobody",)),),
            )

    def test_star_derivation_when_no_topology(self):
        star = Scenario(
            name="star",
            description="no topology",
            setting=registry_setting(),
            publisher="origin",
            peers=["a", "b"],
            snapshots=SNAPSHOTS,
        )
        assert star.topology == ()
        assert {link.recipient for link in star.relay_links} == {"a", "b"}
        assert all(link.sender == "origin" for link in star.relay_links)

    def test_downstream_upstreams_walk_the_graph(self):
        scenario = relay_mesh_scenario(seed=0)
        hubs = {link.recipient for link in scenario.downstream("origin")}
        assert hubs == {"hub-a", "hub-b"}
        feeders = {link.sender for link in scenario.upstreams("leaf")}
        assert feeders == {"hub-a", "hub-b"}

    def test_topology_round_trips_through_json(self):
        for builder in (relay_chain_scenario, relay_mesh_scenario):
            scenario = builder(seed=4)
            restored = loads_scenario(dumps_scenario(scenario))
            assert restored.topology == scenario.topology
            assert restored.relay_links == scenario.relay_links

    def test_custody_round_trips(self):
        scenario = relay_mesh_scenario(seed=0)
        encoded = json.loads(dumps_scenario(scenario))
        assert all(entry["custody"] == ["origin"] for entry in encoded["topology"])
        restored = loads_scenario(json.dumps(encoded))
        assert all(
            link.custody == frozenset({"origin"}) for link in restored.topology
        )


# ----------------------------------------------------------------------
# the PDE31x lint rules
# ----------------------------------------------------------------------


def lint_codes(scenario, deltas=False):
    return sorted(
        diagnostic.code
        for diagnostic in analyze_scenario(scenario, deltas=deltas).diagnostics
    )


class TestMeshLint:
    def test_shipped_relay_scenarios_lint_clean(self):
        for builder in (relay_chain_scenario, relay_mesh_scenario):
            for deltas in (False, True):
                report = analyze_scenario(builder(seed=0), deltas=deltas)
                assert report.clean, [d.code for d in report.diagnostics]

    def test_custody_gap_is_an_error(self):
        # leaf has no in-link at all: statically starved of the feed.
        gapped = mesh(
            "gap", ["mid", "leaf"], (RelayLink("origin", "mid"),)
        )
        assert lint_codes(gapped) == ["PDE312"]

    def test_relay_cycle_warns(self):
        cyclic = mesh(
            "cycle",
            ["mid", "back"],
            (
                RelayLink("origin", "mid"),
                RelayLink("mid", "back"),
                RelayLink("back", "mid"),
            ),
        )
        assert lint_codes(cyclic) == ["PDE311"]

    def test_unrestored_relay_path_warns_per_severed_peer(self):
        severed = mesh(
            "sever",
            ["mid", "leaf"],
            (RelayLink("origin", "mid"), RelayLink("mid", "leaf")),
            events=[Crash(0.5, "mid")],
        )
        codes = lint_codes(severed)
        # mid: crash-without-restart; leaf: relay-unreachable; and with
        # nobody reachable the convergence check is vacuous.
        assert codes == ["PDE302", "PDE304", "PDE310"]

    def test_partition_severing_one_edge_is_not_vacuous(self):
        edge = mesh(
            "edge",
            ["mid", "leaf"],
            (RelayLink("origin", "mid"), RelayLink("mid", "leaf")),
            events=[
                Partition(0.5, {"origin", "mid"}, {"leaf"}),
            ],
        )
        codes = lint_codes(edge)
        assert "PDE310" in codes  # leaf severed through the relay graph
        assert "PDE304" not in codes  # mid is still reachable

    def test_star_rules_stay_quiet_on_topologies(self):
        # A reorder schedule whose delay cannot overtake would be PDE307
        # on a star; the overtake argument assumes adjacency, so a
        # topology scenario must not emit it.
        noisy = mesh(
            "quiet",
            ["mid", "leaf"],
            (RelayLink("origin", "mid"), RelayLink("mid", "leaf")),
            faults={
                ("origin", "mid"): FaultSchedule.seeded(seed=1, reorder=0.5),
            },
        )
        codes = lint_codes(noisy, deltas=True)
        assert "PDE307" not in codes
        assert "PDE308" not in codes
