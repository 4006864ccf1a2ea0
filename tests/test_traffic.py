"""The population-scale traffic subsystem, unit through end to end.

End-to-end scenarios here stay tiny (a dozen users, a handful of
sites) -- the full-size determinism checks live in the CI
``traffic-smoke`` job, and perfbench's ``traffic`` workload runs the
``origin`` what-if.
"""

import json

import pytest

from repro.audit.log import events_to_jsonl
from repro.audit.reasons import ReasonCode
from repro.cli import main
from repro.dataset.world import build_world
from repro.deployment.experiment import deployment_world_config
from repro.traffic import (
    BASELINE_COHORTS,
    LoadCounters,
    ScenarioConfig,
    TrafficAggregate,
    WHAT_IF_POLICIES,
    build_population,
    deploy_fleet_origin,
    edge_groups,
    apply_edge_capacity,
    plan_user_shards,
    run_scenario,
    scenario_for_policy,
    simulate_shard,
    what_if_rows,
)
from repro.traffic.edge import SELF_HOSTED


def tiny_scenario(**overrides) -> ScenarioConfig:
    defaults = dict(
        users=12,
        site_count=6,
        seed=2022,
        duration_ms=8_000.0,
        mean_visits_per_user=2.0,
        bucket_ms=2_000.0,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestPopulation:
    def test_population_is_deterministic(self):
        shard = plan_user_shards(tiny_scenario(), 1)[0]
        first = build_population(shard)
        second = build_population(shard)
        assert first == second

    def test_shards_partition_users_contiguously(self):
        scenario = tiny_scenario(users=10)
        shards = plan_user_shards(scenario, 2)
        ids = []
        for shard in shards:
            profiles, _ = build_population(shard)
            ids.extend(sorted(profiles))
        assert ids == list(range(10))

    def test_cohort_mix_covers_population(self):
        shard = plan_user_shards(tiny_scenario(users=40), 1)[0]
        profiles, _ = build_population(shard)
        names = {profile.cohort.name for profile in profiles.values()}
        assert names <= {spec.name for spec in BASELINE_COHORTS}
        assert len(names) > 1  # the mix actually mixes

    def test_schedule_sorted_and_in_window(self):
        scenario = tiny_scenario(users=20)
        shard = plan_user_shards(scenario, 1)[0]
        _, schedule = build_population(shard)
        times = [visit.at_ms for visit in schedule]
        assert times == sorted(times)
        assert all(0.0 <= t < scenario.duration_ms for t in times)
        assert any(visit.visit_seq > 0 for visit in schedule)


class TestAggregate:
    def test_merge_adds_counters(self):
        left = TrafficAggregate(users=2)
        left.edge_for("provider:X").connections = 3
        left.cohort_for("a").visits = 4
        left.bucket_for(0.0).requests = 5
        right = TrafficAggregate(users=3)
        right.edge_for("provider:X").connections = 7
        right.cohort_for("a").visits = 1
        right.bucket_for(0.0).requests = 2
        left.merge(right)
        assert left.users == 5
        assert left.edges["provider:X"].connections == 10
        assert left.cohorts["a"].visits == 5
        assert left.buckets[0].requests == 7

    def test_dict_roundtrip_preserves_jsonl(self):
        aggregate = TrafficAggregate(users=4, duration_ms=1000.0)
        aggregate.edge_for("provider:X").handshakes = 2
        aggregate.cohort_for("a").plt_total_ms = 123.4567891
        aggregate.bucket_for(4500.0).coalesced_requests = 1
        restored = TrafficAggregate.from_dict(aggregate.to_dict())
        assert restored.to_jsonl() == aggregate.to_jsonl()

    def test_coalesced_share_series_skips_empty_buckets(self):
        aggregate = TrafficAggregate(bucket_ms=1000.0)
        aggregate.bucket_for(0.0).requests = 10
        aggregate.bucket_for(0.0).coalesced_requests = 5
        aggregate.bucket_for(2500.0)  # empty: no requests
        series = aggregate.coalesced_share_series()
        assert series == [(0.0, 0.5, 10)]


class TestEdgeGroups:
    def test_groups_cover_every_server_kind(self):
        world = build_world(deployment_world_config(
            site_count=8, seed=2022,
        ))
        names = [name for name, _ in edge_groups(world)]
        assert len(names) == len(set(names))
        assert any(name.startswith("provider:") for name in names)
        assert SELF_HOSTED in names

    def test_capacity_applies_to_edges_not_origins(self):
        world = build_world(deployment_world_config(
            site_count=8, seed=2022,
        ))
        apply_edge_capacity(world, 4)
        for server in world.provider_servers.values():
            assert server.config.max_concurrent_connections == 4
        for hosted in world.sites:
            if hosted.record.self_hosted:
                assert (hosted.server.config.max_concurrent_connections
                        is None)


class TestFleetOriginDeployment:
    def test_reissues_cover_cohosted_popular_names(self):
        world = build_world(deployment_world_config(
            site_count=6, seed=2022,
        ))
        reissued = deploy_fleet_origin(world)
        assert reissued > 0
        by_provider = {}
        for hostname, provider in world.popular_hostnames.items():
            by_provider.setdefault(provider, []).append(hostname)
        for provider, popular in by_provider.items():
            server = world.provider_servers.get(provider)
            if server is None:
                continue
            assert server.config.send_origin_frames
            for hostname in popular:
                chain = next(
                    chain for chain in server.config.chains
                    if chain[0].subject == hostname
                )
                assert all(chain[0].covers(name) for name in popular)
                origin_set = server.config.origin_sets[hostname]
                assert origin_set == tuple(
                    f"https://{name}" for name in sorted(popular)
                )

    def test_provider_hosted_site_certs_grow(self):
        world = build_world(deployment_world_config(
            site_count=6, seed=2022,
        ))
        deploy_fleet_origin(world)
        for hosted in world.sites:
            record = hosted.record
            if record.self_hosted or not hosted.certificate.san:
                continue
            popular = sorted(
                name for name, provider
                in world.popular_hostnames.items()
                if provider == record.provider
            )
            assert all(hosted.certificate.covers(name)
                       for name in popular)

    def test_idempotent_on_second_call(self):
        world = build_world(deployment_world_config(
            site_count=6, seed=2022,
        ))
        deploy_fleet_origin(world)
        assert deploy_fleet_origin(world) == 0


class TestSimulateShard:
    def test_counters_and_audit_reconcile(self):
        shard = plan_user_shards(tiny_scenario(), 1)[0]
        shard_result = simulate_shard(shard)
        aggregate = shard_result.payload
        events = shard_result.events
        monitor = shard_result.extra
        assert aggregate.visits > 0
        assert aggregate.completed > 0
        assert aggregate.totals.connections > 0
        assert aggregate.totals.handshakes > 0
        assert aggregate.totals.requests > 0
        # The fleet peak is a gauge over all edges, bounded by the sum
        # of per-edge activity.
        assert 0 < aggregate.totals.peak_concurrent <= \
            aggregate.totals.connections
        assert monitor.current_connections == 0  # all drained
        assert events
        # Every decision carries a real reason code (no UNKNOWNs).
        for event in events:
            assert ReasonCode(event.reason)

    def test_revisits_hit_warm_caches(self):
        shard = plan_user_shards(
            tiny_scenario(users=16, mean_visits_per_user=3.0), 1,
        )[0]
        aggregate = simulate_shard(shard, audit=False).payload
        revisits = sum(t.revisits for t in aggregate.cohorts.values())
        cached = sum(
            t.cached_responses for t in aggregate.cohorts.values()
        )
        assert revisits > 0
        assert cached > 0
        assert aggregate.totals.resumed > 0  # TLS tickets survive

    def test_overload_goaways_and_retries(self):
        shard = plan_user_shards(
            tiny_scenario(users=16, edge_capacity=2), 1,
        )[0]
        shard_result = simulate_shard(shard)
        aggregate = shard_result.payload
        events = shard_result.events
        assert aggregate.totals.goaways > 0
        assert aggregate.retries > 0
        reasons = {event.reason for event in events}
        assert ReasonCode.EDGE_OVERLOAD_GOAWAY.value in reasons
        assert ReasonCode.MISS_RETRY_AFTER_GOAWAY.value in reasons

    def test_audit_does_not_perturb_the_aggregate(self):
        """Retries are counted as they happen, so an unaudited shard
        keeps no audit log at all, its aggregate is the same as the
        audited one's, and the retry headline equals the audit
        stream's ``"retry"`` event count."""
        shard = plan_user_shards(
            tiny_scenario(users=16, edge_capacity=2), 1,
        )[0]
        audited = simulate_shard(shard, audit=True)
        unaudited = simulate_shard(shard, audit=False)
        assert unaudited.events == []
        assert not unaudited.extra.audit.enabled
        assert unaudited.extra.audit.events == []
        assert unaudited.payload.to_jsonl() == audited.payload.to_jsonl()
        assert json.dumps(unaudited.metrics) == json.dumps(audited.metrics)
        retry_events = sum(
            1 for event in audited.events if event.kind == "retry"
        )
        assert audited.payload.retries == retry_events > 0

    def test_zero_retry_budget_degrades_gracefully(self):
        shard = plan_user_shards(
            tiny_scenario(users=16, edge_capacity=2,
                          goaway_retry_limit=0), 1,
        )[0]
        aggregate = simulate_shard(shard, audit=False).payload
        assert aggregate.totals.goaways > 0
        assert aggregate.retries == 0
        assert aggregate.failed > 0  # refused loads fail, not crash


class TestRunScenario:
    def test_jobs_do_not_change_a_byte(self):
        scenario = tiny_scenario()
        serial, serial_trace = run_scenario(
            scenario, shard_count=2, jobs=1, trace=True
        )
        parallel, parallel_trace = run_scenario(
            scenario, shard_count=2, jobs=2, trace=True
        )
        assert serial.to_jsonl() == parallel.to_jsonl()
        assert events_to_jsonl(serial_trace.audit) == \
            events_to_jsonl(parallel_trace.audit)
        assert serial_trace.spans
        assert serial_trace.to_jsonl() == parallel_trace.to_jsonl()
        assert json.dumps(serial_trace.metrics.snapshot()) == \
            json.dumps(parallel_trace.metrics.snapshot())

    def test_shard_count_is_part_of_the_experiment(self):
        scenario = tiny_scenario()
        one, _ = run_scenario(scenario, shard_count=1, audit=False)
        two, _ = run_scenario(scenario, shard_count=2, audit=False)
        assert one.users == two.users == scenario.users
        # Different layouts are different experiments (per-shard world
        # replicas), not required to agree byte for byte.
        assert one.visits > 0 and two.visits > 0


class TestWhatIf:
    def test_origin_reduces_edge_connections(self):
        base = tiny_scenario(users=12, site_count=10)
        baseline, _ = run_scenario(
            scenario_for_policy(base, "baseline"), audit=False,
        )
        origin, _ = run_scenario(
            scenario_for_policy(base, "origin"), audit=False,
        )
        assert origin.totals.connections < baseline.totals.connections
        assert origin.totals.handshakes < baseline.totals.handshakes
        assert origin.totals.coalesced_requests > \
            baseline.totals.coalesced_requests

    def test_rows_cover_every_policy(self):
        results = []
        for index, policy in enumerate(WHAT_IF_POLICIES):
            aggregate = TrafficAggregate(users=1)
            aggregate.totals.connections = 10 - index
            aggregate.cohort_for("a").completed = 1
            aggregate.cohort_for("a").plt_total_ms = 100.0
            results.append((policy, aggregate))
        headers, rows = what_if_rows(results)
        assert headers[0] == "scenario"
        assert [row[0] for row in rows] == list(WHAT_IF_POLICIES)
        assert rows[0][1] == "10"


class TestTrafficCli:
    def test_traffic_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["traffic"])
        assert args.users == 1000
        assert args.sites == 40
        assert args.scenario == "baseline"
        assert args.what_if is False

    def test_traffic_run_writes_canonical_jsonl(self, tmp_path, capsys):
        out = tmp_path / "aggregate.jsonl"
        audit_out = tmp_path / "audit.jsonl"
        assert main([
            "traffic", "--users", "8", "--sites", "5",
            "--duration", "6", "--bucket", "2",
            "--out", str(out), "--audit", str(audit_out),
        ]) == 0
        stdout = capsys.readouterr().out
        assert "Per-cohort outcomes" in stdout
        assert "Edge load by group" in stdout
        assert "Figure 8" in stdout
        lines = out.read_text().splitlines()
        assert lines  # canonical JSONL, meta first
        assert '"kind":"meta"' in lines[0]
        assert audit_out.read_text().strip()

    def test_cache_stats_and_prune(self, tmp_path, capsys):
        cache_dir = tmp_path / "crawls"
        cache_dir.mkdir()
        for index in range(3):
            (cache_dir / f"crawl-{index:032x}.jsonl").write_text("{}\n")
        assert main([
            "cache", "stats", "--cache-dir", str(cache_dir),
        ]) == 0
        assert "3 entries" in capsys.readouterr().out
        assert main([
            "cache", "prune", "--cache-dir", str(cache_dir),
            "--max-entries", "1",
        ]) == 0
        assert len(list(cache_dir.glob("crawl-*.jsonl"))) == 1

    def test_cache_prune_requires_a_bound(self, tmp_path):
        assert main([
            "cache", "prune", "--cache-dir", str(tmp_path),
        ]) == 2
