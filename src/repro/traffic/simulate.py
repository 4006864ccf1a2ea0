"""Population-scale traffic simulation.

One shard simulates its slice of the user population against a full
replica of the synthetic CDN: every user is a persistent browser
profile (own resource cache, DNS cache, and TLS-ticket jar, so
revisits arrive warm), every visit is a real page load on the shared
simulated clock, and every edge event streams into a
:class:`~repro.traffic.aggregate.TrafficAggregate` the moment it
happens -- archives are folded and dropped, never retained.

Shards run on :meth:`~repro.runtime.backend.ExecutionBackend.map_shards`
and merge in shard order, so ``run_scenario(jobs=4)`` is
byte-identical to ``jobs=1``; the shard *layout* is part of the
experiment definition, exactly like the crawl's.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.browser import BrowserContext, BrowserEngine
from repro.browser.policy import policy_by_name
from repro.browser.retry import RetryPolicy
from repro.dataset.shard import ShardResult
from repro.dataset.world import CDN_REGION, TAIL_REGION, build_world
from repro.deployment.experiment import deployment_world_config
from repro.netsim import Host, LinkSpec
from repro.obs.phases import PhaseRecorder
from repro.runtime.backend import ExecutionBackend
from repro.telemetry import CrawlTrace, Telemetry
from repro.traffic.aggregate import TrafficAggregate
from repro.traffic.edge import EdgeLoadMonitor, apply_edge_capacity
from repro.traffic.population import UserProfile, build_population
from repro.traffic.scenario import (
    ScenarioConfig,
    UserShard,
    WHAT_IF_POLICIES,
    plan_user_shards,
    scenario_for_policy,
)

#: Per-user DNS latency knob (matches the crawl's default resolver).
DNS_LATENCY_MS = 48.0


def deploy_fleet_origin(world, now: float = 0.0) -> int:
    """Best-case fleet-wide ORIGIN deployment.

    The §5 :class:`DeploymentExperiment` enrolls a small sample behind
    one provider -- right for measuring a marginal rollout, far too
    small to move population-scale edge load.  The what-if sweep wants
    the paper's *upper bound* instead: every provider edge advertises
    the popular hostnames it co-hosts in ORIGIN frames, and every
    certificate it serves -- provider-hosted site certs and the popular
    hostnames' own certs alike -- is reissued to cover them.  Any
    client connection to such an edge can then coalesce the co-hosted
    third parties (and the third parties each other).

    Certificates with an empty SAN identify exactly one name under
    legacy CN matching and can never coalesce; they are left alone.
    Returns the number of certificates reissued.
    """
    by_provider: Dict[str, List[str]] = {}
    for hostname, provider in world.popular_hostnames.items():
        by_provider.setdefault(provider, []).append(hostname)
    # ``Certificate.issuer`` is normalized (lowercased); the world's
    # issuer registry keys on display names.
    issuers_by_name = {
        name.lower(): authority
        for name, authority in world.issuers.items()
    }
    reissued = 0
    for provider in sorted(by_provider):
        server = world.provider_servers.get(provider)
        if server is None:
            continue
        popular = sorted(by_provider[provider])
        origin_set = tuple(f"https://{name}" for name in popular)
        config = server.config
        config.send_origin_frames = True
        # The popular hostnames' own chains grow to cover the
        # provider's whole popular set, so third parties coalesce with
        # each other on one connection.
        for index, chain in enumerate(config.chains):
            leaf = chain[0] if chain else None
            if leaf is None or not leaf.san:
                continue
            if world.popular_hostnames.get(leaf.subject) != provider:
                continue
            issuer = issuers_by_name.get(leaf.issuer)
            if issuer is None:
                continue
            missing = tuple(
                name for name in popular if not leaf.covers(name)
            )
            if missing:
                renewed = issuer.reissue(leaf, added_san=missing, now=now)
                config.chains[index] = issuer.chain_for(renewed)
                reissued += 1
            config.origin_sets[leaf.subject] = origin_set
    # Provider-hosted sites: each site certificate grows to cover its
    # provider's popular set, and the edge advertises that set for the
    # site's own names.
    for hosted in world.sites:
        record = hosted.record
        if record.self_hosted:
            continue
        popular = sorted(by_provider.get(record.provider, ()))
        if not popular:
            continue
        old = hosted.certificate
        if not old.san:
            continue
        issuer = world.issuers.get(record.issuer)
        if issuer is None:
            continue
        origin_set = tuple(f"https://{name}" for name in popular)
        missing = tuple(
            name for name in popular if not old.covers(name)
        )
        config = hosted.server.config
        if missing:
            renewed = issuer.reissue(old, added_san=missing, now=now)
            for index, chain in enumerate(config.chains):
                if chain and chain[0].serial == old.serial \
                        and chain[0].subject == old.subject:
                    config.chains[index] = issuer.chain_for(renewed)
                    break
            else:
                config.chains.append(issuer.chain_for(renewed))
            hosted.certificate = renewed
            reissued += 1
        config.send_origin_frames = True
        for hostname in record.own_hostnames():
            config.origin_sets[hostname] = origin_set
    return reissued


def _build_traffic_world(scenario: ScenarioConfig):
    """A full world replica for one shard, with the scenario's
    deployment switches applied before any traffic flows."""
    world = build_world(deployment_world_config(
        site_count=scenario.site_count, seed=scenario.seed,
    ))
    if scenario.deployment == "origin":
        deploy_fleet_origin(world)
    return world


def _user_host(world, user_id: int) -> Host:
    """A dedicated access link per user.

    The crawl shares one client host whose region-wide ingress queue
    models one browser's access link; a population must not funnel
    every user through that single queue, so each user gets an own
    region with the same link characteristics and an own shared-ingress
    bottleneck (the user's parallel connections still contend with
    each other, not with the neighbours')."""
    region = f"user-{user_id}"
    latency = world.network.latency
    latency.set_link(region, CDN_REGION,
                     LinkSpec(rtt_ms=24.0, bandwidth_bpms=2500.0))
    latency.set_link(region, TAIL_REGION,
                     LinkSpec(rtt_ms=110.0, bandwidth_bpms=2000.0))
    latency.enable_shared_ingress(region, 2800.0)
    return world.network.add_host(
        Host(region, region, world.allocator.allocate(1))
    )


def _user_engine(
    world, profile: UserProfile, scenario: ScenarioConfig,
    policies: Dict[str, object], telemetry: Telemetry,
) -> BrowserEngine:
    """One persistent browser profile.  No RNG: speculative races and
    TLS 1.2 fallback are disabled, so a user's behaviour is a pure
    function of the schedule -- concurrency cannot reorder draws."""
    cohort = profile.cohort
    resolver = world.make_resolver(median_latency_ms=DNS_LATENCY_MS)
    # Phase latencies are keyed per cohort x policy; recorders over
    # the shared registry dedupe onto the same histograms, so this
    # costs one small object per user.
    phases = PhaseRecorder(telemetry.metrics,
                           policy=cohort.policy, cohort=cohort.name)
    resolver.phases = phases
    context = BrowserContext(
        network=world.network,
        client_host=_user_host(world, profile.user_id),
        resolver=resolver,
        trust_store=world.trust_store,
        authorities=world.authorities,
        policy=policies[cohort.policy],
        rng=None,
        speculative_rate=0.0,
        tls12_rate=0.0,
        asdb=world.asdb,
        cache_enabled=cohort.cache_enabled,
        user_agent=cohort.user_agent,
        tls_session_cache={},
        telemetry=telemetry,
        alpn=("h2",),
        retry_policy=RetryPolicy(
            max_retries=scenario.goaway_retry_limit,
            backoff_base_ms=scenario.goaway_retry_backoff_ms,
        ),
        phases=phases,
    )
    return BrowserEngine(context)


def simulate_shard(
    shard: UserShard, audit: bool = True, trace: bool = False,
) -> ShardResult:
    """Simulate one user-population shard.

    Returns a :class:`~repro.dataset.shard.ShardResult` whose payload
    is the shard's :class:`TrafficAggregate`, bundled with its audit
    events (empty unless ``audit``; retries are counted by the engines
    as they happen, so the aggregate never depends on the flag), its
    spans (empty unless ``trace``), and its metrics snapshot (phase
    histograms and any traced counters).  ``extra`` is the edge
    monitor, whose sampled passive records are useful in-process;
    :func:`run_scenario` drops it before a result leaves the shard.
    """
    scenario = shard.scenario
    world = _build_traffic_world(scenario)
    apply_edge_capacity(world, shard.edge_capacity())
    loop = world.network.loop

    aggregate = TrafficAggregate(
        users=shard.user_count,
        duration_ms=scenario.duration_ms,
        bucket_ms=scenario.bucket_ms,
        shard_count=shard.shard_count,
    )
    telemetry = Telemetry(clock=loop.now, trace=trace, audit=audit)
    monitor = EdgeLoadMonitor(world, aggregate, audit=telemetry.audit)
    monitor.attach()

    policies = {
        cohort.policy: policy_by_name(cohort.policy)
        for cohort in scenario.cohorts
    }
    profiles, schedule = build_population(shard)
    engines: Dict[int, BrowserEngine] = {}
    for user_id in sorted(profiles):
        profile = profiles[user_id]
        aggregate.cohort_for(profile.cohort.name).users += 1
        engines[user_id] = _user_engine(
            world, profile, scenario, policies, telemetry
        )

    def start_visit(profile: UserProfile, visit) -> None:
        tally = aggregate.cohort_for(profile.cohort.name)
        tally.visits += 1
        if visit.visit_seq > 0:
            tally.revisits += 1
        hosted = world.sites[visit.site_index]
        if not hosted.record.accessible:
            tally.inaccessible += 1
            return
        engine = engines[visit.user_id]

        def on_complete(archive) -> None:
            tally.requests += len(archive.entries)
            tally.cached_responses += sum(
                1 for entry in archive.entries
                if entry.protocol == "cache"
            )
            if archive.page.success:
                tally.completed += 1
                tally.plt_total_ms += archive.page.on_load
            else:
                tally.failed += 1

        engine.load(hosted.record.page, on_complete)

    for visit in schedule:
        profile = profiles[visit.user_id]
        loop.schedule_at(
            visit.at_ms,
            lambda profile=profile, visit=visit:
                start_visit(profile, visit),
        )
    loop.run_until_idle()
    monitor.detach()

    for user_id in sorted(engines):
        resolver = engines[user_id].context.resolver
        aggregate.dns_queries += resolver.stats.queries
        aggregate.retries += engines[user_id].retries
    for name in sorted(aggregate.edges):
        aggregate.totals.merge(aggregate.edges[name])
    # Per-edge peaks sum replica-style in ``merge``; the fleet total is
    # the true all-edge gauge peak, not the sum of per-edge peaks.
    aggregate.totals.peak_concurrent = monitor.peak_connections
    return ShardResult(
        payload=aggregate,
        spans=(telemetry.tracer.spans if trace else []),
        metrics=telemetry.metrics.snapshot(),
        events=telemetry.audit.events,
        extra=monitor,
    )


def _scenario_shard(shard: UserShard, audit: bool, trace: bool) -> ShardResult:
    """:func:`simulate_shard` as run under ``run_scenario``: the edge
    monitor (it holds the whole world) is dropped, and the aggregate
    takes the ``to_dict``/``from_dict`` round-trip that gives its
    floats their canonical rounding -- on every path, so ``jobs``
    never changes a byte."""
    shard_result = simulate_shard(shard, audit=audit, trace=trace)
    return replace(
        shard_result,
        payload=TrafficAggregate.from_dict(shard_result.payload.to_dict()),
        extra=None,
    )


def run_scenario(
    scenario: ScenarioConfig,
    shard_count: Optional[int] = None,
    jobs: int = 1,
    audit: bool = True,
    trace: bool = False,
    progress: Optional[Callable[[int, int], None]] = None,
    watch: Optional[Callable[[int, int, CrawlTrace], None]] = None,
) -> Tuple[TrafficAggregate, CrawlTrace]:
    """Run a scenario over its shard plan, merging in shard order.

    Shards run on an :class:`~repro.runtime.backend.ExecutionBackend`
    with ``jobs`` workers, which yields them in shard order.
    ``watch`` (if given) sees the merged-so-far trace after each
    shard -- the run ledger's heartbeat hook.
    """
    shards = plan_user_shards(scenario, shard_count)
    total = len(shards)
    merged = TrafficAggregate(
        duration_ms=scenario.duration_ms,
        bucket_ms=scenario.bucket_ms,
        shard_count=total,
    )
    crawl_trace = CrawlTrace()
    results = ExecutionBackend(jobs).map_shards(
        partial(_scenario_shard, audit=audit, trace=trace), shards
    )
    for done, (shard, shard_result) in enumerate(
            zip(shards, results), start=1):
        merged.merge(shard_result.payload)
        crawl_trace.adopt(shard_result, shard=shard.index)
        if progress is not None:
            progress(done, total)
        if watch is not None:
            watch(done, total, crawl_trace)
    return merged, crawl_trace


def run_what_if(
    base: ScenarioConfig,
    shard_count: Optional[int] = None,
    jobs: int = 1,
    progress: Optional[Callable[[str, int, int], None]] = None,
) -> List[Tuple[str, TrafficAggregate]]:
    """The what-if sweep: the same population and world under each
    named policy mix (baseline browsers, ORIGIN deployment, ideal
    SAN coverage)."""
    results: List[Tuple[str, TrafficAggregate]] = []
    for policy in WHAT_IF_POLICIES:
        scenario = scenario_for_policy(base, policy)
        shard_progress = None
        if progress is not None:
            shard_progress = (
                lambda done, total, policy=policy:
                    progress(policy, done, total)
            )
        aggregate, _ = run_scenario(
            scenario, shard_count=shard_count, jobs=jobs,
            audit=False, progress=shard_progress,
        )
        results.append((policy, aggregate))
    return results


def what_if_rows(
    results: List[Tuple[str, TrafficAggregate]]
) -> Tuple[List[str], List[List[str]]]:
    """Render-ready what-if comparison (headers, rows)."""
    headers = [
        "scenario", "edge conns", "handshakes", "resumed",
        "coalesced", "goaways", "retries", "failed", "mean PLT ms",
    ]
    rows: List[List[str]] = []
    for policy, aggregate in results:
        totals = aggregate.totals
        completed = aggregate.completed
        plt = (
            sum(t.plt_total_ms for t in aggregate.cohorts.values())
            / completed if completed else 0.0
        )
        rows.append([
            policy,
            str(totals.connections),
            str(totals.handshakes),
            f"{totals.resumption_rate:.1%}",
            f"{totals.coalesced_share:.1%}",
            str(totals.goaways),
            str(aggregate.retries),
            str(aggregate.failed),
            f"{plt:.1f}",
        ])
    return headers, rows
