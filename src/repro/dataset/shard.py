"""Sharded, parallel crawling.

The paper fanned its crawl of 315,796 sites out over 100 WebPageTest
VMs (§3.1); this module is the synthetic equivalent.  A
:class:`~repro.dataset.generator.DatasetConfig` is deterministically
partitioned into contiguous rank shards (:func:`plan_shards`); each
shard materializes *only its slice* of the synthetic web into its own
:class:`~repro.dataset.world.SyntheticWorld`, seeded from a seed
derived from ``(config.seed, shard layout)``, and is crawled
independently.  Merging the per-shard results in shard order therefore
yields archives that do not depend on how many worker processes ran
the shards -- ``jobs=4`` is archive-for-archive identical to
``jobs=1`` -- while the shard *layout* (``shard_count``) is part of
the experiment definition, like the paper's VM fan-out.

Site *plans* (ranks, pages, certificate contents) always come from one
full :class:`~repro.dataset.generator.PageGenerator` pass at the
original seed, so a site's identity is unaffected by sharding; only
world-materialization randomness (provider IP picks, server think
times) and crawl randomness are drawn from the derived per-shard
streams.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.browser.policy import policy_by_name
from repro.dataset.crawler import Crawler, CrawlResult
from repro.dataset.generator import DatasetConfig, PageGenerator, SiteRecord
from repro.dataset.world import SyntheticWorld, build_world
from repro.runtime.backend import ExecutionBackend
from repro.telemetry import CrawlTrace, Span, Telemetry

#: Sites per shard when the caller does not pick a layout.
DEFAULT_SHARD_SIZE = 100

#: Seed-derivation domains, so the world stream and the crawler stream
#: of the same shard never collide.
_WORLD_DOMAIN = 0
_CRAWLER_DOMAIN = 1

#: One-entry site-plan cache.  Every shard of a config needs the same
#: full-generation pass; serial runs used to pay it once *per shard*.
#: Plans are pure data -- world construction and crawling never mutate
#: a SiteRecord -- so shards may share one list.  Keyed by config
#: equality; worker processes each hold their own copy.
_PLAN_CACHE: List[Tuple[DatasetConfig, List[SiteRecord]]] = []


def generate_records(config: DatasetConfig) -> List[SiteRecord]:
    """The full ranked site plan for ``config``, memoized (last config
    wins, so sweeps over many configs do not accumulate plans)."""
    if _PLAN_CACHE and _PLAN_CACHE[0][0] == config:
        return _PLAN_CACHE[0][1]
    records = PageGenerator(config).generate_all()
    _PLAN_CACHE[:] = [(config, records)]
    return records


def derive_seed(
    base_seed: int, domain: int, shard_index: int, shard_count: int
) -> int:
    """A stable per-shard seed from the base seed and shard layout.

    Uses :class:`numpy.random.SeedSequence` spawn keys, whose mixing is
    documented as reproducible across platforms and numpy versions.
    """
    sequence = np.random.SeedSequence(
        entropy=int(base_seed),
        spawn_key=(int(domain), int(shard_count), int(shard_index)),
    )
    return int(sequence.generate_state(1, dtype=np.uint32)[0])


@dataclass(frozen=True)
class ShardSpec:
    """One worker's slice of a dataset configuration."""

    config: DatasetConfig
    index: int
    shard_count: int
    #: 0-based half-open site slice [lo, hi) into the ranked site list.
    lo: int
    hi: int

    @property
    def site_count(self) -> int:
        return self.hi - self.lo

    @property
    def world_seed(self) -> int:
        return derive_seed(
            self.config.seed, _WORLD_DOMAIN, self.index, self.shard_count
        )

    def crawler_seed(self, base_seed: int) -> int:
        return derive_seed(
            base_seed, _CRAWLER_DOMAIN, self.index, self.shard_count
        )

    def records(self) -> List[SiteRecord]:
        """This shard's site plans, from one full-generation pass.

        The complete list is always generated at the original seed and
        sliced -- which keeps each site's plan byte-identical no matter
        the shard layout -- but the pass itself is memoized per config
        (:func:`generate_records`), so a serial multi-shard crawl plans
        the web once instead of once per shard.
        """
        return generate_records(self.config)[self.lo:self.hi]

    def build_world(self) -> SyntheticWorld:
        """Materialize only this shard's slice, on the derived seed."""
        world_config = replace(self.config, seed=self.world_seed)
        return build_world(world_config, records=self.records())


def default_shard_count(site_count: int) -> int:
    """Shard layout when the caller does not pick one: ~100-site
    shards, at least one."""
    return max(1, -(-site_count // DEFAULT_SHARD_SIZE))


def plan_shards(
    config: DatasetConfig, shard_count: Optional[int] = None
) -> List[ShardSpec]:
    """Partition ``config`` into contiguous, near-equal rank shards.

    The partition is deterministic: shard ``i`` of ``n`` always covers
    the same ranks for a given ``site_count``, independent of worker
    count or scheduling.
    """
    total = config.site_count
    count = shard_count if shard_count else default_shard_count(total)
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    count = min(count, total)
    base, extra = divmod(total, count)
    shards: List[ShardSpec] = []
    lo = 0
    for index in range(count):
        hi = lo + base + (1 if index < extra else 0)
        shards.append(ShardSpec(
            config=config, index=index, shard_count=count, lo=lo, hi=hi
        ))
        lo = hi
    return shards


@dataclass(frozen=True)
class ShardResult:
    """One shard worker's bundled output, crawl and traffic alike.

    ``payload`` is the workload's own merge unit (a
    :class:`~repro.dataset.crawler.CrawlResult` for crawl shards, a
    :class:`~repro.traffic.aggregate.TrafficAggregate` for traffic
    shards); ``spans``/``metrics``/``events`` are the telemetry
    bundle that :meth:`~repro.telemetry.CrawlTrace.adopt` merges in
    shard order.  :meth:`~repro.runtime.backend.ExecutionBackend.map_shards`
    owns ordering and transport: at ``jobs > 1`` the whole result is
    pickled across the process boundary.  ``extra`` carries
    worker-local state for in-process callers (the traffic shard's
    :class:`~repro.traffic.edge.EdgeLoadMonitor`, the chaos shard's
    fault injector); both hold the shard's whole world, so the
    workloads clear it before a result leaves the shard function.
    """

    payload: object
    spans: Sequence[Span] = ()
    metrics: Sequence[dict] = ()
    events: Sequence[object] = ()
    extra: object = None


@dataclass(frozen=True)
class CrawlParams:
    """Crawler knobs that shape results (and key the crawl cache)."""

    policy: str = "chromium"
    speculative_rate: float = 0.12
    dns_latency_ms: float = 48.0
    seed: int = 7
    #: Comma-joined ALPN offer (``"h2"`` or ``"h2,h3"``).  The default
    #: is omitted from the cache key so pre-h3 cache entries still hit.
    alpn: str = "h2"


def _shard_crawler(
    spec: ShardSpec, params: CrawlParams, world: SyntheticWorld, **options
) -> Crawler:
    """The crawler for one shard; ``options`` are extra
    :class:`~repro.dataset.crawler.Crawler` arguments (telemetry,
    retry policy)."""
    return Crawler(
        world,
        policy=policy_by_name(params.policy),
        speculative_rate=params.speculative_rate,
        dns_latency_ms=params.dns_latency_ms,
        seed=spec.crawler_seed(params.seed),
        alpn=params.alpn,
        **options,
    )


def crawl_shard(spec: ShardSpec, params: CrawlParams) -> CrawlResult:
    """Build one shard's world and crawl it (runs inside workers)."""
    return _shard_crawler(spec, params, spec.build_world()).crawl()


def crawl_shard_traced(
    spec: ShardSpec, params: CrawlParams,
    trace: bool = True, audit: bool = True,
    arm: Optional[
        Callable[[SyntheticWorld, Crawler, Telemetry], object]
    ] = None,
    **options,
) -> ShardResult:
    """Crawl one shard with live telemetry.

    Returns a :class:`ShardResult` whose payload is the shard's
    :class:`~repro.dataset.crawler.CrawlResult`; the spans carry the
    shard's local ids and timestamps (its simulated clock starts at
    zero) and are merged/renumbered by
    :meth:`~repro.telemetry.CrawlTrace.adopt` in shard order, as are
    the audit events.  ``trace``/``audit`` toggle the collectors
    independently; neither draws randomness nor schedules events, so
    the archives are identical to an untraced :func:`crawl_shard` of
    the same spec.

    ``options`` go to the crawler; ``arm`` (if given) runs once the
    crawler is built, before the shard span opens, and what it returns
    lands in ``extra`` -- the chaos runner arms its fault injector
    there.
    """
    world = spec.build_world()
    telemetry = Telemetry(
        clock=world.network.loop.now, trace=trace, audit=audit
    )
    crawler = _shard_crawler(
        spec, params, world, telemetry=telemetry, **options
    )
    armed = arm(world, crawler, telemetry) if arm is not None else None
    shard_span = None
    if telemetry.tracer.enabled:
        shard_span = telemetry.tracer.begin(
            "shard", category="crawler", index=spec.index,
            sites=spec.site_count,
        )
    result = crawler.crawl()
    if shard_span is not None:
        telemetry.tracer.end(
            shard_span, attempted=result.attempted,
            succeeded=result.success_count,
        )
    return ShardResult(
        payload=result,
        spans=telemetry.tracer.spans,
        metrics=telemetry.metrics.snapshot(),
        events=telemetry.audit.events,
        extra=armed,
    )


class ParallelCrawler:
    """Crawls a dataset shard-by-shard, optionally across processes.

    Shards run on an :class:`~repro.runtime.backend.ExecutionBackend`
    with ``jobs`` workers, which yields their results in shard order;
    merging them in that order makes the output identical whatever
    ``jobs`` ran it.
    """

    def __init__(
        self,
        config: DatasetConfig,
        params: Optional[CrawlParams] = None,
        shard_count: Optional[int] = None,
        jobs: int = 1,
    ) -> None:
        self.config = config
        self.params = params or CrawlParams()
        self.shards = plan_shards(config, shard_count)
        self.backend = ExecutionBackend(jobs)

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def crawl(
        self,
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> CrawlResult:
        """Crawl all shards; ``progress`` gets (done_shards, total)."""
        total = len(self.shards)
        merged = CrawlResult()
        results = self.backend.map_shards(
            partial(crawl_shard, params=self.params), self.shards
        )
        for done, result in enumerate(results, start=1):
            merged.archives.extend(result.archives)
            if progress is not None:
                progress(done, total)
        return merged

    def crawl_traced(
        self,
        progress: Optional[Callable[[int, int], None]] = None,
        trace: bool = True,
        audit: bool = True,
        watch: Optional[
            Callable[[int, int, CrawlTrace], None]
        ] = None,
    ) -> Tuple[CrawlResult, CrawlTrace]:
        """Crawl all shards with telemetry; merge spans, metrics, and
        audit events.

        Shard results are merged in shard order with renumbered span
        ids and audit sequence numbers, so the trace is byte-identical
        whatever ``jobs`` ran it.  ``watch`` (if given) sees
        ``(done_shards, total, merged_trace_so_far)`` after each shard
        merge -- the run ledger's heartbeat reads live counters there.
        """
        total = len(self.shards)
        merged = CrawlResult()
        crawl_trace = CrawlTrace()
        results = self.backend.map_shards(
            partial(crawl_shard_traced, params=self.params,
                    trace=trace, audit=audit),
            self.shards,
        )
        for done, (spec, shard_result) in enumerate(
                zip(self.shards, results), start=1):
            merged.archives.extend(shard_result.payload.archives)
            crawl_trace.adopt(shard_result, shard=spec.index)
            if progress is not None:
                progress(done, total)
            if watch is not None:
                watch(done, total, crawl_trace)
        return merged, crawl_trace


def plan_certificates_sharded(
    config: DatasetConfig, shard_count: Optional[int] = None
):
    """The §4.3 certificate plan over per-shard worlds, merged in
    shard order -- world materialization without any crawling, for
    cache-hit paths that still need certificate state."""
    from repro.core.certplan import CertificatePlan, plan_certificates

    plans = []
    for spec in plan_shards(config, shard_count):
        plans.extend(plan_certificates(spec.build_world()).plans)
    return CertificatePlan(plans=plans)
