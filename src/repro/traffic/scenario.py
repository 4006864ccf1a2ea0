"""Scenario configuration and population sharding.

A :class:`ScenarioConfig` is the complete, picklable definition of one
traffic experiment: how many users, which browser-policy cohorts they
split into (§2.3's Chromium IP-coalescing vs Firefox ORIGIN mix), how
long the scenario runs, how the edge fleet is provisioned, and which
deployment switches (§5's certificate reissue + ORIGIN frames) are on.

The population is partitioned into contiguous user-id shards exactly
like the crawl's site shards: the shard *layout* is part of the
experiment definition, each shard simulates its users against its own
replica of the world on its own clock, and shard aggregates merge in
shard order -- so ``--jobs`` never changes a byte of output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.dataset.shard import derive_seed

#: Seed domains for :func:`~repro.dataset.shard.derive_seed`; the
#: crawl owns 0 (world) and 1 (crawler), traffic owns 2.
TRAFFIC_POPULATION_DOMAIN = 2

CHROME_98_UA = (
    "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 "
    "(KHTML, like Gecko) Chrome/98.0.4758.102 Safari/537.36"
)
FIREFOX_96_UA = (
    "Mozilla/5.0 (X11; Linux x86_64; rv:96.0) Gecko/20100101 Firefox/96.0"
)


@dataclass(frozen=True)
class CohortSpec:
    """One user cohort: a browser policy plus its population share."""

    name: str
    #: Key into :data:`repro.browser.policy.POLICY_FACTORIES`.
    policy: str
    #: Fraction of the population; shares are normalized over the mix.
    share: float
    user_agent: str
    cache_enabled: bool = True


#: §2.3 default mix: Chromium-engine browsers dominate, Firefox is the
#: ORIGIN-frame-respecting minority.
BASELINE_COHORTS: Tuple[CohortSpec, ...] = (
    CohortSpec("chromium", "chromium", 0.65, CHROME_98_UA),
    CohortSpec("firefox", "firefox", 0.35, FIREFOX_96_UA),
)
#: Everyone runs Firefox with ORIGIN-frame support (§5.3's client).
ORIGIN_COHORTS: Tuple[CohortSpec, ...] = (
    CohortSpec("firefox-origin", "firefox+origin", 1.0, FIREFOX_96_UA),
)
#: The paper's best case: ORIGIN coalescing without the blocking DNS
#: check, certificates already covering co-hosted origins.
IDEAL_SAN_COHORTS: Tuple[CohortSpec, ...] = (
    CohortSpec("ideal-san", "ideal-origin", 1.0, FIREFOX_96_UA),
)

#: The what-if axis: named policy mixes over the same world and
#: population.  ``origin``/``ideal-san`` also flip the §5 deployment
#: switches (reissued certificates + ORIGIN frames at the CDN).
WHAT_IF_POLICIES: Tuple[str, ...] = ("baseline", "origin", "ideal-san")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything that defines one traffic experiment."""

    users: int = 1000
    site_count: int = 40
    seed: int = 2022
    #: Simulated wall-clock over which visits arrive.
    duration_ms: float = 60_000.0
    #: Mean page visits per user; revisits reuse the user's warm
    #: browser cache and TLS tickets (Sy et al.'s returning users).
    mean_visits_per_user: float = 2.0
    bucket_ms: float = 5_000.0
    cohorts: Tuple[CohortSpec, ...] = BASELINE_COHORTS
    #: ``none`` leaves the world as generated; ``origin`` runs the §5
    #: deployment (certificate reissue + ORIGIN frames at the CDN)
    #: before traffic starts.
    deployment: str = "none"
    #: Fleet-wide concurrent-connection capacity per edge (None =
    #: unlimited).  Divided across shards: each shard is a replica of
    #: the fleet serving its own user slice.
    edge_capacity: Optional[int] = None
    goaway_retry_limit: int = 2
    goaway_retry_backoff_ms: float = 120.0
    #: Zipf-like exponent for per-visit site choice (popular sites
    #: absorb most visits).
    zipf_alpha: float = 1.3

    def __post_init__(self) -> None:
        if self.users < 1:
            raise ValueError(f"users must be >= 1, got {self.users}")
        if self.duration_ms <= 0:
            raise ValueError(f"bad duration {self.duration_ms}")
        if self.bucket_ms <= 0:
            raise ValueError(f"bad bucket width {self.bucket_ms}")
        if self.deployment not in ("none", "origin"):
            raise ValueError(f"unknown deployment {self.deployment!r}")
        if not self.cohorts:
            raise ValueError("at least one cohort required")

    def normalized_shares(self) -> List[float]:
        total = sum(cohort.share for cohort in self.cohorts)
        if total <= 0:
            raise ValueError("cohort shares must sum to > 0")
        return [cohort.share / total for cohort in self.cohorts]


def scenario_for_policy(
    base: ScenarioConfig, policy: str
) -> ScenarioConfig:
    """The what-if variant of ``base`` for one named policy mix."""
    if policy == "baseline":
        return replace(base, cohorts=BASELINE_COHORTS, deployment="none")
    if policy == "origin":
        return replace(base, cohorts=ORIGIN_COHORTS, deployment="origin")
    if policy == "ideal-san":
        return replace(base, cohorts=IDEAL_SAN_COHORTS,
                       deployment="origin")
    raise ValueError(
        f"unknown what-if policy {policy!r} "
        f"(expected one of {WHAT_IF_POLICIES})"
    )


@dataclass(frozen=True)
class UserShard:
    """One worker's contiguous user-id slice of a scenario."""

    scenario: ScenarioConfig
    index: int
    shard_count: int
    #: 0-based half-open user slice [lo, hi).
    lo: int
    hi: int

    @property
    def user_count(self) -> int:
        return self.hi - self.lo

    def population_seed(self) -> int:
        return derive_seed(
            self.scenario.seed, TRAFFIC_POPULATION_DOMAIN,
            self.index, self.shard_count,
        )

    def edge_capacity(self) -> Optional[int]:
        """This shard replica's slice of the fleet-wide capacity."""
        if self.scenario.edge_capacity is None:
            return None
        return max(1, self.scenario.edge_capacity // self.shard_count)


#: Default shard granularity: one shard per ~500 users.
USERS_PER_SHARD = 500


def plan_user_shards(
    scenario: ScenarioConfig, shard_count: Optional[int] = None
) -> List[UserShard]:
    """Partition the population into contiguous, near-equal shards.

    Deterministic: shard ``i`` of ``n`` always covers the same user
    ids for a given population size, independent of worker count.
    """
    users = scenario.users
    if not shard_count:
        shard_count = max(1, -(-users // USERS_PER_SHARD))
    shard_count = max(1, min(shard_count, users))
    base, extra = divmod(users, shard_count)
    shards: List[UserShard] = []
    lo = 0
    for index in range(shard_count):
        size = base + (1 if index < extra else 0)
        shards.append(UserShard(
            scenario=scenario, index=index, shard_count=shard_count,
            lo=lo, hi=lo + size,
        ))
        lo += size
    return shards
