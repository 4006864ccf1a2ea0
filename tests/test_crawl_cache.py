"""Crawl persistence and the content-addressed crawl cache."""

import pytest

from repro.dataset.cache import (
    CACHE_ENV_VAR,
    CrawlCache,
    cache_key,
    crawl_cached,
    default_cache_dir,
)
from repro.dataset.crawler import CrawlResult
from repro.dataset.generator import DatasetConfig
from repro.dataset.shard import CrawlParams
from repro.web.har import HarArchive, HarEntry, HarPage, HarTimings


def make_result() -> CrawlResult:
    """Two archives: one success with an entry, one failed page."""
    ok = HarArchive(
        page=HarPage(
            url="https://www.site000001.com/",
            hostname="www.site000001.com",
            rank=1,
            on_content_load=120.5,
            on_load=348.25,
            success=True,
            extra_tls_connections=1,
        ),
        entries=[
            HarEntry(
                url="https://www.site000001.com/",
                hostname="www.site000001.com",
                path="/",
                started_at=3.5,
                timings=HarTimings(dns=12.0, connect=24.0, ssl=36.5,
                                   wait=80.0, receive=10.25),
                server_ip="10.0.0.1",
                dns_addresses=["10.0.0.1", "10.0.0.2"],
                certificate_san=["www.site000001.com", "site000001.com"],
                certificate_issuer="Let's Encrypt (R3)",
                asn=13335,
                as_org="Cloudflare",
                coalesced=False,
            ),
        ],
    )
    failed = HarArchive(
        page=HarPage(
            url="https://www.site000002.net/",
            hostname="www.site000002.net",
            rank=2,
            success=False,
            failure_reason="non-200 or CAPTCHA",
        )
    )
    return CrawlResult(archives=[ok, failed])


class TestCrawlResultRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        result = make_result()
        path = tmp_path / "crawl.jsonl"
        assert result.save(path) == 2
        loaded = CrawlResult.load(path)
        assert loaded.archives == result.archives

    def test_failed_page_survives_round_trip(self, tmp_path):
        result = make_result()
        path = tmp_path / "crawl.jsonl"
        result.save(path)
        loaded = CrawlResult.load(path)
        failed = loaded.archives[1]
        assert failed.page.success is False
        assert failed.page.failure_reason == "non-200 or CAPTCHA"
        assert failed.entries == []
        assert loaded.success_count == 1

    def test_timings_and_floats_are_exact(self, tmp_path):
        result = make_result()
        path = tmp_path / "crawl.jsonl"
        result.save(path)
        entry = CrawlResult.load(path).archives[0].entries[0]
        assert entry.timings.ssl == 36.5
        assert entry.started_at == 3.5
        assert entry.finished_at == result.archives[0].entries[0].finished_at


class TestSuccessesMemo:
    def test_successes_computed_once(self):
        result = make_result()
        first = result.successes
        assert first is result.successes  # same list object, no rebuild
        assert [a.page.hostname for a in first] == ["www.site000001.com"]

    def test_append_invalidates_memo(self):
        result = make_result()
        before = result.successes
        result.archives.append(
            HarArchive(page=HarPage(url="https://x/", hostname="x",
                                    success=True))
        )
        after = result.successes
        assert after is not before
        assert len(after) == 2

    def test_memo_excluded_from_equality(self):
        left, right = make_result(), make_result()
        left.successes  # populate one memo only
        assert left == right


class TestCacheKey:
    def setup_method(self):
        self.config = DatasetConfig(site_count=40, seed=2022)
        self.params = CrawlParams(policy="chromium")

    def test_stable(self):
        assert cache_key(self.config, self.params, 2) == \
            cache_key(self.config, self.params, 2)

    def test_sensitive_to_every_input(self):
        base = cache_key(self.config, self.params, 2)
        assert cache_key(DatasetConfig(site_count=41, seed=2022),
                         self.params, 2) != base
        assert cache_key(DatasetConfig(site_count=40, seed=2023),
                         self.params, 2) != base
        assert cache_key(self.config,
                         CrawlParams(policy="firefox"), 2) != base
        assert cache_key(self.config,
                         CrawlParams(policy="chromium",
                                     speculative_rate=0.2), 2) != base
        assert cache_key(self.config, self.params, 3) != base

    def test_format_version_bump_retires_old_entries(self, monkeypatch):
        # Version 2 changed crawl semantics (browser-like HTTP/2 flow
        # control), so no archive crawled under version 1 may be served.
        from repro.dataset import cache

        assert cache.CACHE_FORMAT_VERSION == 2
        current = cache_key(self.config, self.params, 2)
        monkeypatch.setattr(cache, "CACHE_FORMAT_VERSION", 1)
        assert cache_key(self.config, self.params, 2) != current


class TestCrawlCache:
    def test_miss_then_hit(self, tmp_path):
        cache = CrawlCache(tmp_path)
        key = "deadbeef"
        assert cache.load(key) is None
        path = cache.store(key, make_result())
        assert path.is_file()
        assert cache.has(key)
        loaded = cache.load(key)
        assert loaded is not None
        assert loaded.archives == make_result().archives

    def test_corrupt_entry_treated_as_miss_and_dropped(self, tmp_path):
        cache = CrawlCache(tmp_path)
        cache.root.mkdir(parents=True, exist_ok=True)
        cache.path_for("bad").write_text("{not json\n", encoding="utf-8")
        assert cache.load("bad") is None
        assert not cache.has("bad")

    def test_invalidate_and_clear(self, tmp_path):
        cache = CrawlCache(tmp_path)
        cache.store("one", make_result())
        cache.store("two", make_result())
        assert cache.invalidate("one") is True
        assert cache.invalidate("one") is False
        assert cache.clear() == 1
        assert not cache.has("two")

    def test_env_var_overrides_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"

    def test_crawl_cached_end_to_end(self, tmp_path):
        config = DatasetConfig(site_count=6, seed=17)
        params = CrawlParams(policy="chromium", speculative_rate=0.10)
        cache = CrawlCache(tmp_path)
        first, hit_first = crawl_cached(
            config, params=params, shard_count=2, cache=cache
        )
        assert hit_first is False
        second, hit_second = crawl_cached(
            config, params=params, shard_count=2, cache=cache
        )
        assert hit_second is True
        assert second.archives == first.archives
        # refresh re-crawls (deterministically) and keeps the entry.
        third, hit_third = crawl_cached(
            config, params=params, shard_count=2, cache=cache,
            refresh=True,
        )
        assert hit_third is False
        assert third.archives == first.archives
