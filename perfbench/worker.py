"""One benchmark workload in one fresh process.

``run.py`` starts this script once per measurement so that set-up time
and peak RSS are measured cold: the site-plan memo, the interpreter's
import cache and ``ru_maxrss`` all live for the life of a process.
The last line of standard output is one JSON object with the results.
Timed work is measured in wall seconds and in reference seconds, the
wall seconds corrected for the host's speed (``speed.py``).

Modes:

* ``run``     -- untraced: set up, repeat the workload's unit until
  ``--seconds`` of it have run, check every output;
* ``trace``   -- the same unit exactly twice with every layer patched
  (see ``tracing.py``); the two repetitions' work counters must agree;
* ``setup``   -- set up only, to sample set-up time again;
* ``prepare`` -- the analysis workload's crawl, saved to ``--archives``.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import Speedometer  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
#: Worker files: the analysis archive and the span dumps.
OUT = HERE / "out"
#: Seed of the synthetic web: site plans, worlds and the traffic
#: scenario.  Pinned, because the web decides a run's cost far more
#: than the code does (see README.md, "Seeds").
WEB_SEED = 2022

_clock = time.perf_counter


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@contextlib.contextmanager
def untraced(recorder):
    """Keep the benchmark's own bookkeeping out of the traced spans."""
    if recorder is None:
        yield
        return
    recorder.paused = True
    try:
        yield
    finally:
        recorder.paused = False


def _percentile(samples, q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class Crawl:
    """Cold serial Chromium crawl over the default shard layout (§3).

    Worlds are built before the timer starts; each site is timed
    through ``Crawler.crawl_site``.  One repetition crawls every site
    once on freshly built worlds, so repetitions do identical work.
    """

    SITES = 200

    def __init__(self, seed: int) -> None:
        from repro.dataset.generator import DatasetConfig
        from repro.dataset.shard import CrawlParams, plan_shards

        self.config = DatasetConfig(site_count=self.SITES, seed=WEB_SEED)
        self.params = CrawlParams(seed=seed)
        self.shards = plan_shards(self.config)
        self._worlds = None
        #: What ``check`` and ``outputs`` need from the first
        #: repetition.  Only small values: keeping its archives would
        #: make peak RSS depend on how many repetitions fit the run.
        self.first = None

    def setup(self) -> None:
        self._worlds = [spec.build_world() for spec in self.shards]

    def repetition(self) -> dict:
        from repro.browser.policy import policy_by_name
        from repro.dataset.crawler import Crawler

        worlds = self._worlds or [spec.build_world() for spec in self.shards]
        self._worlds = None
        params = self.params
        samples, references, archives, records = [], [], [], []
        failed = 0
        for spec, world in zip(self.shards, worlds):
            crawler = Crawler(
                world,
                policy=policy_by_name(params.policy),
                speculative_rate=params.speculative_rate,
                dns_latency_ms=params.dns_latency_ms,
                seed=spec.crawler_seed(params.seed),
                alpn=params.alpn,
            )
            for hosted in world.sites:
                self.speed.start()
                try:
                    archive = crawler.crawl_site(hosted)
                except Exception:
                    traceback.print_exc()
                    failed += 1
                    continue
                finally:
                    wall, reference = self.speed.stop()
                    samples.append(wall)
                    references.append(reference)
                archives.append(archive)
                records.append(hosted.record)
        for archive, record in zip(archives, records):
            if archive.page.success != record.accessible or (
                not record.accessible
                and archive.page.failure_reason != "non-200 or CAPTCHA"
            ):
                failed += 1
        with untraced(self.recorder):
            lines = [archive.to_json() for archive in archives]
            if self.first is None:
                self.first = {
                    "failed_pages": sum(1 for a in archives
                                        if not a.page.success),
                    "inaccessible": sum(1 for r in records
                                        if not r.accessible),
                    "outputs": _model_outputs(archives, lines),
                }
        return {
            "timed_s": sum(samples),
            "reference_s": sum(references),
            "samples": samples,
            "attempted": len(samples),
            "failed": failed,
            "items": len(samples),
            "digests": [_digest(line) for line in lines],
            "digest": _digest("\n".join(lines)),
        }

    def check(self, reps, reference: bool) -> list:
        problems = []
        failed_pages = self.first["failed_pages"]
        inaccessible = self.first["inaccessible"]
        if failed_pages != inaccessible:
            problems.append(f"{failed_pages} failed pages but "
                            f"{inaccessible} inaccessible records")
        if reference:
            from repro.dataset.shard import ParallelCrawler

            crawled = ParallelCrawler(self.config, self.params, jobs=2).crawl()
            expected = [_digest(a.to_json()) for a in crawled.archives]
            if expected != reps[0]["digests"]:
                mismatched = sum(1 for a, b in zip(expected,
                                                   reps[0]["digests"])
                                 if a != b)
                problems.append(
                    "crawl loop archives differ from ParallelCrawler.crawl(): "
                    f"{len(expected)} vs {len(reps[0]['digests'])} archives, "
                    f"{mismatched} differ")
        return problems

    def metrics(self, reps) -> dict:
        samples = [s for rep in reps for s in rep["samples"]]
        return {
            **_rates(reps, "sites_per_s"),
            "site_ms_p50": (_percentile(samples, 50) * 1e3, "ms"),
            "site_ms_p95": (_percentile(samples, 95) * 1e3, "ms"),
            "site_samples": (len(samples), "count"),
        }

    def outputs(self) -> dict:
        return self.first["outputs"]


class Traffic:
    """The ``origin`` what-if: every user on firefox+origin, ORIGIN
    frames across the fleet, two user shards run in turn through
    ``simulate_shard`` (each rebuilds its world inside the timer, as
    users pay for it)."""

    USERS = 24
    SITES = 12
    DURATION_MS = 10_000.0
    SHARDS = 2

    def __init__(self, seed: int) -> None:
        from repro.traffic import (
            ScenarioConfig, plan_user_shards, scenario_for_policy)

        # The scenario seed draws the web and the population, so it is
        # pinned like the crawl's web.  The users' browsers draw no
        # random numbers, so ``seed`` has nothing to seed here.
        self.scenario = scenario_for_policy(ScenarioConfig(
            users=self.USERS, site_count=self.SITES, seed=WEB_SEED,
            duration_ms=self.DURATION_MS,
        ), "origin")
        self.shards = plan_user_shards(self.scenario, self.SHARDS)
        self.aggregate = None

    def setup(self) -> None:
        """Nothing to build: each shard builds its world in the timer."""

    def repetition(self) -> dict:
        from repro.traffic import TrafficAggregate, simulate

        scenario = self.scenario
        merged = TrafficAggregate(
            duration_ms=scenario.duration_ms, bucket_ms=scenario.bucket_ms,
            shard_count=len(self.shards),
        )
        timed = reference_s = 0.0
        audit_events = 0
        for shard in self.shards:
            result, wall, reference = self.speed.time(
                simulate.simulate_shard, shard)
            timed += wall
            reference_s += reference
            audit_events += len(result.events)
            # The same worker round trip run_scenario applies in-process.
            merged.merge(TrafficAggregate.from_dict(result.payload.to_dict()))
            del result
        if self.aggregate is None:
            self.aggregate = merged
        totals = merged.totals
        with untraced(self.recorder):
            text = merged.to_jsonl()
        return {
            "timed_s": timed,
            "reference_s": reference_s,
            "attempted": merged.visits,
            "failed": merged.failed,
            "items": merged.completed,
            "digest": _digest(text),
            "counts": {
                "traffic.audit_events": audit_events,
                "traffic.edge_connections": totals.connections,
                "traffic.resumed": totals.resumed,
                "traffic.coalesced_requests": totals.coalesced_requests,
            },
        }

    def check(self, reps, reference: bool) -> list:
        problems = []
        for name, tally in sorted(self.aggregate.cohorts.items()):
            if tally.completed + tally.failed + tally.inaccessible \
                    != tally.visits:
                problems.append(
                    f"cohort {name}: completed {tally.completed} + failed "
                    f"{tally.failed} + inaccessible {tally.inaccessible} "
                    f"!= visits {tally.visits}")
        if self.aggregate.completed < 1:
            problems.append("no page load completed")
        return problems

    def metrics(self, reps) -> dict:
        return _rates(reps, "loads_per_s")

    def outputs(self) -> dict:
        aggregate = self.aggregate
        completed = aggregate.completed
        plt_total = sum(t.plt_total_ms for t in aggregate.cohorts.values())
        return {
            "visits": aggregate.visits,
            "loads": completed,
            "mean_plt_ms": round(plt_total / completed, 3)
            if completed else 0.0,
            "edge_connections": aggregate.totals.connections,
            "handshakes": aggregate.totals.handshakes,
            "traffic_digest": _digest(aggregate.to_jsonl()),
        }


class Analysis:
    """The §4 best-case model on a cache hit (``repro model``).

    Set-up crawls in a child process and saves the archives; each
    timed pass loads them and runs figure 3, the headline reductions,
    the PLT prediction and the sharded certificate plan.
    """

    SITES = 60

    def __init__(self, seed: int) -> None:
        from repro.dataset.generator import DatasetConfig
        from repro.dataset.shard import CrawlParams

        self.seed = seed
        self.config = DatasetConfig(site_count=self.SITES, seed=WEB_SEED)
        self.params = CrawlParams(seed=seed)
        self.path = OUT / f"analysis-{os.getpid()}.jsonl"
        self.model = None

    def prepare(self, path: Path) -> None:
        from repro.dataset.shard import ParallelCrawler

        ParallelCrawler(self.config, self.params).crawl().save(path)

    def setup(self) -> None:
        from repro.dataset import shard

        subprocess.run(
            [sys.executable, str(Path(__file__)), "analysis",
             "--mode", "prepare", "--seed", str(self.seed),
             "--archives", str(self.path)],
            check=True, stdout=subprocess.DEVNULL,
        )
        # A `repro model` process pays the site-plan pass once.
        shard.generate_records(self.config)

    def repetition(self) -> dict:
        from repro.core import predictions
        from repro.dataset import shard
        from repro.dataset.crawler import CrawlResult

        self.speed.start()
        result = CrawlResult.load(self.path)
        data = predictions.figure3(result.archives)
        headline = predictions.headline_reductions(result.archives)
        plt = predictions.predict_plt(result.archives)
        plan = shard.plan_certificates_sharded(self.config)
        timed, reference_s = self.speed.stop()
        on_load = [a.page.on_load for a in result.archives
                   if a.page.success]
        model = {
            "measured_dns": data.measured_dns,
            "measured_tls": data.measured_tls,
            "ideal_ip": data.ideal_ip,
            "ideal_origin": data.ideal_origin,
            "headline": headline,
            "plt": [plt.measured, plt.ideal_ip, plt.ideal_origin],
            "unchanged_fraction": plan.unchanged_fraction,
            "at_most_10": plan.fraction_with_changes_at_most(10),
        }
        if self.model is None:
            self.model = (model, on_load)
        return {
            "timed_s": timed,
            "reference_s": reference_s,
            "attempted": result.attempted,
            "failed": 0,
            "items": len(on_load),
            "digest": _digest(json.dumps(model, sort_keys=True)),
        }

    def check(self, reps, reference: bool) -> list:
        model, on_load = self.model
        problems = []
        over = [index for index, (ideal, measured) in enumerate(
            zip(model["ideal_origin"], model["measured_tls"]))
            if ideal > measured]
        if over:
            problems.append(f"{len(over)} pages model more ideal-ORIGIN "
                            "TLS connections than were measured")
        if model["plt"][0] != on_load:
            problems.append("predict_plt measured PLTs are not the "
                            "successful archives' onLoad times, in order")
        for series in model["plt"][1:]:
            if len(series) != len(on_load):
                problems.append(f"predict_plt series of {len(series)} "
                                f"entries for {len(on_load)} successful "
                                "pages")
        for name, value in model["headline"].items():
            if not 0.0 <= value <= 1.0:
                problems.append(f"headline {name} = {value} outside [0, 1]")
        return problems

    def metrics(self, reps) -> dict:
        return _rates(reps, "pages_per_s")

    def outputs(self) -> dict:
        model, _ = self.model
        return {
            "plt_p50_ms": round(statistics.median(model["plt"][0]), 3),
            "tls_per_page_p50": statistics.median(model["measured_tls"]),
            "ideal_origin_tls_per_page_p50":
                statistics.median(model["ideal_origin"]),
            "dns_reduction": round(model["headline"]["dns_reduction"], 6),
            "validation_reduction":
                round(model["headline"]["validation_reduction"], 6),
        }

    def cleanup(self) -> None:
        self.path.unlink(missing_ok=True)


def _rates(reps, name: str) -> dict:
    """Items per reference second, the benchmark's metric, and items
    per wall second under the workload's own name, for the report."""
    items = sum(rep["items"] for rep in reps)
    return {
        "items_per_s": (items / sum(rep["reference_s"] for rep in reps),
                        "items/s"),
        name: (items / sum(rep["timed_s"] for rep in reps), "1/s"),
    }


def _model_outputs(archives, lines) -> dict:
    """The crawl's model outputs, reported so behaviour changes show."""
    from repro.core import predictions

    ok = [a for a in archives if a.page.success]
    data = predictions.figure3(archives)
    headline = predictions.headline_reductions(archives)
    return {
        "plt_p50_ms": round(statistics.median(
            a.page.on_load for a in ok), 3),
        "tls_per_page_p50": statistics.median(data.measured_tls),
        "ideal_origin_tls_per_page_p50":
            statistics.median(data.ideal_origin),
        "dns_reduction": round(headline["dns_reduction"], 6),
        "validation_reduction": round(headline["validation_reduction"], 6),
        "archive_digest": _digest("\n".join(lines)),
    }


WORKLOADS = {"crawl": Crawl, "traffic": Traffic, "analysis": Analysis}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(bench, mode: str, seconds: float, speed, recorder=None) -> dict:
    """Set up, repeat the unit, check; everything but printing.

    ``speed`` has timed the process since ``_STARTED``; set-up time is
    that block, in reference seconds.
    """
    bench.recorder = recorder
    bench.speed = speed
    bench.setup()
    setup_wall_s, setup_s = speed.stop()
    if mode == "setup":
        return {"setup_s": setup_s, "setup_wall_s": setup_wall_s}
    reps, counts = [], []
    began = _clock()
    while True:
        # The last repetition's worlds are cyclic garbage; collect it,
        # so peak RSS does not depend on how many repetitions fit.
        gc.collect()
        before = Counter(recorder.counters) if recorder else None
        reps.append(bench.repetition())
        if recorder is not None:
            done = Counter(recorder.counters)
            done.subtract(before)
            done.update(reps[-1].get("counts", {}))
            counts.append({k: v for k, v in done.items() if v})
            if len(reps) == 2:
                break
        elif _clock() - began >= seconds:
            break
    peak_rss_mb = _peak_rss_mb()
    if recorder is not None:
        recorder.paused = True
    problems = bench.check(reps, reference=recorder is None)
    digests = {rep["digest"] for rep in reps}
    if len(digests) != 1:
        problems.append(f"{len(reps)} repetitions gave {len(digests)} "
                        "different outputs")
    if recorder is not None and counts[0] != counts[1]:
        differ = sorted(k for k in set(counts[0]) | set(counts[1])
                        if counts[0].get(k) != counts[1].get(k))
        problems.append("work counters differ between repetitions: "
                        + ", ".join(differ))
    return {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "peak_rss_mb": peak_rss_mb,
        "reps": len(reps),
        "timed_s": sum(rep["timed_s"] for rep in reps),
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "digest": reps[0]["digest"],
        "metrics": bench.metrics(reps),
        "outputs": bench.outputs(),
        "problems": problems,
        "counts": counts[0] if counts else {},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--mode", default="run",
                        choices=("run", "trace", "setup", "prepare"))
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--archives", type=Path, default=None)
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)

    if args.mode == "prepare":
        WORKLOADS[args.workload](args.seed).prepare(args.archives)
        return 0
    # The traced run's spans must not contain the speed kernel.
    speed = Speedometer(enabled=args.mode != "trace")
    speed.start(at=_STARTED)
    recorder = None
    if args.mode == "trace":
        import tracing

        recorder = tracing.install()
    bench = WORKLOADS[args.workload](args.seed)
    try:
        result = measure(bench, args.mode, args.seconds, speed, recorder)
    finally:
        if hasattr(bench, "cleanup"):
            bench.cleanup()
    if recorder is not None:
        result["layers"] = tracing.layer_metrics(recorder, result["counts"])
        recorder.save(OUT / f"spans-{args.workload}.npz")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
