"""The traced run: spans and work counters at each layer's entry points.

The program carries no hooks for this.  :func:`install` wraps public
functions and methods of each layer from the outside, in the namespace
where their callers look them up (``validate_chain`` as
``repro.h2.tls_channel.validate_chain``, world building inside traffic
as ``repro.traffic.simulate.build_world``).  Every wrapped call records
one span -- name, start, end and parent -- into flat in-memory arrays;
nothing is written until the run ends.  A layer's self time is the
summed duration of its spans minus the time their child spans cover.

Counters are bumped by the same wrappers from arguments and return
values (frames parsed, wire bytes fed, dials, chain validations), so
they count work done and repeat exactly for identical inputs.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

#: Layers whose self time the traced run reports, in report order.
LAYERS = (
    "netsim", "h2", "transport", "tlspki", "dnssim", "browser",
    "traffic", "dataset", "web", "core",
)

#: Named inclusive timers: metric name -> span name.  Each is the
#: summed wall time of every call to that one function.
TIMERS = {
    "h2.hpack_s": ("h2.hpack.decode", "h2.hpack.encode"),
    "traffic.shard_s": ("traffic.simulate_shard",),
    "traffic.merge_s": ("traffic.aggregate.merge",),
    "dataset.records_s": ("dataset.generate_all",),
    "dataset.world_build_s": ("dataset.build_world",),
    "dataset.cache_load_s": ("dataset.crawl_result.load",),
    "web.har_decode_s": ("web.har.from_json",),
    "web.har_encode_s": ("web.har.to_json",),
    "core.figure3_s": ("core.figure3",),
    "core.predict_plt_s": ("core.predict_plt",),
    "core.certplan_s": ("core.plan_certificates",),
}


def _frame_names() -> Dict[int, str]:
    from repro.h2 import frames

    return {
        value: name[len("TYPE_"):]
        for name, value in vars(frames).items()
        if name.startswith("TYPE_") and isinstance(value, int)
    }


class SpanRecorder:
    """Spans in flat arrays plus a counter bag.

    ``paused`` switches recording off without unpatching, so the
    benchmark's own bookkeeping (digests, checks) is not charged to
    the layers it calls.
    """

    def __init__(self) -> None:
        self.span_names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.paused = False
        self._stack: List[int] = []

    def wrap(
        self,
        span: Optional[str],
        fn: Callable,
        count: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped to record a span named ``span`` (None for a
        counter-only wrapper) and then call ``count(counters, args,
        result)``."""
        recorder = self
        counters = self.counters
        stack = self._stack
        if span is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                if not recorder.paused:
                    count(counters, args, result)
                return result
            return counted

        if span not in self._name_ids:
            self._name_ids[span] = len(self.span_names)
            self.span_names.append(span)
        name_id = self._name_ids[span]
        names, parents = self.name, self.parent
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            if recorder.paused:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = _clock()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result
        return traced

    def patch(self, target: str, span: Optional[str],
              count: Optional[Callable] = None,
              around: Optional[Callable] = None) -> None:
        """Replace ``module:attr`` or ``module:Class.attr`` in place.

        ``around(fn)``, if given, returns the function to wrap in
        place of ``fn`` -- for counters that need state from before
        the call.
        """
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        kind = None
        fn = original
        if isinstance(original, (classmethod, staticmethod)):
            kind, fn = type(original), original.__func__
        if around is not None:
            fn = around(fn)
        replacement = self.wrap(span, fn, count)
        if kind is not None:
            replacement = kind(replacement)
        setattr(owner, attr, replacement)

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """(self seconds per layer, inclusive seconds per span name)."""
        count = len(self.start)
        child = [0.0] * count
        starts, ends, parents = self.start, self.end, self.parent
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                child[parent] += ends[index] - starts[index]
        layer_of = [name.split(".", 1)[0] for name in self.span_names]
        own: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        inclusive: Dict[str, float] = dict.fromkeys(self.span_names, 0.0)
        names = self.name
        for index in range(count):
            duration = ends[index] - starts[index]
            span_name = self.span_names[names[index]]
            inclusive[span_name] += duration
            layer = layer_of[names[index]]
            own[layer] = own.get(layer, 0.0) + duration - child[index]
        return own, inclusive

    def save(self, path) -> None:
        """Write every span once, at the end of the run."""
        import numpy as np

        np.savez_compressed(
            path,
            span_names=np.array(self.span_names),
            name=np.frombuffer(self.name, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _bump(key: str) -> Callable:
    def count(counters, args, result) -> None:
        counters[key] += 1
    return count


def install() -> SpanRecorder:
    """Patch every layer's entry points; returns the live recorder."""
    recorder = SpanRecorder()
    frame_names = _frame_names()

    def frames_in(counters, args, result) -> None:
        counters["h2.frames_in"] += len(result)
        for frame in result:
            counters["h2.frames_in." + frame_names.get(
                frame.type_code, "UNKNOWN")] += 1

    def wire_in(counters, args, result) -> None:
        counters["h2.wire_bytes_in"] += len(args[1])

    def events(counters, args, result) -> None:
        counters["netsim.events"] += result

    def har_in(counters, args, result) -> None:
        counters["web.har_bytes"] += len(args[1])

    def har_out(counters, args, result) -> None:
        counters["web.har_bytes"] += len(result)

    def wire_queries(resolve):
        # A resolve is a wire query unless the cache or an in-flight
        # lookup answers it; the resolver's own stats say which.
        def counted(resolver, *args, **kwargs):
            stats = resolver.stats
            before = stats.plaintext_queries + stats.encrypted_queries
            resolve(resolver, *args, **kwargs)
            if not recorder.paused:
                recorder.counters["dnssim.wire_queries"] += (
                    stats.plaintext_queries + stats.encrypted_queries
                    - before)
        return counted

    patch = recorder.patch
    # netsim: the event loop drives every simulated callback.
    patch("repro.netsim.events:EventLoop.run_until_idle",
          "netsim.run_until_idle", events)
    # h2: frame parsing, the connection state machine, HPACK, sessions.
    patch("repro.h2.connection:H2Connection.receive_data",
          "h2.receive_data", wire_in)
    patch("repro.h2.connection:H2Connection.send_headers",
          "h2.send_headers")
    patch("repro.h2.connection:H2Connection.send_data", "h2.send_data")
    patch("repro.h2.frames:consume_frames", "h2.consume_frames", frames_in)
    patch("repro.h2.hpack:HpackDecoder.decode", "h2.hpack.decode",
          _bump("h2.hpack_blocks"))
    patch("repro.h2.hpack:HpackEncoder.encode", "h2.hpack.encode")
    patch("repro.h2.client:H2ClientSession.connect", "h2.session.connect")
    patch("repro.h2.client:H2ClientSession.request", "h2.session.request")
    # transport: dialing and TLS record framing.
    patch("repro.transport.tcp:TcpTlsDialer.dial", "transport.dial",
          _bump("transport.dials"))
    patch("repro.h2.tls_channel:consume_records",
          "transport.consume_records")
    # tlspki: chain validation, where the TLS layer looks it up.
    patch("repro.h2.tls_channel:validate_chain", "tlspki.validate_chain",
          _bump("tlspki.chain_validations"))
    patch("repro.tlspki.validation:validate_chain",
          "tlspki.validate_chain", _bump("tlspki.chain_validations"))
    # dnssim: stub resolution and the authoritative lookups behind it.
    patch("repro.dnssim.resolver:CachingResolver.resolve",
          "dnssim.resolve", _bump("dnssim.resolves"), around=wire_queries)
    patch("repro.dnssim.resolver:AuthoritativeServer.query", "dnssim.query")
    # browser: page loads and the connection pool's decisions.
    patch("repro.browser.engine:BrowserEngine.load", "browser.load",
          _bump("browser.pages"))
    patch("repro.browser.engine:BrowserEngine.load_blocking",
          "browser.load_blocking")
    patch("repro.browser.engine:BrowserEngine.new_session",
          "browser.new_session")
    patch("repro.browser.pool:ConnectionPool.open_connection",
          "browser.open_connection", _bump("browser.connections_opened"))
    patch("repro.browser.pool:ConnectionPool.find_same_host",
          "browser.find_same_host")
    patch("repro.browser.pool:ConnectionPool.find_coalescable",
          "browser.find_coalescable")
    patch("repro.browser.pool:ConnectionPool.note_same_host_reuse", None,
          _bump("browser.same_host_reuses"))
    patch("repro.browser.pool:ConnectionPool.note_coalesced_reuse", None,
          _bump("browser.coalesced_reuses"))
    # traffic: shard simulation, fleet deployment, edge accounting
    # (the monitor's observer callbacks, bound when it attaches).
    patch("repro.traffic.simulate:simulate_shard", "traffic.simulate_shard")
    patch("repro.traffic.simulate:deploy_fleet_origin",
          "traffic.deploy_fleet_origin")
    patch("repro.traffic.edge:EdgeLoadMonitor._on_connection_event",
          "traffic.edge.connection_event")
    patch("repro.traffic.edge:EdgeLoadMonitor._on_request",
          "traffic.edge.request")
    patch("repro.traffic.aggregate:TrafficAggregate.merge",
          "traffic.aggregate.merge")
    # dataset: site plans, world building, the crawler, the cache file.
    patch("repro.dataset.generator:PageGenerator.generate_all",
          "dataset.generate_all")
    patch("repro.dataset.shard:build_world", "dataset.build_world")
    patch("repro.traffic.simulate:build_world", "dataset.build_world")
    patch("repro.dataset.crawler:Crawler.crawl_site", "dataset.crawl_site")
    patch("repro.dataset.crawler:CrawlResult.load",
          "dataset.crawl_result.load")
    patch("repro.dataset.shard:plan_certificates_sharded",
          "dataset.plan_certificates_sharded")
    # web: HAR JSON both ways.
    patch("repro.web.har:HarArchive.from_json", "web.har.from_json",
          har_in)
    patch("repro.web.har:HarArchive.to_json", "web.har.to_json", har_out)
    # core: the §4 model.
    patch("repro.core.predictions:figure3", "core.figure3")
    patch("repro.core.predictions:headline_reductions",
          "core.headline_reductions")
    patch("repro.core.predictions:predict_plt", "core.predict_plt")
    patch("repro.core.predictions:reconstruct", "core.reconstruct",
          _bump("core.reconstruct_calls"))
    patch("repro.core.certplan:plan_certificates", "core.plan_certificates")
    return recorder


#: Exact work counters: identical for identical inputs, so two
#: repetitions inside one traced run must agree on every one.
EXACT = (
    "netsim.events",
    "h2.frames_in", "h2.frames_in.DATA", "h2.frames_in.HEADERS",
    "h2.frames_in.WINDOW_UPDATE", "h2.wire_bytes_in", "h2.hpack_blocks",
    "transport.dials", "tlspki.chain_validations",
    "dnssim.resolves", "dnssim.wire_queries",
    "browser.pages", "browser.connections_opened",
    "browser.same_host_reuses", "browser.coalesced_reuses",
    "web.har_bytes", "core.reconstruct_calls",
)

#: Counters also reported per browser page load.
PER_PAGE = (
    "netsim.events", "h2.frames_in", "h2.frames_in.DATA",
    "h2.frames_in.HEADERS", "h2.frames_in.WINDOW_UPDATE",
    "h2.wire_bytes_in", "h2.hpack_blocks", "transport.dials",
    "tlspki.chain_validations", "dnssim.wire_queries",
    "browser.connections_opened",
)


def _unit(counter: str) -> str:
    return "B" if counter.endswith("bytes_in") or counter.endswith(
        "_bytes") else "count"


def layer_metrics(
    recorder: SpanRecorder, counts: Dict[str, int]
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``counts`` holds one repetition's exact counters (plus any counts
    the workload adds, such as the traffic aggregate's); times are
    totals over the whole traced run.
    """
    own, inclusive = recorder.self_times()
    out: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (own.get(layer, 0.0), "s")
    for metric, span_names in TIMERS.items():
        out[metric] = (sum(inclusive.get(name, 0.0)
                           for name in span_names), "s")
    for key in EXACT:
        out[key] = (counts.get(key, 0), _unit(key))
    pages = counts.get("browser.pages", 0)
    for key in PER_PAGE:
        out[key + "_per_page"] = (
            counts.get(key, 0) / pages if pages else 0.0,
            _unit(key) + "/page")
    frames = counts.get("h2.frames_in", 0)
    out["h2.window_update_share"] = (
        counts.get("h2.frames_in.WINDOW_UPDATE", 0) / frames
        if frames else 0.0, "ratio")
    resolves = counts.get("dnssim.resolves", 0)
    out["dnssim.cache_hit_ratio"] = (
        1.0 - counts.get("dnssim.wire_queries", 0) / resolves
        if resolves else 0.0, "ratio")
    lookups = (counts.get("browser.connections_opened", 0)
               + counts.get("browser.same_host_reuses", 0)
               + counts.get("browser.coalesced_reuses", 0))
    out["browser.reuse_ratio"] = (
        1.0 - counts.get("browser.connections_opened", 0) / lookups
        if lookups else 0.0, "ratio")
    for key in ("traffic.audit_events", "traffic.edge_connections",
                "traffic.resumed", "traffic.coalesced_requests"):
        out[key] = (counts.get(key, 0), "count")
    return out
