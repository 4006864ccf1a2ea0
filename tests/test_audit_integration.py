"""End-to-end audit guarantees: determinism across ``--jobs``, one
decision per request, and the acceptance criterion -- the per-reason
breakdown reconciles *exactly* with the measured-vs-ideal Figure 3
gaps, for every policy."""

import json

import pytest

from repro.audit import ReasonCode, events_to_jsonl
from repro.audit.diff import diff_decisions, render_diff
from repro.audit.explain import render_explanation
from repro.audit.reconcile import (
    METRICS,
    decision_index,
    reconcile_result,
)
from repro.cli import main
from repro.core.predictions import figure3
from repro.dataset.generator import DatasetConfig
from repro.dataset.shard import CrawlParams, ParallelCrawler

CONFIG = DatasetConfig(site_count=8, seed=11)

ALL_POLICIES = ("chromium", "firefox", "firefox+origin",
                "ideal-origin", "none")


def audited_crawl(policy, jobs=1):
    crawler = ParallelCrawler(
        CONFIG, CrawlParams(policy=policy, speculative_rate=0.10),
        shard_count=2, jobs=jobs,
    )
    return crawler.crawl_traced(trace=False, audit=True)


@pytest.fixture(scope="module")
def audited():
    """One audited crawl per policy, shared across the module."""
    return {policy: audited_crawl(policy) for policy in ALL_POLICIES}


class TestDeterminism:
    def test_audit_jsonl_byte_identical_across_jobs(self, audited):
        _, serial = audited["chromium"]
        _, parallel = audited_crawl("chromium", jobs=2)
        assert serial.audit_jsonl() == parallel.audit_jsonl()
        assert serial.audit_jsonl()  # non-empty

    def test_audit_diff_clean_across_jobs(self, audited):
        _, serial = audited["chromium"]
        _, parallel = audited_crawl("chromium", jobs=2)
        diff = diff_decisions(serial.audit, parallel.audit)
        assert diff.clean
        assert diff.common > 0
        assert "no changes" in render_diff(diff)

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_auditing_does_not_change_archives(self, audited, policy):
        """An audit-only crawl yields byte-identical archives to a
        plain crawl: recording decisions never alters them."""
        result, _ = audited[policy]
        plain = ParallelCrawler(
            CONFIG, CrawlParams(policy=policy, speculative_rate=0.10),
            shard_count=2, jobs=1,
        ).crawl()
        assert [a.to_json() for a in plain.archives] \
            == [a.to_json() for a in result.archives]

    def test_events_merge_in_shard_order_with_dense_seqs(self, audited):
        _, trace = audited["chromium"]
        assert [event.seq for event in trace.audit] \
            == list(range(len(trace.audit)))
        shards = [event.shard for event in trace.audit]
        assert shards == sorted(shards)


class TestDecisionCoverage:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_every_request_gets_exactly_one_decision(
        self, audited, policy
    ):
        result, trace = audited[policy]
        decisions = decision_index(trace.audit)
        entries = {
            (archive.page.url, entry.hostname, entry.path)
            for archive in result.archives
            for entry in archive.entries
        }
        assert set(decisions) == entries
        decision_events = [e for e in trace.audit
                           if e.kind == "decision"]
        total_entries = sum(len(archive.entries)
                            for archive in result.archives)
        assert len(decision_events) == total_entries

    def test_all_reason_codes_are_taxonomy_members(self, audited):
        values = {code.value for code in ReasonCode}
        for policy in ALL_POLICIES:
            _, trace = audited[policy]
            assert {event.reason for event in trace.audit} <= values


class TestExactReconciliation:
    """The acceptance criterion: per-reason counts decompose the
    Figure 3 measured-vs-ideal gaps exactly, under every policy."""

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_breakdown_reconciles_with_figure3(self, audited, policy):
        result, trace = audited[policy]
        breakdowns = reconcile_result(result.archives, trace.audit)
        fig = figure3(result.archives)
        for model in ("origin", "ip"):
            ideal = fig.ideal_origin if model == "origin" \
                else fig.ideal_ip
            for metric in METRICS:
                b = breakdowns[model][metric]
                assert b.reconciles(), (policy, model, metric)
                assert b.ideal == sum(ideal)
                if metric == "dns":
                    assert b.measured == sum(fig.measured_dns)
                else:
                    assert b.measured == sum(fig.measured_tls)

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_no_unattributed_spends(self, audited, policy):
        result, trace = audited[policy]
        breakdowns = reconcile_result(result.archives, trace.audit)
        for model in ("origin", "ip"):
            for metric in METRICS:
                b = breakdowns[model][metric]
                assert b.excess[
                    ReasonCode.MISS_UNATTRIBUTED.value
                ] == 0, (policy, model, metric)

    def test_validations_mirror_tls(self, audited):
        result, trace = audited["chromium"]
        breakdowns = reconcile_result(result.archives, trace.audit)
        for model in ("origin", "ip"):
            tls = breakdowns[model]["tls"]
            val = breakdowns[model]["validations"]
            assert (val.measured, val.ideal) == (tls.measured, tls.ideal)
            assert val.excess == tls.excess
            assert val.credits == tls.credits

    def test_rendered_report_shows_reconciled_tables(self, audited):
        result, trace = audited["chromium"]
        report = render_explanation(result.archives, trace.audit,
                                    pages=1)
        assert "gap = sum(excess) - sum(credits)" in report
        assert "DOES NOT RECONCILE" not in report
        assert "more pages not shown" in report


class TestCliIntegration:
    def run(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_explain_stdout_is_report_only(self, capsys, tmp_path):
        code, out, err = self.run(capsys, [
            "explain", "--sites", "6", "--seed", "11",
            "--cache-dir", str(tmp_path), "--pages", "1",
        ])
        assert code == 0
        assert "page https://" in out
        assert "legend:" in out
        assert "gap vs ideal-origin" in out
        assert "gap vs ideal-ip" in out
        # Diagnostics are stderr-only (PR 2 convention).
        assert "explain:" in err
        assert "audit events" in err
        assert "explain:" not in out
        assert "cache:" not in out

    def test_explain_breakdown_subset(self, capsys, tmp_path):
        code, out, _ = self.run(capsys, [
            "explain", "--sites", "6", "--seed", "11",
            "--cache-dir", str(tmp_path), "--pages", "0",
            "--breakdown", "tls",
        ])
        assert code == 0
        assert "tls gap vs ideal-origin" in out
        assert "dns gap" not in out

    def test_explain_taxonomy(self, capsys):
        code, out, err = self.run(capsys, ["explain", "--taxonomy"])
        assert code == 0
        for reason in ReasonCode:
            assert reason.value in out

    def test_crawl_audit_export_and_diff_clean(
        self, capsys, tmp_path
    ):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        base = ["crawl", "--sites", "6", "--seed", "11",
                "--cache-dir", str(tmp_path)]
        assert main(base + ["--audit", str(a)]) == 0
        assert main(base + ["--audit", str(b), "--jobs", "2"]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        code, out, err = self.run(
            capsys, ["audit-diff", str(a), str(b)]
        )
        assert code == 0
        assert "no changes" in out

    def test_audit_diff_reports_changes(self, capsys, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert main(["crawl", "--sites", "6", "--seed", "11",
                     "--cache-dir", str(tmp_path),
                     "--audit", str(a)]) == 0
        assert main(["crawl", "--sites", "6", "--seed", "12",
                     "--cache-dir", str(tmp_path),
                     "--audit", str(b)]) == 0
        capsys.readouterr()
        code, out, _ = self.run(
            capsys, ["audit-diff", str(a), str(b)]
        )
        assert code == 1
        assert "decisions compared" in out

    def test_audit_diff_rejects_unknown_code(self, capsys, tmp_path):
        a = tmp_path / "a.jsonl"
        doc = {"seq": 0, "kind": "decision", "reason": "MISS_BOGUS",
               "at_ms": 0.0, "shard": 0}
        a.write_text(json.dumps(doc) + "\n")
        code, out, err = self.run(
            capsys, ["audit-diff", str(a), str(a)]
        )
        assert code == 2
        assert "MISS_BOGUS" in err
        assert out == ""

    def test_audit_diff_missing_file(self, capsys, tmp_path):
        code, _, err = self.run(capsys, [
            "audit-diff", str(tmp_path / "missing.jsonl"),
            str(tmp_path / "missing.jsonl"),
        ])
        assert code == 2
        assert err


class TestJsonlExportMatchesTrace:
    def test_audit_jsonl_is_canonical(self, audited):
        _, trace = audited["chromium"]
        assert trace.audit_jsonl() == events_to_jsonl(trace.audit)
