"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import main


class TestList:
    def test_lists_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "batik-makeroom" in out
        assert "scimark-fft" in out

    def test_prefix_filter(self, capsys):
        assert main(["list", "acc-"]) == 0
        out = capsys.readouterr().out
        assert "acc-luindex" in out
        assert "batik" not in out

    def test_no_match_is_error(self, capsys):
        assert main(["list", "zzz"]) == 1


class TestProfile:
    def test_profile_prints_report(self, capsys):
        assert main(["profile", "montecarlo", "--period", "64"]) == 0
        out = capsys.readouterr().out
        assert "DJXPerf object-centric profile" in out
        assert "RatePath.run:205" in out

    def test_profile_writes_html(self, capsys, tmp_path):
        path = str(tmp_path / "r.html")
        assert main(["profile", "montecarlo", "--period", "64",
                     "--html", path]) == 0
        with open(path) as fp:
            assert "RatePath.run:205" in fp.read()

    def test_unknown_workload_is_error(self, capsys):
        assert main(["profile", "nope"]) == 2
        assert "error" in capsys.readouterr().err


class TestSpeedup:
    def test_speedup_output(self, capsys):
        assert main(["speedup", "montecarlo"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "tiled" in out


class TestOverhead:
    def test_overhead_output(self, capsys):
        assert main(["overhead", "compress", "--period", "64"]) == 0
        out = capsys.readouterr().out
        assert "runtime overhead" in out
        assert "memory overhead" in out


class TestAdvise:
    def test_advise_output(self, capsys):
        assert main(["advise", "montecarlo", "--period", "64"]) == 0
        out = capsys.readouterr().out
        assert "improve-access-pattern" in out

    def test_top_bounds_the_advice(self, capsys):
        # objectlayout has five sites worth advice.
        assert main(["advise", "objectlayout", "--period", "64",
                     "--top", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("[hoist-allocation] Objectlayout.run:292")


def ranked_sites(out):
    """The ``#N object ...`` headline of each site in a text report."""
    return [line for line in out.splitlines() if line.startswith("#")]


class TestReportOptions:
    def test_top_bounds_live_and_replayed_reports(self, capsys, tmp_path):
        trace = str(tmp_path / "ol.trace.jsonl.gz")
        assert main(["profile", "objectlayout", "--period", "64",
                     "--trace", trace]) == 0
        assert len(ranked_sites(capsys.readouterr().out)) == 5
        assert main(["profile", "objectlayout", "--period", "64",
                     "--top", "1"]) == 0
        live = ranked_sites(capsys.readouterr().out)
        assert main(["replay", trace, "--period", "64", "--top", "1"]) == 0
        assert ranked_sites(capsys.readouterr().out) == live
        assert len(live) == 1 and live[0].startswith("#1 ")

    def test_threshold_zero_shows_sub_kib_objects(self, capsys):
        # Each BoxedLong is 24 bytes: below the default S of 1024.
        assert main(["profile", "boxed-counters", "--period", "64"]) == 0
        assert "object BoxedLong" not in capsys.readouterr().out
        assert main(["profile", "boxed-counters", "--period", "64",
                     "--threshold", "0"]) == 0
        assert ranked_sites(capsys.readouterr().out)[0].startswith(
            "#1 object BoxedLong")


class TestReplay:
    def test_profile_trace_then_replay(self, capsys, tmp_path):
        trace = str(tmp_path / "mc.trace.jsonl.gz")
        assert main(["profile", "montecarlo", "--period", "64",
                     "--trace", trace]) == 0
        live_out = capsys.readouterr().out
        assert "observation trace written" in live_out
        assert main(["replay", trace, "--period", "64"]) == 0
        replay_out = capsys.readouterr().out
        assert "RatePath.run:205" in replay_out

    def test_replay_at_another_period_exits_2(self, capsys, tmp_path):
        # Without --resample the recorded samples are all there is: a
        # replay at another period is refused, not silently answered
        # with the recorded period's samples.
        trace = str(tmp_path / "ol.trace.jsonl.gz")
        assert main(["profile", "objectlayout", "--period", "64",
                     "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["replay", trace, "--period", "32"]) == 2
        assert "recorded period" in capsys.readouterr().err

    def test_replay_resample_needs_access_trace(self, capsys, tmp_path):
        trace = str(tmp_path / "mc.trace.jsonl.gz")
        assert main(["profile", "montecarlo", "--period", "64",
                     "--trace", trace]) == 0
        assert main(["replay", trace, "--period", "32",
                     "--resample"]) == 2
        err = capsys.readouterr().err
        assert "include_accesses" in err

    def test_replay_resample_with_access_trace(self, capsys, tmp_path):
        trace = str(tmp_path / "mc.trace.jsonl.gz")
        assert main(["profile", "montecarlo", "--period", "64",
                     "--trace", trace, "--trace-accesses"]) == 0
        capsys.readouterr()
        assert main(["replay", trace, "--period", "32",
                     "--resample"]) == 0
        assert "DJXPerf object-centric profile" in capsys.readouterr().out


class TestFamily:
    def test_profile_replica_family(self, capsys):
        assert main(["profile", "dup-strings", "--family", "replica",
                     "--period", "64"]) == 0
        assert "DupStrings.run:100" in capsys.readouterr().out

    def test_profile_trace_then_family_replay(self, capsys, tmp_path):
        trace = str(tmp_path / "ds.trace.jsonl.gz")
        assert main(["profile", "dead-stores", "--family", "redundancy",
                     "--period", "64", "--trace", trace]) == 0
        assert "DeadStores.run:300" in capsys.readouterr().out
        assert main(["replay", trace, "--family", "redundancy",
                     "--period", "64"]) == 0
        assert "DeadStores.run:300" in capsys.readouterr().out

    def test_family_replay_rejects_resample(self, capsys, tmp_path):
        trace = str(tmp_path / "dt.trace.jsonl.gz")
        assert main(["profile", "dup-tables", "--family", "replica",
                     "--period", "64", "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["replay", trace, "--family", "replica",
                     "--resample"]) == 2
        assert "DJXPerf-only" in capsys.readouterr().err


class TestSuite:
    def test_suite_table(self, capsys, tmp_path):
        traces = str(tmp_path / "traces")
        assert main(["suite", "--suite", "specjvm", "--jobs", "1",
                     "--period", "64", "--trace-dir", traces]) == 0
        out = capsys.readouterr().out
        assert "compress" in out
        assert "runtime" in out
        assert f"observation traces written under {traces}" in out
        assert main(["replay", str(tmp_path / "traces" /
                                   "compress-baseline.trace.jsonl.gz"),
                     "--period", "64"]) == 0
        assert "DJXPerf object-centric profile" in capsys.readouterr().out

    def test_suite_parallel_jobs(self, capsys):
        assert main(["suite", "--suite", "specjvm", "--jobs", "2",
                     "--period", "64"]) == 0
        assert "xml-transform" in capsys.readouterr().out


class TestBench:
    def test_one_run_records_every_arm_and_verdict(self, capsys):
        from repro.bench import OPTIMIZE_SUITE

        assert main(["bench", "crypto", "--repeat", "1", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        row = report["workloads"]["crypto"]
        for key in ("legacy", "profiled", "profiled_peraccess",
                    "allfamilies", "fusion"):
            assert row[key], key
        assert set(report["optimize"]) == {name
                                           for name, _ in OPTIMIZE_SUITE}
        assert "store" not in row
        assert "store" not in report["aggregate"]
        assert "seed" not in report

    def test_profiled_arm(self, capsys, monkeypatch):
        from repro import bench

        # The verdicts are covered above; keep this run to the arms.
        monkeypatch.setattr(bench, "bench_optimize",
                            lambda progress: {})
        assert main(["bench", "crypto", "--repeat", "1"]) == 0
        out = capsys.readouterr().out
        # The row and the aggregate carry both gated ratios.
        assert re.search(r"^crypto .* x\d+\.\d\d  x\d+\.\d\d prof$", out,
                         re.MULTILINE)
        assert "vs legacy" in out and "profiled" in out

    def test_serve_load_adds_the_fleet_section(self, capsys, monkeypatch):
        from repro import bench
        from repro.serve import loadgen

        real = loadgen.run_fleet_load
        monkeypatch.setattr(loadgen, "run_fleet_load", lambda: real(
            shards=(1,), clients=1, requests_per_client=1))
        # The verdicts are covered above; keep this run to the fleet.
        monkeypatch.setattr(bench, "bench_optimize",
                            lambda progress: {})
        assert main(["bench", "crypto", "--repeat", "1",
                     "--serve-load"]) == 0
        out = capsys.readouterr().out
        assert "SERVE-LOAD" in out
        assert "AGGREGATE" in out


class TestFuzz:
    def test_oracles_selects_a_subset(self, capsys):
        assert main(["fuzz", "--iterations", "2",
                     "--oracles", "engine"]) == 0
        assert "2 programs, seed 0, oracles [engine]: OK" in \
            capsys.readouterr().out


class TestServe:
    """The serving layer: submit -> serve --drain -> history/regress."""

    def serve_args(self, tmp_path):
        return ["--spool", str(tmp_path / "spool")], \
               ["--store", str(tmp_path / "store.sqlite")]

    def test_submit_then_drain_then_history(self, capsys, tmp_path):
        spool, store = self.serve_args(tmp_path)
        assert main(["submit", "objectlayout", "--period", "32",
                     *spool]) == 0
        assert "submitted" in capsys.readouterr().out
        assert main(["serve", "--drain", *spool, *store]) == 0
        assert "drained 1 job(s)" in capsys.readouterr().out
        assert main(["history", *store]) == 0
        out = capsys.readouterr().out
        assert "objectlayout/baseline" in out
        assert "1 profile(s)" in out

    def test_history_json_and_empty(self, capsys, tmp_path):
        _, store = self.serve_args(tmp_path)
        assert main(["history", "--json", *store]) == 0
        assert capsys.readouterr().out.strip() == "[]"
        assert main(["history", *store]) == 1

    def test_repeat_submission_served_from_store(self, capsys, tmp_path):
        spool, store = self.serve_args(tmp_path)
        for _ in range(2):
            assert main(["submit", "objectlayout", "--period", "32",
                         *spool]) == 0
            assert main(["serve", "--drain", *spool, *store]) == 0
        assert "1 served from store" in capsys.readouterr().out

    def test_regress_degraded_variant_names_site(self, capsys, tmp_path):
        spool, store = self.serve_args(tmp_path)
        for variant in ("hoisted", "baseline"):
            assert main(["submit", "batik-makeroom", "--variant", variant,
                         "--period", "32", *spool]) == 0
        assert main(["serve", "--drain", *spool, *store]) == 0
        capsys.readouterr()
        code = main(["regress", "batik-makeroom", "--variant", "baseline",
                     "--baseline-variant", "hoisted", *store])
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSION" in out
        assert "makeRoom" in out

    def test_regress_no_baseline_exit_code(self, capsys, tmp_path):
        spool, store = self.serve_args(tmp_path)
        assert main(["submit", "objectlayout", "--period", "32",
                     *spool]) == 0
        assert main(["serve", "--drain", *spool, *store]) == 0
        capsys.readouterr()
        assert main(["regress", "objectlayout", *store]) == 3
        assert "NO-BASELINE" in capsys.readouterr().out

    def test_regress_same_key_repeat_clean(self, capsys, tmp_path):
        spool, store = self.serve_args(tmp_path)
        for _ in range(2):
            assert main(["submit", "objectlayout", "--period", "32",
                         "--force", *spool]) == 0
            assert main(["serve", "--drain", *spool, *store]) == 0
        capsys.readouterr()
        assert main(["regress", "objectlayout", *store]) == 0
        assert "CLEAN" in capsys.readouterr().out
        # The first record has no earlier one to compare against.
        assert main(["regress", "objectlayout", "--candidate-id", "1",
                     *store]) == 3
        assert "NO-BASELINE" in capsys.readouterr().out
        assert main(["history", "--limit", "1", "--json", *store]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["record_id"] for r in records] == [2]

    def test_serve_timeout_fails_the_job(self, capsys, tmp_path):
        # --timeout is enforced when jobs run in worker processes.
        spool, store = self.serve_args(tmp_path)
        assert main(["submit", "objectlayout", "--period", "32",
                     *spool]) == 0
        assert main(["serve", "--drain", "--jobs", "2", "--timeout", "0.01",
                     *spool, *store]) == 1
        assert "drained 0 job(s) (1 failed" in capsys.readouterr().out
        from repro.serve.queue import SpoolQueue

        (failed,) = SpoolQueue(spool[1]).outcomes()
        assert failed["error"].startswith("timed out after 0.01s")

    def test_regress_json_output(self, capsys, tmp_path):
        spool, store = self.serve_args(tmp_path)
        assert main(["submit", "objectlayout", "--period", "32",
                     *spool]) == 0
        assert main(["serve", "--drain", *spool, *store]) == 0
        capsys.readouterr()
        assert main(["regress", "objectlayout", "--json", *store]) == 3
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["status"] == "no-baseline"

    def test_submit_unknown_workload_fails_fast(self, capsys, tmp_path):
        spool, _ = self.serve_args(tmp_path)
        assert main(["submit", "no-such-workload", *spool]) == 2
        assert "error" in capsys.readouterr().err

    def test_regress_empty_store_is_error(self, capsys, tmp_path):
        _, store = self.serve_args(tmp_path)
        assert main(["regress", "objectlayout", *store]) == 2
        assert "error" in capsys.readouterr().err


class TestOptimize:
    def test_accepted_rewrite_exits_zero(self, capsys):
        assert main(["optimize", "unsized-growth"]) == 0
        out = capsys.readouterr().out
        assert "ACCEPTED" in out
        assert "presize" in out
        assert "identical observables" in out

    def test_json_verdict(self, capsys):
        assert main(["optimize", "unsized-growth", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "accepted"
        assert data["speedup"] > 1.0

    def test_rejected_rewrite_exits_one(self, capsys):
        # Presizing down to 2 slots can't improve anything; the engine
        # must roll the rewrite back and say so.
        assert main(["optimize", "unsized-growth", "--capacity", "2"]) \
            == 1
        out = capsys.readouterr().out
        assert "REJECTED" in out
        assert "rolled back" in out

    def test_family_selects_redundancy_transform(self, capsys):
        assert main(["optimize", "redundant-fill",
                     "--family", "redundancy"]) == 0
        assert "eliminate-dead-stores" in capsys.readouterr().out

    def test_bad_family_transform_combo_is_error(self, capsys):
        assert main(["optimize", "redundant-fill",
                     "--family", "redundancy",
                     "--transform", "presize"]) == 2
        assert "not applicable" in capsys.readouterr().err


class TestSubmitOptimize:
    def test_submit_optimize_shorthand(self, capsys, tmp_path):
        spool = str(tmp_path / "spool")
        assert main(["submit", "unsized-growth", "--optimize",
                     "--spool", spool]) == 0
        out = capsys.readouterr().out
        assert "optimize unsized-growth" in out
        assert "threshold 0" in out

    def test_meta_flags_rejected_on_profile_jobs(self, capsys, tmp_path):
        spool = str(tmp_path / "spool")
        assert main(["submit", "unsized-growth", "--transform",
                     "presize", "--spool", spool]) == 2
        assert "only applies to optimize" in capsys.readouterr().err

    def test_bad_combo_rejected_before_enqueue(self, capsys, tmp_path):
        spool = str(tmp_path / "spool")
        assert main(["submit", "unsized-growth", "--optimize",
                     "--family", "redundancy", "--transform", "presize",
                     "--spool", spool]) == 2
        assert "not applicable" in capsys.readouterr().err
        # Nothing was enqueued: the daemon never sees the bad job.
        from repro.serve.queue import SpoolQueue

        assert SpoolQueue(spool).pending_count() == 0


class TestOptionCoverage:
    def test_every_option_is_exercised(self):
        """Every long option name of every subcommand appears in some
        test or CI step, so no option survives that nothing runs."""
        import argparse
        import pathlib

        from repro.cli import build_parser

        root = pathlib.Path(__file__).resolve().parents[1]
        texts = [path.read_text() for path in (root / "tests").rglob("*.py")]
        texts.append((root / ".github" / "workflows" / "ci.yml").read_text())
        corpus = "\n".join(texts)

        def options(parser, command):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for name, sub in action.choices.items():
                        yield from options(sub, name)
                for flag in action.option_strings:
                    if flag.startswith("--") and flag != "--help":
                        yield flag, command

        unused = {}
        for flag, command in options(build_parser(), "repro"):
            if not re.search(re.escape(flag) + r"(?![\w-])", corpus):
                unused.setdefault(flag, []).append(command)
        assert not unused, f"options no test or CI step names: {unused}"
