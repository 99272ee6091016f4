"""Record/replay equivalence and the shared multi-profiler run.

The payoff tests of the observation pipeline: (1) replaying a recorded
trace through an offline agent reproduces the live analysis *exactly*;
(2) several profiler families observe one simulated run side by side.
"""

import pytest

from repro.baselines.allocfreq import AllocFrequencyProfiler
from repro.baselines.codecentric import CodeCentricProfiler
from repro.baselines.reusedist import ReuseDistanceProfiler
from repro.core import DJXPerf, DjxConfig
from repro.core.javaagent import instrument_program
from repro.jvm import Machine
from repro.obs.replay import replay_analyze
from repro.obs.trace import TraceWriter
from repro.workloads import get_workload


def record_run(workload_name, trace_path, config=None,
               include_accesses=False):
    """Run one workload under DJXPerf while recording its trace."""
    workload = get_workload(workload_name)
    program = instrument_program(workload.build_verified())
    machine = Machine(program, workload.machine_config())
    writer = TraceWriter(str(trace_path), include_accesses=include_accesses)
    writer.attach(machine)                 # before the profiler, so the
    profiler = DJXPerf(config or DjxConfig())   # SamplerOpenEvent lands
    profiler.attach(machine)
    machine.run()
    writer.close()
    return profiler.analyze()


def site_key(site):
    """Everything the analyzer derives for a site, for exact compares."""
    return (site.location, dict(site.metrics), site.alloc_count,
            site.allocated_bytes, site.remote_samples, site.local_samples,
            {tuple(p): dict(m) for p, m in site.access_contexts.items()})


def analysis_key(analysis):
    return (sorted(site_key(s) for s in analysis.sites),
            analysis.total_samples, analysis.unknown_samples,
            analysis.thread_count)


class TestReplayEquivalence:
    @pytest.mark.parametrize("workload", ["objectlayout", "findbugs"])
    def test_replay_reproduces_live_analysis(self, workload, tmp_path):
        path = tmp_path / f"{workload}.trace.jsonl"
        live = record_run(workload, path)
        replayed = replay_analyze(str(path))
        assert analysis_key(replayed) == analysis_key(live)

    def test_replay_with_lower_threshold_tracks_more(self, tmp_path):
        # The trace records *every* allocation (the hook fires before
        # the agent filters), so replay can lower S below the recording
        # run's value and see objects the live profiler skipped.
        path = tmp_path / "t.jsonl"
        record_run("mnemonics", path,
                   config=DjxConfig(size_threshold=1024))
        default = replay_analyze(str(path),
                                 DjxConfig(size_threshold=1024))
        everything = replay_analyze(str(path), DjxConfig(size_threshold=0))
        tracked_default = sum(s.alloc_count for s in default.sites)
        tracked_all = sum(s.alloc_count for s in everything.sites)
        assert tracked_all > tracked_default

    def test_resample_changes_period_offline(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        live = record_run("objectlayout", path, include_accesses=True)
        half = replay_analyze(
            str(path), DjxConfig(sample_period=32,
                                 collect_access_contexts=False),
            resample=True)
        # Twice the sampling rate, same deterministic access stream:
        # twice the samples, same top object.
        assert half.total() == 2 * live.total()
        assert half.top_sites(1)[0].location == \
            live.top_sites(1)[0].location

    def test_resample_without_accesses_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        record_run("objectlayout", path, include_accesses=False)
        with pytest.raises(ValueError, match="include_accesses"):
            replay_analyze(str(path), resample=True)

    def test_replay_at_another_period_refused(self, tmp_path):
        # Recorded samples cannot be re-derived at another period:
        # without resampling, a DJXPerf trace replays only at its own.
        path = tmp_path / "t.jsonl"
        record_run("objectlayout", path, config=DjxConfig(sample_period=64))
        assert replay_analyze(str(path), DjxConfig(sample_period=64)).sites
        with pytest.raises(ValueError, match="recorded period"):
            replay_analyze(str(path), DjxConfig(sample_period=32))


class TestFamilyReplayParity:
    """Family collectors reproduce their live analysis from a trace."""

    CASES = [("dup-strings", "replica"), ("dead-stores", "redundancy")]

    @pytest.mark.parametrize("workload,family", CASES)
    def test_family_replay_is_byte_identical(self, workload, family,
                                             tmp_path):
        import json

        from repro.workloads import run_profiled

        path = str(tmp_path / f"{workload}.trace.jsonl.gz")
        run = run_profiled(get_workload(workload), config=DjxConfig(),
                           family=family, trace_path=path)
        replayed = replay_analyze(path, DjxConfig(), family=family)
        assert json.dumps(replayed.to_dict(), sort_keys=True) \
            == json.dumps(run.analysis.to_dict(), sort_keys=True)

    def test_family_replay_needs_access_stream(self, tmp_path):
        # A family trace carries no access stream, and needs none at the
        # recorded period; another period cannot be re-derived from it.
        from repro.obs.trace import TraceReader
        from repro.workloads import run_profiled

        path = str(tmp_path / "t.jsonl.gz")
        run_profiled(get_workload("dup-strings"),
                     config=DjxConfig(sample_period=64), family="replica",
                     trace_path=path)
        assert not TraceReader(path).includes_accesses
        config = DjxConfig(sample_period=64, size_threshold=0)
        assert replay_analyze(path, config, family="replica").sites
        with pytest.raises(ValueError, match="recorded period"):
            replay_analyze(path, DjxConfig(sample_period=32,
                                           size_threshold=0),
                           family="replica")


class TestSharedRun:
    def test_four_profilers_observe_one_simulation(self):
        """DJXPerf + all three baselines subscribe to one machine.

        The single-run decomposition the bus makes possible: one
        simulated execution feeds four profiler families, and each
        reports its own per-collector cycle charges.
        """
        workload = get_workload("objectlayout")
        program = instrument_program(workload.build_verified())
        machine = Machine(program, workload.machine_config())

        djx = DJXPerf(DjxConfig())
        reuse = ReuseDistanceProfiler(modelled_cache_lines=128,
                                      charge_overhead=False)
        allocfreq = AllocFrequencyProfiler(charge_overhead=False)
        codecentric = CodeCentricProfiler()

        djx.attach(machine)
        reuse.attach(machine)
        allocfreq.attach(machine)
        codecentric.attach(machine)
        assert len(machine.bus.collectors) == 4
        machine.run()

        culprit = "Objectlayout.run:292"
        resolver = djx.frame_resolver()
        assert djx.analyze().top_sites(1)[0].location == culprit
        assert reuse.analyze(resolver).top_sites(1)[0].location == culprit
        assert allocfreq.analyze(resolver).top_sites(1)[0] \
                        .location == culprit
        # Code-centric profiling points at *code*, not the object: its
        # top location is the access loop, not the allocation site.
        cc_top = codecentric.analyze(resolver).top_locations(1)[0]
        assert cc_top.location.location != culprit

        # Each collector accounted for its own (hypothetical) cycles —
        # the decomposition the suite benchmark uses.
        assert djx.charged_cycles > 0
        # Overhead charging was off for the baselines, so the shared
        # run's timing equals DJXPerf-alone timing.
        assert reuse.charged_cycles == 0
        assert allocfreq.charged_cycles == 0

    def test_shared_run_matches_solo_analyses(self):
        """Profilers sharing a bus see what they'd see running alone."""
        def build_machine():
            workload = get_workload("objectlayout")
            program = instrument_program(workload.build_verified())
            return Machine(program, workload.machine_config())

        solo_machine = build_machine()
        solo = ReuseDistanceProfiler(modelled_cache_lines=128,
                                     charge_overhead=False)
        solo.attach(solo_machine)
        solo_machine.run()

        shared_machine = build_machine()
        shared = ReuseDistanceProfiler(modelled_cache_lines=128,
                                       charge_overhead=False)
        djx = DJXPerf(DjxConfig())
        shared.attach(shared_machine)
        djx.attach(shared_machine)
        shared_machine.run()

        a, b = solo.analyze(), shared.analyze()
        assert a.total_accesses == b.total_accesses
        assert [s.location for s in a.top_sites(3)] \
            == [s.location for s in b.top_sites(3)]
