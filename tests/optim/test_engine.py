"""End-to-end tests for the profile-guided optimization engine."""

import json
import os
import subprocess
import sys

import pytest

from repro.jvm import Machine
from repro.optim.engine import (
    ACCEPTED,
    NO_CANDIDATE,
    REJECTED,
    OptimizationVerdict,
    optimize_workload,
)


@pytest.fixture(scope="module")
def accepted_verdict():
    """One full accepted loop, shared across assertions (it's slow)."""
    return optimize_workload("unsized-growth")


@pytest.fixture(scope="module")
def rejected_verdict():
    """A deliberately non-improving rewrite: presizing to 2 slots."""
    return optimize_workload("unsized-growth", capacity=2)


class TestAccepted:
    def test_status_and_transform(self, accepted_verdict):
        v = accepted_verdict
        assert v.status == ACCEPTED
        assert v.ok
        assert v.transform == "presize"
        assert not v.rolled_back

    def test_metric_dropped_at_site_and_total(self, accepted_verdict):
        v = accepted_verdict
        assert v.metric_total_after < v.metric_total_before
        assert v.site_metric_after < v.site_metric_before

    def test_measured_speedup(self, accepted_verdict):
        v = accepted_verdict
        assert v.optimized_cycles < v.baseline_cycles
        assert v.speedup is not None and v.speedup > 1.0

    def test_differential_safety_across_engines(self, accepted_verdict):
        v = accepted_verdict
        assert v.output_equal is True
        assert v.engines_checked == ("legacy", "fused")

    def test_verification_runs_the_rewrite_once_per_engine(
            self, accepted_verdict, monkeypatch):
        # Gate 0 already ran the rewrite on the production engine, so
        # Gate 2 runs only the legacy oracle against that result.  The
        # runs are: baseline, baseline profile, Gate 0, Gate 2 legacy,
        # Gate 3 profile — one fewer than when Gate 2 re-ran the
        # production engine, with the same verdict.
        engines = []
        run = Machine.run

        def counting_run(machine):
            engines.append(machine.config.fastpath)
            return run(machine)

        monkeypatch.setattr(Machine, "run", counting_run)
        v = optimize_workload("unsized-growth")
        assert engines == [True, True, True, False, True]
        assert v == accepted_verdict
        assert (v.baseline_cycles, v.optimized_cycles) == (3312590, 2633100)
        assert (v.metric_total_before, v.metric_total_after) == (84, 48)
        assert (v.site_metric_before, v.site_metric_after) == (84, 0)

    def test_round_trips_through_dict(self, accepted_verdict):
        data = accepted_verdict.to_dict()
        back = OptimizationVerdict.from_dict(data)
        assert back == accepted_verdict
        assert data["speedup"] == pytest.approx(accepted_verdict.speedup)

    def test_render_mentions_verdict_and_engines(self, accepted_verdict):
        text = accepted_verdict.render()
        assert "ACCEPTED" in text
        assert "legacy" in text and "fused" in text


class TestRejectedRollback:
    def test_non_improving_rewrite_is_rejected(self, rejected_verdict):
        v = rejected_verdict
        assert v.status == REJECTED
        assert not v.ok
        assert v.rolled_back
        assert "no measured improvement" in v.reason

    def test_rejection_keeps_measurements(self, rejected_verdict):
        # The verdict still reports what was measured before rollback.
        v = rejected_verdict
        assert v.baseline_cycles > 0
        assert v.optimized_cycles > 0
        assert v.site_metric_after >= v.site_metric_before

    def test_render_mentions_rollback(self, rejected_verdict):
        assert "rolled back" in rejected_verdict.render()


class TestNoCandidate:
    def test_workload_without_matching_shape(self):
        # objectlayout's advice has no presize-able growth chain.
        verdict = optimize_workload("objectlayout", transform="presize")
        assert verdict.status == NO_CANDIDATE
        assert verdict.transform is None
        assert verdict.attempts == [] or all(
            a["outcome"] != "applied" for a in verdict.attempts)


class TestFamilyPlumbing:
    def test_redundancy_family_selects_dead_store_elimination(self):
        verdict = optimize_workload("redundant-fill", family="redundancy")
        assert verdict.status == ACCEPTED
        assert verdict.transform == "eliminate-dead-stores"
        assert verdict.event == "redundancy"

    def test_unsupported_combination_raises(self):
        with pytest.raises(ValueError,
                           match="not applicable to family 'redundancy'"):
            optimize_workload("redundant-fill", family="redundancy",
                              transform="presize")

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError, match="no optimization transforms"):
            optimize_workload("unsized-growth", family="no-such")


def test_engine_import_leaves_the_serving_tier_unloaded():
    """The optimizer needs only the regression engine from the serving
    tier; importing it must not pull in the store, the fleet or the
    front door (SQLite, asyncio, process pools)."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "src")
    probe = ("import json, sys, repro.optim.engine; "
             "print(json.dumps(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    loaded = set(json.loads(out))
    assert not loaded & {"sqlite3", "asyncio", "multiprocessing"}
    assert {m for m in loaded if m.startswith("repro.serve.")} == \
        {"repro.serve.regress"}
