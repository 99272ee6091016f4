"""Planted-site ranking: each family finds its planted inefficiency.

The acceptance bar for the profiler families: on every planted
workload, the planted allocation site ranks #1 for its family at
sampling periods 64, 13 and 1 — live, and byte-identically when the
recorded trace is replayed offline.
"""

import json

import pytest

from repro.core import DjxConfig
from repro.obs.replay import replay_analyze
from repro.workloads import get_workload, run_profiled
from repro.workloads.planted import PLANTED_SITES

PERIODS = (64, 13, 1)


def _canon(analysis) -> str:
    return json.dumps(analysis.to_dict(), sort_keys=True)


@pytest.mark.parametrize("period", PERIODS)
@pytest.mark.parametrize("name", sorted(PLANTED_SITES))
class TestPlantedRanking:
    def test_planted_site_ranks_first_live_and_replayed(
            self, name, period, tmp_path):
        family, (cls, method, line) = PLANTED_SITES[name]
        trace = str(tmp_path / f"{name}-{period}.trace.jsonl.gz")
        run = run_profiled(get_workload(name),
                           config=DjxConfig(sample_period=period),
                           family=family, trace_path=trace)
        analysis = run.analysis

        top = analysis.top_sites(2)
        leaf = top[0].leaf
        assert (leaf.class_name, leaf.method_name, leaf.line) \
            == (cls, method, line)
        # The planted site dominates, it does not win a tie.
        primary = analysis.primary_event
        assert top[0].metric(primary) > 0
        if len(top) > 1:
            assert top[0].metric(primary) > top[1].metric(primary)

        replayed = replay_analyze(trace, DjxConfig(sample_period=period),
                                  family=family)
        assert _canon(replayed) == _canon(analysis)


class TestFixedVariantRemovesSignal:
    @pytest.mark.parametrize("name", sorted(PLANTED_SITES))
    def test_fixed_variant_clears_planted_site(self, name):
        family, (cls, method, line) = PLANTED_SITES[name]
        run = run_profiled(get_workload(name), variant="fixed",
                           config=DjxConfig(sample_period=64),
                           family=family)
        site = run.analysis.site_at(cls, method, line)
        if site is not None:
            assert site.metric(run.analysis.primary_event) == 0
