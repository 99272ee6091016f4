"""Sampled families against the exact oracle (:mod:`tests.families.oracle`).

The production families see a sample of the accesses: JXPerf-style
watchpoints armed by sampled loads and stores, OJXPerf-style contents
read from the heap.  The oracle sees every valued access.  On each
planted program, at every sampling period the ranking tests use, both
must name the same top allocation site.
"""

import pytest

from repro.core import DjxConfig
from repro.workloads import get_workload, run_profiled

from tests.families.oracle import run_oracle

PERIODS = (64, 13, 1)

PROGRAMS = {
    "dead-stores": "redundancy",
    "silent-loads": "redundancy",
    "redundant-fill": "redundancy",
    "dup-strings": "replica",
    "dup-tables": "replica",
}


def _top(analysis):
    site = analysis.top_sites(1)[0]
    assert site.metric(analysis.primary_event) > 0
    return site.location


@pytest.mark.parametrize("period", PERIODS)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_sampled_top_site_matches_oracle(name, period):
    family = PROGRAMS[name]
    sampled = run_profiled(get_workload(name),
                           config=DjxConfig(sample_period=period),
                           family=family).analysis
    assert _top(sampled) == _top(run_oracle(name, family, period))
