"""Execution-engine parity for the profiler families.

The legacy single-step interpreter (the semantic oracle) and the
production fused superinstruction engine must feed families the exact
same event stream: one planted workload per family produces
byte-identical analyses under both engines.
"""

import dataclasses
import json

import pytest

from repro.core import DjxConfig
from repro.core.javaagent import instrument_program
from repro.families import make_family
from repro.jvm.machine import Machine
from repro.workloads import get_workload

PERIOD = 64

ENGINES = {
    "legacy": dict(fastpath=False),
    "fused": dict(fastpath=True),
}

CASES = [("dup-tables", "replica"), ("silent-loads", "redundancy")]


def _run(name, family, engine):
    workload = get_workload(name)
    program = instrument_program(workload.build_verified())
    config = dataclasses.replace(workload.machine_config(),
                                 **ENGINES[engine])
    machine = Machine(program, config)
    profiler = make_family(family, DjxConfig(sample_period=PERIOD,
                                             size_threshold=0))
    profiler.attach(machine)
    machine.run()
    return json.dumps(profiler.analyze().to_dict(), sort_keys=True)


@pytest.mark.parametrize("name,family", CASES)
def test_engines_produce_identical_family_analyses(name, family):
    assert _run(name, family, "fused") == _run(name, family, "legacy")
