"""The four workloads: which jobs each runs, in what order, and why.

Every workload has a fixed set of jobs.  The benchmark seed sets only
the order and the per-job machine seeds, so every seed runs the same
programs and a claim can be re-checked on a fresh seed.  The job count
scales with ``--seconds`` in whole rounds, so a given ``--seconds``
always means the same count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

PROFILE_COMPUTE = "profile-compute"
PROFILE_MEMORY = "profile-memory"
OPTIMIZE = "optimize"
FLEET = "fleet"
WORKLOADS = (PROFILE_COMPUTE, PROFILE_MEMORY, OPTIMIZE, FLEET)

#: Instruction-bound: `jvm` dispatch does most of the work.  Two kernels
#: make no memory accesses; akka-uct is call-heavy.
COMPUTE_PROGRAMS = (
    "kernel-arith", "kernel-mixed", "kernel-field", "kernel-array",
    "akka-uct", "scimark-fft", "dup-tables", "redundant-fill",
    "scala-stm-bench7", "boxed-counters")

#: Access-bound: bulk walks, PMU sampling, the analyzer and the report
#: do the work.  The five acc-* programs plant a site that must rank
#: first.
MEMORY_PROGRAMS = (
    "apache-druid", "insig-specjbb", "insig-lusearch-fix",
    "eclipse-collections", "findbugs", "lusearch-collector",
    "objectlayout", "mnemonics", "tlb-hostile", "acc-luindex",
    "acc-bloat", "acc-lusearch", "acc-xalan", "acc-specjbb")

#: (program, family, expected status, expected transform).
#: redundant-fill (5 s a verdict) is left out to fit the run budget;
#: dead-stores covers the same transform and family.
OPTIMIZE_VERDICTS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("unsized-growth", "djxperf", "accepted", "presize"),
    ("padded-layout", "djxperf", "accepted", "reorder-fields"),
    ("boxed-counters", "djxperf", "accepted", "swap-boxed-array"),
    ("dead-stores", "redundancy", "accepted", "eliminate-dead-stores"),
    ("dup-strings", "replica", "accepted", "hoist"),
    ("objectlayout", "djxperf", "rejected", "hoist"),
    ("findbugs", "djxperf", "rejected", "hoist"),
    ("acc-bloat", "djxperf", "rejected", "hoist"),
    ("mnemonics", "djxperf", "no-candidate", None),
    ("akka-uct", "djxperf", "no-candidate", None),
)

#: Light simulations so the serving layers carry the load.
FLEET_PROGRAMS = ("crypto", "avrora", "sunflow", "montecarlo", "xalan",
                  "objectlayout", "kernel-array", "tlb-hostile")
#: The machine seed half the fleet jobs share, so repeats hit the store.
FLEET_FIXED_SEED = 4242
#: (step name, offered jobs/s, share of --seconds): `lo` and `hi` are
#: below this host's capacity, `peak` above it.
FLEET_STEPS = (("lo", 4, 0.4), ("hi", 16, 0.3), ("peak", 32, 0.3))
FLEET_TENANTS = ("tenant-a", "tenant-b")

#: Wall time of one round on a 2-core x86-64 host at the seed commit;
#: only used to turn ``--seconds`` into a whole number of rounds.
ROUND_SECONDS = {PROFILE_COMPUTE: 2.0, PROFILE_MEMORY: 2.6, OPTIMIZE: 25.0}


@dataclass(frozen=True)
class Job:
    """One unit of work a workload's caller issues."""

    program: str
    #: Machine seed (None: the program's own default).
    seed: Optional[int] = None
    family: str = "djxperf"
    #: Fleet only: tenant, step name and due time from the step start.
    tenant: str = ""
    step: str = ""
    due: float = 0.0


def rounds(workload: str, seconds: float) -> int:
    """Whole rounds of a closed-loop workload for ``seconds``."""
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def _fresh_seed(rng: random.Random) -> int:
    return rng.randrange(1_000_000, 2 ** 31)


def profile_jobs(workload: str, seed: int, seconds: float) -> List[Job]:
    """Rounds of every program, each round in a seeded order."""
    programs = (COMPUTE_PROGRAMS if workload == PROFILE_COMPUTE
                else MEMORY_PROGRAMS)
    rng = random.Random(seed)
    jobs = []
    for _ in range(rounds(workload, seconds)):
        order = list(programs)
        rng.shuffle(order)
        jobs.extend(Job(program, _fresh_seed(rng)) for program in order)
    return jobs


def optimize_jobs(seed: int, seconds: float) -> List[Job]:
    """Rounds of every verdict in a seeded order, default machine seeds
    (so simulated cycles, and the verified speedup, are seed-free)."""
    rng = random.Random(seed)
    jobs = []
    for _ in range(rounds(OPTIMIZE, seconds)):
        order = list(OPTIMIZE_VERDICTS)
        rng.shuffle(order)
        jobs.extend(Job(program, None, family)
                    for program, family, _status, _transform in order)
    return jobs


def fleet_jobs(seed: int, seconds: float) -> List[Job]:
    """Open-loop arrivals for each step.

    A step of n jobs takes the first n of a fixed cycle of (program,
    fixed or fresh seed) pairs, then shuffles them: every seed offers
    the same programs, and the same half of them reuse the fixed seed.
    """
    rng = random.Random(seed)
    pairs = [(program, fixed) for fixed in (True, False)
             for program in FLEET_PROGRAMS]
    jobs = []
    for name, rate, share in FLEET_STEPS:
        count = max(1, round(rate * share * seconds))
        chosen = [pairs[i % len(pairs)] for i in range(count)]
        rng.shuffle(chosen)
        for i, (program, fixed) in enumerate(chosen):
            jobs.append(Job(
                program, FLEET_FIXED_SEED if fixed else _fresh_seed(rng),
                tenant=FLEET_TENANTS[i % len(FLEET_TENANTS)], step=name,
                due=i / rate))
    return jobs


def jobs_for(workload: str, seed: int, seconds: float) -> List[Job]:
    if workload in (PROFILE_COMPUTE, PROFILE_MEMORY):
        return profile_jobs(workload, seed, seconds)
    if workload == OPTIMIZE:
        return optimize_jobs(seed, seconds)
    if workload == FLEET:
        return fleet_jobs(seed, seconds)
    raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")
