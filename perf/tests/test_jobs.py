from collections import Counter

import pytest

from perf import jobs


def _identity(job):
    fixed = job.seed == jobs.FLEET_FIXED_SEED
    return (job.program, job.family, job.step, fixed if job.step else None)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_sequence(workload):
    assert jobs.jobs_for(workload, 7, 15) == jobs.jobs_for(workload, 7, 15)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_other_seeds_run_the_same_set_of_jobs(workload):
    first = jobs.jobs_for(workload, 1, 15)
    second = jobs.jobs_for(workload, 2, 15)
    assert first != second
    assert Counter(map(_identity, first)) == Counter(map(_identity, second))


def test_profile_rounds_cover_every_program_once_per_round():
    for workload, programs in ((jobs.PROFILE_COMPUTE, jobs.COMPUTE_PROGRAMS),
                               (jobs.PROFILE_MEMORY, jobs.MEMORY_PROGRAMS)):
        sequence = jobs.jobs_for(workload, 3, 15)
        per_round = len(programs)
        assert len(sequence) == per_round * jobs.rounds(workload, 15)
        for start in range(0, len(sequence), per_round):
            chunk = sequence[start:start + per_round]
            assert sorted(j.program for j in chunk) == sorted(programs)


def test_job_count_is_fixed_by_seconds():
    assert jobs.rounds(jobs.PROFILE_COMPUTE, 12) == 6
    assert jobs.rounds(jobs.OPTIMIZE, 1) == 1
    assert len(jobs.jobs_for(jobs.PROFILE_COMPUTE, 1, 24)) == \
        2 * len(jobs.jobs_for(jobs.PROFILE_COMPUTE, 1, 12))


def test_optimize_jobs_keep_default_machine_seeds():
    sequence = jobs.jobs_for(jobs.OPTIMIZE, 5, 15)
    assert all(job.seed is None for job in sequence)
    assert len(sequence) == len(jobs.OPTIMIZE_VERDICTS)


def test_fleet_steps_offer_their_rate_half_with_the_fixed_seed():
    sequence = jobs.jobs_for(jobs.FLEET, 4, 20)
    for name, rate, share in jobs.FLEET_STEPS:
        step = [job for job in sequence if job.step == name]
        assert len(step) == round(rate * share * 20)
        assert [job.due for job in step] == \
            [i / rate for i in range(len(step))]
        assert {job.tenant for job in step} == set(jobs.FLEET_TENANTS)
        fixed = [j for j in step if j.seed == jobs.FLEET_FIXED_SEED]
        assert len(fixed) == len(step) // 2


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        jobs.jobs_for("nope", 1, 10)
