"""Continuous-profiling service (the serving layer).

The paper's workflow is iterative — profile, fix the top object,
re-profile, confirm the misses moved — which only works if profiles
outlive the process that produced them.  This package turns the
one-shot CLI profiler into a service:

:mod:`repro.serve.store`
    Persistent, content-addressed profile store (SQLite index over
    gzipped JSON payloads) keyed by
    ``(workload, variant, program-hash, config-hash, seed)``.
:mod:`repro.serve.queue`
    Spool-directory job queue: ``submit`` drops a JSON job file,
    the daemon claims it with an atomic rename, outcomes land in
    ``done/``/``failed/``.
:mod:`repro.serve.workers`
    Process worker pool with per-task timeouts, bounded retries with
    backoff, and crashed/hung-worker recycling.
:mod:`repro.serve.regress`
    Cross-run regression engine over :mod:`repro.core.diff`: new top-N
    objects, sample-share swings, throughput drops → machine-readable
    verdicts.
:mod:`repro.serve.service`
    The daemon: claim one job per free worker, complete each as its
    simulation ends, persist results, heartbeat to a JSONL status
    file, and wait on the queue's wake event when idle.
:mod:`repro.serve.router`
    The fleet tier: stable shard placement over N shard directories,
    the fleet-wide ``(program-hash, config-hash, seed)`` dedupe index,
    and the :class:`~repro.serve.router.Fleet` assembly.
:mod:`repro.serve.http`
    Asyncio HTTP front door: submit / status / history / regress /
    fleet endpoints over stdlib streams, with 429 + ``Retry-After``
    backpressure from the queue's fairness policy.
:mod:`repro.serve.loadgen`
    Load generator behind ``bench --serve-load``: K concurrent HTTP
    clients against a 1-shard and an N-shard fleet — p50/p99
    submit-to-verdict latency, jobs/sec scaling, dedupe and warm hit
    rates — and the reshard phase's 429 and cross-shard dedupe check.

There is one serving topology: the in-process fleet, with shard
polling on threads and simulations on :mod:`repro.serve.workers`
processes when a shard has ``jobs > 1``.

The package re-exports nothing: import from the submodule.  Importing
:mod:`repro.serve.regress` alone (as the optimizer does) then loads no
SQLite, asyncio or process-pool machinery.
"""
