"""One fan-out rule for the per-pair and per-condition jobs.

Each CGAN in Algorithm 2 trains on its own data split with its own RNG
streams, and each (pair, condition) cell of Algorithm 3 is scored on its
own — the work is embarrassingly parallel.  :func:`fan_out` applies a
function to a list of jobs and returns the results **in job order**.
The worker count alone picks the schedule (:func:`pool_size`): a pool
of one runs the jobs in a loop in the calling thread; a larger pool
runs them on a process pool, so the mapped function and the jobs must
be picklable (module-level function + dataclass payloads).

Determinism does **not** depend on the schedule: per-job RNG streams
are derived from ``(pipeline seed, job identity)`` alone (see
:func:`repro.utils.rng.derive_rngs`), so serial and process schedules
produce bitwise-identical results.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from repro.utils.validation import check_positive_int


def pool_size(workers, n_jobs: int) -> int:
    """Processes :func:`fan_out` uses for *n_jobs* jobs: ``min(workers,
    n_jobs)``, at least 1; a pool of 1 is the calling thread."""
    return max(1, min(check_positive_int(workers, "workers"), n_jobs))


def fan_out(fn, jobs, workers) -> list:
    """Apply *fn* to every job; results come back in job order.

    Exceptions raised by *fn* propagate to the caller.
    """
    jobs = list(jobs)
    pool = pool_size(workers, len(jobs))
    if pool == 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=pool) as executor:
        return list(executor.map(fn, jobs))
