"""One budget of ``NETCOV_THREADS`` worker processes (default 1) for
independent jobs, grid cells or CV folds.  A job that runs in a worker
runs its own jobs serially: nested jobs share the budget."""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial

__all__ = ["ConfigError", "worker_budget", "run_jobs"]


class ConfigError(Exception):
    pass


def worker_budget():
    """``NETCOV_THREADS``, checked; 1 inside a worker process."""
    value = os.environ.get("NETCOV_THREADS", "1")
    if not value.isdecimal() or int(value) < 1:
        raise ConfigError(
            f"NETCOV_THREADS must be a positive integer, got {value!r}")
    return 1 if multiprocessing.parent_process() is not None else int(value)


def run_jobs(job, payloads, shared=()):
    """``[job(*shared, p) for p in payloads]`` on at most one worker per
    payload (fork starts every worker of a pool at its first submit).

    ``shared`` reaches each worker once, through the pool's initializer,
    which a forked worker inherits without pickling; only the payloads
    are sent per job.
    """
    workers = min(worker_budget(), len(payloads))
    if workers < 2:
        return [job(*shared, p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers, initializer=_share,
                             initargs=shared) as pool:
        return list(pool.map(partial(_run_shared, job), payloads))


_shared = ()  # a worker's ``shared``, set by its pool's initializer


def _share(*shared):
    global _shared
    _shared = shared


def _run_shared(job, payload):
    return job(*_shared, payload)
