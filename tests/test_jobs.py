"""The one worker budget: results in payload order, at most one worker
per job, a budget of one inside a worker, and a worker's numerical
failure carried back whole."""

import os

import numpy as np
import pytest

from netcov import jobs
from netcov.solver import ConvergenceError


def _square(x):
    return x * x


def _budget_and_pid(_):
    return jobs.worker_budget(), os.getpid()


def _fail(x):
    raise ConvergenceError(f"point {x} did not converge", 0.5, np.ones(2),
                           3e-3, 17)


def test_results_in_payload_order(monkeypatch):
    for threads in ("1", "2"):
        monkeypatch.setenv("NETCOV_THREADS", threads)
        assert jobs.run_jobs(_square, list(range(7))) == [
            x * x for x in range(7)]


def test_a_job_in_a_worker_runs_its_jobs_serially(monkeypatch):
    monkeypatch.setenv("NETCOV_THREADS", "2")
    assert jobs.worker_budget() == 2
    inside = jobs.run_jobs(_budget_and_pid, [0, 1])
    assert [budget for budget, _ in inside] == [1, 1]
    assert os.getpid() not in {pid for _, pid in inside}


def test_one_job_or_one_worker_starts_no_pool(monkeypatch):
    def no_pool(max_workers, **kwargs):
        raise AssertionError(f"a pool of {max_workers} was started")

    monkeypatch.setattr(jobs, "ProcessPoolExecutor", no_pool)
    monkeypatch.setenv("NETCOV_THREADS", "4")
    assert jobs.run_jobs(_square, [3]) == [9]
    assert jobs.run_jobs(_square, []) == []
    monkeypatch.setenv("NETCOV_THREADS", "1")
    assert jobs.run_jobs(_square, [1, 2, 3]) == [1, 4, 9]


def test_numerical_failure_crosses_the_pool_whole(monkeypatch):
    # an unpicklable error would reach the parent as a broken pool, which
    # the command line reports as a crash rather than exit code 4
    monkeypatch.setenv("NETCOV_THREADS", "2")
    with pytest.raises(ConvergenceError,
                       match="point 0 did not converge") as info:
        jobs.run_jobs(_fail, [0, 1])
    error = info.value
    assert (error.mu, error.kkt_residual, error.sweeps) == (0.5, 3e-3, 17)
    np.testing.assert_array_equal(error.beta_tilde, np.ones(2))
