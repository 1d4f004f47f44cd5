import os
import random
import signal
import threading
from dataclasses import dataclass

import pytest

from eps_select.runner import TaskFailed, raise_failures, run_pool
from eps_select.search import TimeMode


@dataclass
class FakeResult:
    work_used: float


def test_single_worker_sequential_order():
    seen = []
    results, ledger = run_pool(
        list(range(10)), 1, lambda t: (seen.append(t), FakeResult(t))[1]
    )
    assert seen == list(range(10))
    assert [r.index for r in results] == list(range(10))
    assert ledger.grand_total == sum(range(10))


def test_all_tasks_complete_with_many_workers():
    tasks = list(range(25))
    results, ledger = run_pool(tasks, 25, lambda t: FakeResult(1.0))
    assert len(results) == 25
    assert not any(r.failed for r in results)
    assert ledger.grand_total == 25.0


def test_work_mode_results_independent_of_worker_count():
    tasks = list(range(40))
    base = [r.result.work_used for r in run_pool(tasks, 1, lambda t: FakeResult(t * t))[0]]
    for workers in (2, 5, 13):
        got = [r.result.work_used for r in run_pool(tasks, workers, lambda t: FakeResult(t * t))[0]]
        assert got == base


def test_ledger_accounting_exact():
    rng = random.Random(0)
    costs = [rng.uniform(0.1, 9) for _ in range(60)]
    results, ledger = run_pool(list(range(60)), 7, lambda t: FakeResult(costs[t]))
    assert ledger.grand_total == pytest.approx(sum(costs))
    assert len(ledger.per_worker) == 7


def test_statistical_load_balance():
    # 300 skewed tasks over 10 workers: the min-clock pull keeps loads close
    rng = random.Random(42)
    costs = [rng.lognormvariate(0, 1) for _ in range(300)]
    _, ledger = run_pool(list(range(300)), 10, lambda t: FakeResult(costs[t]))
    mx, mean, ratio = ledger.load_balance()
    assert mean > 0
    assert ratio <= 1.5


def test_failed_task_runs_once():
    # tasks are deterministic: a task that raises is not run again, and the
    # pool stops at it
    calls = []

    def broken(t):
        calls.append(t)
        if t == 1:
            raise ValueError("boom")
        return FakeResult(1.0)

    results, _ = run_pool([0, 1, 2], 1, broken)
    assert calls == [0, 1]
    assert [r.failed for r in results] == [False, True]


def test_persistent_failure_reported():
    def broken(t):
        if t == 2:
            raise RuntimeError("boom")
        return FakeResult(1.0)

    results, ledger = run_pool(list(range(4)), 2, broken)
    assert len(results) == 3  # task 3 never runs
    failed = [r for r in results if r.failed]
    assert len(failed) == 1 and failed[0].task == 2
    assert isinstance(failed[0].result, RuntimeError)
    assert ledger.grand_total == 2.0
    with pytest.raises(TaskFailed) as exc:
        raise_failures(results)
    assert exc.value.__cause__ is failed[0].result
    raise_failures(results[:2])  # no failed task: no error


def test_wall_mode_runs_tasks_in_calling_thread_in_order():
    seen = []

    def record(t):
        seen.append((t, threading.get_ident()))
        return FakeResult(t)

    results, ledger = run_pool(list(range(30)), 4, record, time_mode=TimeMode.WALL)
    assert seen == [(t, threading.get_ident()) for t in range(30)]  # once each
    assert [r.task for r in results] == list(range(30))
    assert ledger.grand_total > 0  # measured milliseconds


# ---------------------------------------------------------------------------
# worker processes (processes=True): these tests fake two usable CPUs, so the
# forked path runs on any host with os.fork


fork_only = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@pytest.fixture
def forks(monkeypatch):
    """The pids of the worker processes forked during the test (two CPUs);
    a pool still running after 60 s fails the test instead of hanging it."""
    pids = []
    real_fork = getattr(os, "fork", None)

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1}, raising=False)

    def hung(_signum, _frame):
        raise TimeoutError("the pool did not finish within 60 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield pids
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _all_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    return True


@fork_only
def test_forked_pool_matches_in_process(forks):
    rng = random.Random(3)
    costs = [rng.randint(1, 50) for _ in range(300)]
    here = run_pool(list(range(300)), 3, lambda t: FakeResult(costs[t]))
    forked = run_pool(list(range(300)), 3, lambda t: FakeResult(costs[t]), processes=True)
    assert len(forks) == 2  # two CPUs cap the three workers
    assert _all_reaped(forks)
    assert [(r.index, r.task, r.result, r.worker, r.failed) for r in forked[0]] == [
        (r.index, r.task, r.result, r.worker, r.failed) for r in here[0]
    ]
    assert forked[1].per_worker == here[1].per_worker


@fork_only
def test_forked_wall_mode_charges_measured_milliseconds(forks):
    results, ledger = run_pool(
        list(range(40)), 2, lambda t: FakeResult(t), time_mode=TimeMode.WALL, processes=True
    )
    assert len(forks) == 2 and _all_reaped(forks)
    assert [r.result.work_used for r in results] == list(range(40))
    assert ledger.grand_total > 0


@fork_only
def test_single_worker_or_one_task_never_forks(forks):
    run_pool(list(range(20)), 1, lambda t: FakeResult(t), processes=True)
    run_pool([0], 4, lambda t: FakeResult(t), processes=True)
    run_pool(list(range(20)), 4, lambda t: FakeResult(t))  # processes not asked for
    assert forks == []


@fork_only
def test_forked_failure_stops_results_and_keeps_the_cause(forks):
    def broken(t):
        if t == 57:
            raise ValueError(f"task {t} is broken")
        return FakeResult(1.0)

    results, ledger = run_pool(list(range(200)), 2, broken, processes=True)
    assert _all_reaped(forks)
    assert [r.task for r in results] == list(range(58))  # nothing after the failure
    assert [r.failed for r in results] == [False] * 57 + [True]
    assert ledger.grand_total == 57.0
    with pytest.raises(TaskFailed) as exc:
        raise_failures(results)
    assert isinstance(exc.value.__cause__, ValueError)
    assert str(exc.value.__cause__) == "task 57 is broken"


@fork_only
def test_forked_unpicklable_exception_travels_as_runtime_error(forks):
    class Local(Exception):  # a local class does not pickle
        pass

    def broken(t):
        if t == 3:
            raise Local("no way back")
        return FakeResult(1.0)

    results, _ = run_pool(list(range(10)), 2, broken, processes=True)
    assert _all_reaped(forks)
    cause = results[-1].result
    assert results[-1].task == 3 and type(cause) is RuntimeError
    assert str(cause) == repr(Local("no way back"))


@fork_only
def test_forked_unpicklable_result_fails_its_worker(forks):
    results, _ = run_pool(
        list(range(10)), 2, lambda t: (lambda: t) if t == 4 else FakeResult(1.0), processes=True
    )
    assert _all_reaped(forks)
    # the worker cannot send its chunk back and dies; its chunk holds task 4
    assert results[-1].failed and results[-1].task <= 4
    assert not any(r.failed for r in results[:-1])
    assert "exited with status 1 while solving tasks" in str(results[-1].result)


@fork_only
def test_worker_that_dies_mid_chunk_is_a_clear_failure(forks):
    def fatal(t):
        if t == 30:
            os._exit(3)  # runs only in a forked worker
        return FakeResult(1.0)

    results, _ = run_pool(list(range(100)), 2, fatal, processes=True)
    assert _all_reaped(forks)
    assert results[-1].failed and results[-1].task <= 30
    assert not any(r.failed for r in results[:-1])
    with pytest.raises(TaskFailed, match="exited with status 3 while solving tasks"):
        raise_failures(results)


@fork_only
def test_worker_processes_capped_by_usable_cpus(forks, monkeypatch):
    from eps_select.cli import main

    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1, 2}, raising=False)
    argv = ["pss", "--model", "nqueens", "--n", "6", "--target-subproblems", "20",
            "--sample-size", "5", "--workers", "16"]
    assert main(argv) == 0
    assert len(forks) == 3  # one remainder pool, three usable CPUs
    assert _all_reaped(forks)
