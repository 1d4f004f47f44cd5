import random
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
