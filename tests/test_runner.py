import os
import random
import threading
from dataclasses import dataclass

import pytest

from eps_select.runner import TaskFailed, raise_failures, run_pool

from conftest import all_reaped, fork_only


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
    assert (ledger.worker_count, len(ledger.loads)) == (7, 7)


def test_statistical_load_balance():
    # 300 skewed tasks over 10 workers: the min-clock pull keeps loads close
    rng = random.Random(42)
    costs = [rng.lognormvariate(0, 1) for _ in range(300)]
    _, ledger = run_pool(list(range(300)), 10, lambda t: FakeResult(costs[t]))
    mx, mean, ratio = ledger.load_balance()
    assert mean > 0
    assert ratio <= 1.5


def _list_scan(costs, worker_count, fail_at=None):
    """The min-clock simulation with one clock per worker, scanned for each
    task: (each task's worker, the clocks)."""
    clocks = [0.0] * worker_count
    workers = []
    for t, cost in enumerate(costs):
        w = min(range(worker_count), key=clocks.__getitem__)
        workers.append(w)
        if t == fail_at:
            break
        clocks[w] += cost
    return workers, clocks


def test_ledger_assigns_the_workers_a_list_scan_assigns():
    # random costs, integer costs that tie, costs with zeros, fewer tasks
    # than workers, and a failing task
    rng = random.Random(11)
    for trial in range(400):
        workers = rng.randint(1, 12)
        count = rng.randint(0, 30)
        kind = trial % 3
        if kind == 0:
            costs = [rng.uniform(0.0, 9.0) for _ in range(count)]
        elif kind == 1:
            costs = [float(rng.randint(1, 4)) for _ in range(count)]
        else:
            costs = [float(rng.choice((0, 0, 1, 2))) for _ in range(count)]
        fail_at = rng.randrange(count) if count and trial % 5 == 0 else None

        def executor(t):
            if t == fail_at:
                raise ValueError("broken")
            return FakeResult(costs[t])

        results, ledger = run_pool(list(range(count)), workers, executor)
        want, clocks = _list_scan(costs, workers, fail_at)
        assert [r.worker for r in results] == want, (costs, workers)
        assert ledger.worker_count == workers
        assert ledger.loads + [0.0] * (workers - len(ledger.loads)) == clocks
        assert ledger.grand_total == sum(clocks)
        mx, mean = max(clocks), sum(clocks) / workers
        assert ledger.load_balance() == (mx, mean, mx / mean if mean > 0 else 1.0)


def test_a_billion_workers_cost_only_the_workers_that_pull_a_task():
    results, ledger = run_pool(
        list(range(5)), 10**9, lambda t: FakeResult(t + 1.0), processes=False
    )
    assert [r.worker for r in results] == [0, 1, 2, 3, 4]
    assert ledger.loads == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert ledger.grand_total == 15.0
    assert ledger.load_balance() == (5.0, 15.0 / 10**9, 5.0 / (15.0 / 10**9))


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

    results, ledger = run_pool(list(range(30)), 4, record)
    assert seen == [(t, threading.get_ident()) for t in range(30)]  # once each
    assert [r.task for r in results] == list(range(30))
    assert ledger.grand_total == sum(range(30))  # cost_fn of each result


# ---------------------------------------------------------------------------
# worker processes (processes=True), under conftest.py's two-CPU forks fixture


@fork_only
def test_forked_pool_matches_in_process(forks):
    rng = random.Random(3)
    costs = [rng.randint(1, 50) for _ in range(300)]
    here = run_pool(list(range(300)), 3, lambda t: FakeResult(costs[t]))
    forked = run_pool(list(range(300)), 3, lambda t: FakeResult(costs[t]), processes=True)
    assert len(forks) == 2  # two CPUs cap the three workers
    assert all_reaped(forks)
    assert [(r.index, r.task, r.result, r.worker, r.failed) for r in forked[0]] == [
        (r.index, r.task, r.result, r.worker, r.failed) for r in here[0]
    ]
    assert forked[1] == here[1]


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
    assert all_reaped(forks)
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
    assert all_reaped(forks)
    cause = results[-1].result
    assert results[-1].task == 3 and type(cause) is RuntimeError
    assert str(cause) == repr(Local("no way back"))


@fork_only
def test_forked_unpicklable_result_fails_its_worker(forks):
    results, _ = run_pool(
        list(range(10)), 2, lambda t: (lambda: t) if t == 4 else FakeResult(1.0), processes=True
    )
    assert all_reaped(forks)
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
    assert all_reaped(forks)
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
    # two pools, the sample race and the remainder, of three usable CPUs each
    assert len(forks) == 2 * 3
    assert all_reaped(forks)


# ---------------------------------------------------------------------------
# classes of tasks with one key (key=...), in the calling thread and forked
# under conftest.py's two-CPU forks fixture


def _logged(path):
    """An executor that appends each task it runs to ``path``, from any
    process; task 13 raises."""

    def run(t):
        with open(path, "a") as fh:
            fh.write(f"{t}\n")
        if t == 13:
            raise ValueError(f"task {t} is broken")
        return FakeResult(t * 10)

    return run


def _runs(path):
    return sorted(int(t) for t in path.read_text().split()) if path.exists() else []


@pytest.mark.parametrize("processes", [False, pytest.param(True, marks=fork_only)])
def test_equal_keys_run_once_and_each_task_gets_its_class_result(processes, forks, tmp_path):
    tasks = [4, 9, 14, 5, 19, 10, 30, 12, 15, 7]  # classes by t % 5: heads 4, 5, 12
    results, ledger = run_pool(tasks, 2, _logged(tmp_path / "runs"), processes=processes,
                               key=lambda t: t % 5)
    assert len(forks) == (2 if processes else 0)
    assert all_reaped(forks)
    assert _runs(tmp_path / "runs") == [4, 5, 12]
    head = {4: 4, 0: 5, 2: 12}
    assert [(r.index, r.task, r.result, r.failed) for r in results] == [
        (i, t, FakeResult(head[t % 5] * 10), False) for i, t in enumerate(tasks)
    ]
    # every task is charged its class's result, as without a key
    assert ledger == run_pool(
        [head[t % 5] for t in tasks], 2, lambda t: FakeResult(t * 10))[1]


@pytest.mark.parametrize("processes", [False, pytest.param(True, marks=fork_only)])
def test_a_failing_class_head_fails_at_its_own_index(processes, forks, tmp_path):
    tasks = [1, 6, 13, 11, 8, 2, 16, 4]  # classes by t % 5: task 13 heads class 3
    results, ledger = run_pool(tasks, 2, _logged(tmp_path / "runs"), processes=processes,
                               key=lambda t: t % 5)
    assert all_reaped(forks)
    assert [(r.index, r.task, r.failed) for r in results] == [
        (0, 1, False), (1, 6, False), (2, 13, True)
    ]
    assert [r.result for r in results[:2]] == [FakeResult(10)] * 2
    assert str(results[2].result) == "task 13 is broken"
    assert ledger.grand_total == 20.0
    runs = _runs(tmp_path / "runs")
    # nothing ran twice; in the calling thread nothing ran after the failure
    assert len(set(runs)) == len(runs) and {1, 13} <= set(runs)
    if not processes:
        assert runs == [1, 13]


@fork_only
def test_a_pool_forks_no_more_workers_than_classes(forks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1, 2}, raising=False)
    tasks = list(range(12))
    results, _ = run_pool(tasks, 4, lambda t: FakeResult(t), processes=True,
                          key=lambda t: t % 2)
    assert len(forks) == 2
    assert [r.result.work_used for r in results] == [t % 2 for t in tasks]
    # one class: no fork at all, and the one run serves every task
    results, _ = run_pool(tasks, 4, lambda t: FakeResult(t), processes=True, key=lambda t: 0)
    assert len(forks) == 2
    assert [r.result.work_used for r in results] == [0] * 12
    assert all_reaped(forks)
