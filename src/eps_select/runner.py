"""Master-worker execution: a pull-based task queue with per-worker accounting.

By default every task runs in the calling thread, one after another in queue
order. A caller whose tasks read no state that another task writes may pass
``processes=True``: with more than one worker, on a platform with
``os.fork``, up to ``min(worker_count, usable CPUs)`` forked worker processes
then pull chunks of task indices from the parent over pipes (the EPS queue of
Régin, Rezgui & Malapert, CP 2013) and send back the pickled outcomes
(:mod:`eps_select.forkpool`). A worker process runs on the copy of the
parent's memory taken at the fork, so whatever a task writes stays there;
only the returned results come back.

Either way a min-clock simulation assigns each task, in task order, to the
virtual worker that would have pulled it (the least loaded one), giving
per-worker loads that do not depend on scheduling: the ledger charges
``cost_fn(result)`` in work-units mode and the measured milliseconds of the
task in wall-clock mode. Results do not depend on the worker count. Every
task is deterministic, so a task that raises is run once and reported as
failed, and the results stop there. In the calling thread no later task
runs; with worker processes no further chunk is handed out, and the outcomes
of later tasks that other processes had already solved are dropped. A worker
process that dies mid-chunk counts as a failure of the first task of its
chunk. :func:`raise_failures` turns the failed task into an error.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Optional, Sequence

from .search import TimeMode

Outcome = tuple[Any, bool, float]  # (result or exception, failed, milliseconds)


class TaskFailed(RuntimeError):
    """A task raised; the original exception is the cause."""


@dataclass
class TaskResult:
    index: int
    task: Any
    result: Any
    worker: int
    failed: bool = False


@dataclass
class CostLedger:
    per_worker: list[float]

    @property
    def grand_total(self) -> float:
        return sum(self.per_worker)

    def load_balance(self) -> tuple[float, float, float]:
        """(max load, mean load, max/mean ratio) across workers."""
        mx = max(self.per_worker)
        mean = self.grand_total / len(self.per_worker)
        return mx, mean, (mx / mean if mean > 0 else 1.0)


def run_pool(
    tasks: Sequence[Any],
    worker_count: int,
    executor: Callable[[Any], Any],
    time_mode: TimeMode = TimeMode.WORK,
    cost_fn: Optional[Callable[[Any], float]] = None,
    processes: bool = False,
) -> tuple[list[TaskResult], CostLedger]:
    """Run the tasks once each; results come back in task order, up to and
    including the first that fails.

    With ``processes=True``, more than one worker and ``os.fork`` available,
    ``min(worker_count, usable CPUs, len(tasks))`` forked worker processes
    solve the tasks (see the module docstring): results and exceptions travel
    pickled, and an exception that does not pickle arrives as
    ``RuntimeError(repr(exc))``. A result that does not pickle ends its
    worker process, which fails like any worker process that dies.
    Once a task fails no further chunk is handed out, so tasks after it may
    have run but return nothing. Every worker process is reaped before this
    returns or raises. Otherwise the tasks run in the calling thread and none
    runs after the first that fails.
    """
    if worker_count < 1:
        raise ValueError("worker_count must be >= 1")
    if cost_fn is None:
        cost_fn = lambda r: float(getattr(r, "work_used", 0.0))

    procs = _process_count(len(tasks), worker_count) if processes else 0
    if procs > 1:
        # loaded on first use: most runs never fork, and compiling the module
        # and its imports would show in every start-up
        from .forkpool import forked_outcomes

        outcomes = forked_outcomes(tasks, executor, procs)
    else:  # lazily, so no task runs after the loop below stops
        outcomes = (_attempt(executor, task) for task in tasks)
    ledger = CostLedger(per_worker=[0.0] * worker_count)
    clocks = ledger.per_worker
    results: list[TaskResult] = []
    for idx, (task, (result, failed, ms)) in enumerate(zip(tasks, outcomes)):
        w = min(range(worker_count), key=clocks.__getitem__)
        if time_mode is TimeMode.WALL:
            clocks[w] += ms
        elif not failed:
            clocks[w] += cost_fn(result)
        results.append(TaskResult(idx, task, result, w, failed))
        if failed:
            break
    return results, ledger


def raise_failures(results: Sequence[TaskResult]) -> None:
    """Raise :class:`TaskFailed` for the first failed task, if any, so that no
    failed subproblem silently drops out of a total."""
    for r in results:
        if r.failed:
            raise TaskFailed(f"task {r.task!r} failed: {r.result!r}") from r.result


def _attempt(executor: Callable[[Any], Any], task: Any) -> Outcome:
    t0 = perf_counter()
    try:
        result, failed = executor(task), False
    except Exception as exc:
        result, failed = exc, True
    return result, failed, (perf_counter() - t0) * 1000.0


def _process_count(task_count: int, worker_count: int) -> int:
    if not hasattr(os, "fork"):
        return 0
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(worker_count, cpus, task_count)
