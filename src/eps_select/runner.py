"""Master-worker execution: a pull-based task queue with per-worker accounting.

By default every task runs in the calling thread, one after another in queue
order. A caller whose tasks read no state that another task writes may pass
``processes=True``. On a platform with ``os.fork`` the tasks then go into one
queue of chunks of task indices (the EPS queue of Régin, Rezgui & Malapert,
CP 2013), and the calling process and ``min(worker_count, usable CPUs) - 1``
forked worker processes pull chunks from it until it is empty
(:mod:`eps_select.forkpool`). At one worker the caller pulls every chunk
and forks nothing. Every outcome makes one pickle round trip, the caller's
own included, so no result depends on which process solved it or on the
worker count. A worker process runs on the copy of the caller's memory
taken at the fork, so whatever a task writes there stays there and only the
results come back; what a task in the calling process writes stays in the
caller, as it does without processes. Three callers ask for processes: the
decomposition, for each depth large enough to cut into spans (only depths
that propagate rather than forward-check, since it reads no incumbent), and,
on satisfaction models, :meth:`~eps_select.selection.ModelOracle.solve_all`
(the cells the oracle's memo lacks, for the PSS sample race in work mode and
for the PSS remainder) and ``compare``'s single-strategy runs; optimization
solves read the incumbent that earlier ones raised, so they stay in the
calling process.

Either way a min-clock simulation assigns each task, in task order, to the
virtual worker that would have pulled it (the least loaded one, the lowest
index on a tie), giving per-worker loads that do not depend on scheduling:
the ledger charges each task ``cost_fn(result)`` in either time mode. An
idle worker carries no load, so workers pull their first tasks in index
order; the simulation keeps only those in a heap, at no cost per worker.
The pool times nothing itself; in wall-clock mode the solve pools' results
are observations whose value is the milliseconds their solve took. Results
do not depend on the worker count.

A caller may name a ``key`` under which tasks give equal results. Each
class of tasks with one key then runs once, on its first task, and every
task of the class gets that result; a pool of processes queues only those
first tasks, and forks no more workers than there are classes.
``compare``'s single-strategy pools key their tasks by the oracle's twin
classes (see :class:`~eps_select.selection.ModelOracle`).

Every task is deterministic, so a task that raises is run once and
reported as failed, and the results stop there. In the calling thread no
later task runs; in a pool of processes the process that failed drops the
rest of the queue, so no further chunk starts, and the outcomes of later
tasks that other processes had already solved are dropped. A worker process
that dies counts as a failure of the first task of the lowest chunk whose
outcomes never came back. :func:`raise_failures` turns the failed task
into an error.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional, Sequence

Outcome = tuple[Any, bool]  # (result or exception, failed)


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
    """``loads`` holds the loads of workers ``0..len(loads)-1``, the ones
    that pulled a task; the rest of the ``worker_count`` carry none. Every
    load is a sum of costs, which are work units or milliseconds."""

    loads: list[float]
    worker_count: int

    @property
    def grand_total(self) -> float:
        return sum(self.loads)

    def load_balance(self) -> tuple[float, float, float]:
        """(max load, mean load, max/mean ratio) across workers."""
        mx = max(self.loads, default=0.0)
        mean = self.grand_total / self.worker_count
        return mx, mean, (mx / mean if mean > 0 else 1.0)


def run_pool(
    tasks: Sequence[Any],
    worker_count: int,
    executor: Callable[[Any], Any],
    cost_fn: Optional[Callable[[Any], float]] = None,
    processes: bool = False,
    key: Optional[Callable[[Any], Hashable]] = None,
) -> tuple[list[TaskResult], CostLedger]:
    """Run the tasks once each; results come back in task order, up to and
    including the first that fails.

    With ``key``, the tasks of equal keys form a class that is run once: the
    executor runs on the class's first task, every task of the class gets
    that result and is charged it, and a failure ends the results at the
    class's first task. With ``processes=True`` and ``os.fork`` available,
    this process and ``min(worker_count, usable CPUs, classes) - 1`` forked
    worker processes solve the classes' first tasks (see the module
    docstring): results and exceptions travel pickled, an exception that
    does not pickle arrives as ``RuntimeError(repr(exc))``, and a result
    that does not pickle fails its own task with a ``RuntimeError`` that
    says so. Once a task fails no further chunk starts, so tasks after it
    may have run but return nothing. Every worker process is reaped before
    this returns or raises. Otherwise the tasks run in the calling thread
    and none runs after the first that fails.
    """
    if worker_count < 1:
        raise ValueError("worker_count must be >= 1")
    if cost_fn is None:
        cost_fn = lambda r: float(getattr(r, "work_used", 0.0))

    if key is None:
        distinct: Sequence[Any] = tasks
        classes: Sequence[int] = range(len(tasks))
    else:
        # classes are numbered in the order of their first tasks
        seen: dict = {}
        distinct, classes = [], []
        for task in tasks:
            c = seen.setdefault(key(task), len(seen))
            if c == len(distinct):
                distinct.append(task)
            classes.append(c)
    procs = _process_count(len(distinct), worker_count) if processes else 0
    if procs:
        # loaded on first use: a run that asks for no processes need not
        # compile the module and its imports
        from .forkpool import forked_outcomes

        outcomes = iter(forked_outcomes(distinct, executor, procs))
    else:  # lazily, so no task runs after the loop below stops
        outcomes = (_attempt(executor, task) for task in distinct)
    ledger = CostLedger([], worker_count)
    loads = ledger.loads
    heap: list[tuple[float, int]] = []  # (load, worker) of each worker in loads
    results: list[TaskResult] = []
    got: list[Any] = []  # each class's result, drawn at its first task
    for idx, (task, c) in enumerate(zip(tasks, classes)):
        if c == len(got):
            result, failed = next(outcomes)
            got.append(result)
        else:  # a failed class ends the results at its first task
            result, failed = got[c], False
        # the least loaded worker: the first idle one (load 0), unless a
        # worker that pulled a task carries no more load than that
        if len(loads) < worker_count and (not heap or heap[0][0] > 0.0):
            w = len(loads)
            loads.append(0.0)
        else:
            w = heapq.heappop(heap)[1]
        if not failed:
            loads[w] += cost_fn(result)
        heapq.heappush(heap, (loads[w], w))
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
    try:
        return executor(task), False
    except Exception as exc:
        return exc, True


def _process_count(task_count: int, worker_count: int) -> int:
    if not hasattr(os, "fork"):
        return 0
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(worker_count, cpus, task_count)
