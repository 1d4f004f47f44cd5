"""Master-worker execution: a pull-based task queue with per-worker accounting.

Every task runs in the calling thread, one after another in queue order. A
min-clock simulation assigns each task to the virtual worker that would have
pulled it (the least loaded one), giving meaningful per-worker loads: the
ledger charges ``cost_fn(result)`` in work-units mode and the measured
milliseconds of the task in wall-clock mode. Results do not depend on the
worker count. Every task is deterministic, so a task that raises is run
once and reported as failed, and the pool stops there: no later task runs.
:func:`raise_failures` turns the failed task into an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Optional, Sequence

from .search import TimeMode


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
) -> tuple[list[TaskResult], CostLedger]:
    """Run the tasks once each, in order, up to and including the first that
    fails; results come back in task order."""
    if worker_count < 1:
        raise ValueError("worker_count must be >= 1")
    if cost_fn is None:
        cost_fn = lambda r: float(getattr(r, "work_used", 0.0))

    ledger = CostLedger(per_worker=[0.0] * worker_count)
    clocks = ledger.per_worker
    results: list[TaskResult] = []
    for idx, task in enumerate(tasks):
        w = min(range(worker_count), key=clocks.__getitem__)
        t0 = perf_counter()
        result, failed = _attempt(executor, task)
        if time_mode is TimeMode.WALL:
            clocks[w] += (perf_counter() - t0) * 1000.0
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


def _attempt(executor: Callable[[Any], Any], task: Any) -> tuple[Any, bool]:
    try:
        return executor(task), False
    except Exception as exc:
        return exc, True
