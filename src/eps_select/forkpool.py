"""One shared queue of chunks for :func:`eps_select.runner.run_pool`.

The pool's work is one queue of chunks, contiguous ranges of task indices in
task order, held in one pipe. The caller writes every chunk's record into
the pipe and closes its write end; then it forks ``procs - 1`` worker
processes, which share the tasks and the executor (a closure over the model
and the oracle, or over the model and the decomposition frontier) without
pickling them. The caller is the pool's first process: it and every worker
pull the next chunk straight from the pipe and solve it, until the pipe is
empty. A process whose task fails reads the rest of the queue and drops it,
so no chunk starts after that.

Each process pickles each chunk's outcomes as it finishes the chunk. A
worker sends all of them in one reply on its own pipe once the queue is
empty, and leaves by ``os._exit``, so it never runs the caller's clean-up
code. The caller reads every reply to its end before it waits for any
worker, then unpickles the chunks in task order, its own among them: an
outcome reads the same whichever process solved it, and a result that does
not pickle fails its own task in any process. A worker that dies takes its
chunks with it; the lowest chunk whose outcomes never came back then fails
at its first task. The module is imported only when a pool asks for
processes.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import struct
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from .runner import Outcome, _attempt

# chunks per process: enough to even out uneven tasks, few enough that
# pulling and pickling them cost nothing next to the tasks
CHUNKS_PER_PROCESS = 16

_CHUNK = struct.Struct("<q")  # a chunk's first task index
# the most chunks one queue holds: the caller writes them all before any
# process reads, and a pipe takes PIPE_BUF bytes at once without blocking
MAX_CHUNKS = select.PIPE_BUF // _CHUNK.size


@dataclass
class _Worker:
    pid: int
    replies: int  # the caller's read end of the worker's reply pipe
    reply: Optional[bytes] = None  # all it wrote, once read to the end
    status: int = 0  # its wait status, once reaped; 0 once it sent its reply


def chunk_size(task_count: int, procs: int) -> int:
    """Tasks per chunk: ``CHUNKS_PER_PROCESS`` chunks for each process, and
    never more than ``MAX_CHUNKS`` chunks in the queue."""
    return -(-task_count // min(procs * CHUNKS_PER_PROCESS, MAX_CHUNKS))


def forked_outcomes(
    tasks: Sequence[Any], executor: Callable[[Any], Any], procs: int
) -> list[Outcome]:
    """The outcomes of the tasks up to and including the first failure,
    solved by this process and ``procs - 1`` forked workers pulling chunks
    from one queue in task order.

    Every worker is reaped before this returns or raises.
    """
    n = len(tasks)
    size = chunk_size(n, procs)
    starts = range(0, n, size)
    queue, tail = os.pipe()
    try:
        os.write(tail, b"".join(_CHUNK.pack(start) for start in starts))
    finally:
        os.close(tail)  # an empty queue then reads as its end
    workers: list[_Worker] = []
    chunks: dict[int, bytes] = {}
    try:
        for _ in range(procs - 1):
            workers.append(_fork_worker(tasks, executor, queue, size, workers))
        chunks.update(_serve(tasks, executor, queue, size))
        for w in workers:
            w.reply = _read_to_end(w.replies)
    finally:
        os.close(queue)
        _reap(workers)
    for w in workers:
        if w.status == 0:  # it sent its whole reply
            chunks.update(pickle.loads(w.reply))
        w.reply = b""
    outcomes: list[Outcome] = []
    for start in starts:
        blob = chunks.pop(start, None)
        if blob is None:
            lost = [w for w in workers if w.status != 0]
            outcomes.append((RuntimeError(_lost(lost, start, min(start + size, n))), True))
            break
        outcomes += pickle.loads(blob)
        if outcomes[-1][1]:
            break
    return outcomes


def _fork_worker(tasks, executor, queue: int, size: int, siblings: list[_Worker]) -> _Worker:
    rep_r, rep_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rep_r)
        os.close(rep_w)
        raise
    if pid == 0:  # the worker: never returns into the caller
        code = 1
        try:
            # the siblings' read ends must close here, or their EOFs never come
            for fd in [rep_r] + [s.replies for s in siblings]:
                os.close(fd)
            view = memoryview(
                pickle.dumps(_serve(tasks, executor, queue, size), pickle.HIGHEST_PROTOCOL)
            )
            while view:
                view = view[os.write(rep_w, view) :]
            code = 0
        finally:
            os._exit(code)
    os.close(rep_w)
    return _Worker(pid, rep_r)


def _serve(tasks, executor, queue: int, size: int) -> list[tuple[int, bytes]]:
    """Solve chunks pulled from the queue until it is empty: each chunk's
    first task index and its pickled outcomes. After a failed task the rest
    of the queue is read and dropped instead."""
    n = len(tasks)
    solved = []
    # every record was in the pipe before any process read it, so a read
    # takes one whole record, or none once the queue is empty
    while record := os.read(queue, _CHUNK.size):
        (start,) = _CHUNK.unpack(record)
        out = []
        for i in range(start, min(start + size, n)):
            out.append(_attempt(executor, tasks[i]))
            if out[-1][1]:
                break
        blob, failed = _portable(out)
        solved.append((start, blob))
        if failed:
            while os.read(queue, select.PIPE_BUF):
                pass
            break
    return solved


def _portable(out: list[Outcome]) -> tuple[bytes, bool]:
    """A chunk's outcomes pickled, and whether its last task failed. A
    failure's exception that does not survive a pickle round trip travels as
    ``RuntimeError(repr(exc))``; a result that does not pickle fails its own
    task, and the chunk ends there."""
    result, failed = out[-1]
    if failed:
        try:
            pickle.loads(pickle.dumps(result))
        except Exception:
            out[-1] = (RuntimeError(repr(result)), True)
    try:
        return pickle.dumps(out, pickle.HIGHEST_PROTOCOL), failed
    except Exception:
        for i, (result, _) in enumerate(out):
            try:
                pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                cut = out[:i] + [(RuntimeError(f"the task's result does not pickle: {exc!r}"), True)]
                return pickle.dumps(cut, pickle.HIGHEST_PROTOCOL), True
        raise


def _read_to_end(fd: int) -> bytes:
    parts = []
    while part := os.read(fd, 1 << 20):
        parts.append(part)
    return b"".join(parts)


def _lost(lost: list[_Worker], start: int, stop: int) -> str:
    deaths = []
    for w in lost:
        code = os.waitstatus_to_exitcode(w.status)
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        deaths.append(f"worker process {w.pid} {how}")
    return "; ".join(deaths + [f"the outcomes of tasks {start}-{stop - 1} never came back"])


def _reap(workers: list[_Worker]) -> None:
    """Close every reply pipe and wait for every worker. A worker whose
    reply was read to its end has left or is leaving; any other is killed."""
    for w in workers:
        os.close(w.replies)
        if w.reply is None:
            os.kill(w.pid, signal.SIGKILL)
        w.status = os.waitpid(w.pid, 0)[1]
