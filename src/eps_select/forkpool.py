"""Forked worker processes for :func:`eps_select.runner.run_pool`.

Each worker is forked from the caller, so it shares the tasks and the
executor (a closure over the model and the oracle) without pickling them.
It has a request pipe, on which the parent sends ``(start, stop)`` chunks of
task indices in task order, and a reply pipe, on which it sends back each
chunk's outcomes as one length-prefixed pickle. A worker leaves by
``os._exit`` when its request pipe closes, so it never runs the caller's
clean-up code. The module is imported only when a pool forks.
"""

from __future__ import annotations

import os
import pickle
import selectors
import signal
import struct
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from .runner import Outcome, _attempt

# chunks per worker process: enough to even out uneven tasks, few enough that
# the pipe round trips cost nothing next to the tasks
CHUNKS_PER_PROCESS = 16

_CHUNK = struct.Struct("<qq")
_LENGTH = struct.Struct("<Q")


@dataclass
class _Worker:
    pid: int
    requests: int  # parent's write end: chunks; closed = no more
    replies: int  # parent's read end: one pickled list of outcomes per chunk
    chunk: Optional[tuple[int, int]] = None  # in flight
    reaped: bool = False


def forked_outcomes(
    tasks: Sequence[Any], executor: Callable[[Any], Any], procs: int
) -> list[Outcome]:
    """The outcomes of the tasks up to and including the first failure,
    solved by ``procs`` forked worker processes pulling chunks in task order.

    A worker that dies counts as a failure of the first task of its chunk.
    Every worker is reaped before this returns or raises.
    """
    n = len(tasks)
    size = -(-n // (procs * CHUNKS_PER_PROCESS))
    chunks = ((start, min(start + size, n)) for start in range(0, n, size))
    outcomes: list[Optional[Outcome]] = [None] * n
    first_failed = n
    workers: list[_Worker] = []
    sel = None
    try:
        for _ in range(procs):
            workers.append(_fork_worker(tasks, executor, workers))
        sel = selectors.DefaultSelector()
        for w in workers:
            sel.register(w.replies, selectors.EVENT_READ, w)
            _assign(w, next(chunks))
        # every chunk below the first failure is handed out in order and
        # waited for; chunks above it are abandoned
        while any(w.chunk is not None and w.chunk[0] < first_failed for w in workers):
            for key, _ in sel.select():
                w = key.data
                start, stop = w.chunk
                w.chunk = None
                got = _receive(w.replies)
                if got is None:
                    sel.unregister(w.replies)
                    outcomes[start] = (RuntimeError(_death(w, start, stop)), True, 0.0)
                    first_failed = min(first_failed, start)
                    continue
                outcomes[start : start + len(got)] = got
                if got[-1][1]:
                    first_failed = min(first_failed, start + len(got) - 1)
                nxt = next(chunks, None)
                if nxt is not None and nxt[0] < first_failed:
                    _assign(w, nxt)
    finally:
        if sel is not None:
            sel.close()
        _reap(workers)
    return outcomes[: first_failed + 1]


def _fork_worker(tasks, executor, siblings: list[_Worker]) -> _Worker:
    req_r, req_w = os.pipe()
    rep_r, rep_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (req_r, req_w, rep_r, rep_w):
            os.close(fd)
        raise
    if pid == 0:  # the worker: never returns into the caller
        code = 1
        try:
            # the siblings' pipe ends must close here, or their EOFs never come
            for fd in [req_w, rep_r] + [f for s in siblings for f in (s.requests, s.replies)]:
                os.close(fd)
            _serve(tasks, executor, req_r, rep_w)
            code = 0
        finally:
            os._exit(code)
    os.close(req_r)
    os.close(rep_w)
    return _Worker(pid, req_w, rep_r)


def _serve(tasks, executor, requests: int, replies: int) -> None:
    """Solve chunks until the parent closes the request pipe."""
    while (msg := _read_exact(requests, _CHUNK.size)) is not None:
        start, stop = _CHUNK.unpack(msg)
        out = []
        for i in range(start, stop):
            out.append(_attempt(executor, tasks[i]))
            if out[-1][1]:
                break
        _send(replies, _portable(out))


def _portable(out: list[Outcome]) -> bytes:
    """The outcomes pickled; a failure's exception that does not survive a
    pickle round trip travels as ``RuntimeError(repr(exc))``."""
    result, failed, ms = out[-1]
    if failed:
        try:
            pickle.loads(pickle.dumps(result))
        except Exception:
            out[-1] = (RuntimeError(repr(result)), True, ms)
    return pickle.dumps(out, pickle.HIGHEST_PROTOCOL)


def _assign(w: _Worker, chunk: tuple[int, int]) -> None:
    w.chunk = chunk
    try:
        os.write(w.requests, _CHUNK.pack(*chunk))
    except BrokenPipeError:  # the worker died: its reply pipe reports the EOF
        pass


def _send(fd: int, blob: bytes) -> None:
    view = memoryview(_LENGTH.pack(len(blob)) + blob)
    while view:
        view = view[os.write(fd, view) :]


def _receive(fd: int) -> Optional[list[Outcome]]:
    """One reply of a worker; None if it died before finishing it."""
    header = _read_exact(fd, _LENGTH.size)
    if header is None:
        return None
    body = _read_exact(fd, _LENGTH.unpack(header)[0])
    return None if body is None else pickle.loads(body)


def _read_exact(fd: int, n: int) -> Optional[bytes]:
    """``n`` bytes from ``fd``; None at end of file before they all came."""
    parts = []
    while n:
        part = os.read(fd, min(n, 1 << 20))
        if not part:
            return None
        parts.append(part)
        n -= len(part)
    return b"".join(parts)


def _death(w: _Worker, start: int, stop: int) -> str:
    _, status = os.waitpid(w.pid, 0)
    w.reaped = True
    code = os.waitstatus_to_exitcode(status)
    how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
    return f"worker process {w.pid} {how} while solving tasks {start}-{stop - 1}"


def _reap(workers: list[_Worker]) -> None:
    """Close every pipe and wait for every worker. Idle workers leave at the
    end of their request pipe; busy ones hold abandoned chunks and are killed."""
    for w in workers:
        os.close(w.requests)
        os.close(w.replies)
        if w.reaped:
            continue
        if w.chunk is not None:
            os.kill(w.pid, signal.SIGKILL)
        os.waitpid(w.pid, 0)
        w.reaped = True
