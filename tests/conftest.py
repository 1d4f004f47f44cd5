import os
import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

# Golden 10-subproblem / 4-strategy runtime fixture used across the
# selection and acceptance tests (times in milliseconds).
GOLDEN_TIMES = {
    "S1": [62, 90, 155, 231, 198, 146, 62, 63, 167, 83],
    "S2": [408, 1134, 1904, 1451, 1580, 803, 611, 389, 560, 736],
    "S3": [80, 92, 158, 250, 197, 170, 54, 111, 163, 120],
    "S4": [150, 154, 233, 407, 422, 144, 115, 86, 670, 232],
}

GOLDEN_UNCENSORED_TOTALS = [1257, 9576, 1395, 2613]
GOLDEN_CENSORED_TOTALS = [1257, 2484, 1395, 2142]
GOLDEN_S1_S3_DIFFS = [-18, -2, -3, -19, 1, -24, 8, -48, 4, -37]
GOLDEN_S1_S3_SIGNED_RANKS = [-6, -2, -3, -7, 1, -8, 5, -10, 4, -9]


def golden_matrix():
    """GOLDEN_TIMES keyed by the first four StrategyId members (S1..S4)."""
    from eps_select import ALL_STRATEGIES

    return {
        ALL_STRATEGIES[i]: list(GOLDEN_TIMES[f"S{i + 1}"]) for i in range(4)
    }


# worker processes: tests that fork fake two usable CPUs with the forks
# fixture, so the forked paths run on any host with os.fork
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


def all_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    return True
