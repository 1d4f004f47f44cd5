"""The benchmark's workloads: the argv a user would type, and the answers.

Every workload runs the ``eps-select`` command line in work-units time mode
with two workers. Work mode makes every work total, winner and W+ a pure
function of the sample seed, so the same seed always gives the same answer.
Reference answers come from outside the decomposition path: published
solution counts and optima, cross-checked by a whole-model ``count_all``.
Why each workload was chosen is recorded in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # cli subcommand: "pss" or "compare"
    model: str
    n: int
    target: int
    solutions: Optional[int] = None  # reference count (all-solutions models)
    optimum: Optional[int] = None  # reference optimum (optimization models)

    def argv(self, seed: int, out_path: Optional[str] = None) -> list[str]:
        argv = [
            self.command,
            "--model", self.model,
            "--n", str(self.n),
            "--target-subproblems", str(self.target),
            "--sample-size", "30",
            "--workers", "2",
            "--seed", str(seed),
            "--time-mode", "work",
        ]
        if out_path is not None:
            argv += ["--out", out_path]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload("nqueens10-pss", "pss", "nqueens", 10, 3000, solutions=724),
        Workload("latin5-pss", "pss", "latin", 5, 3000, solutions=161280),
        # Runnable but not in BENCHMARK.json: its race runs before any incumbent,
        # so its cost depends on the sample (total work 14k-29k over sample
        # seeds) and a run of five sample seeds spreads as wide as the bound.
        Workload("golomb8-pss", "pss", "golomb", 8, 500, optimum=34),
        Workload("allinterval10-compare", "compare", "allinterval", 10, 3000, solutions=296),
        # toy sizes for smoke.py; not listed in BENCHMARK.json
        Workload("smoke-nqueens8-pss", "pss", "nqueens", 8, 100, solutions=92),
        Workload("smoke-golomb5-pss", "pss", "golomb", 5, 40, optimum=11),
        Workload("smoke-nqueens8-compare", "compare", "nqueens", 8, 100, solutions=92),
    )
}
