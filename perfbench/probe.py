"""One measured run of the ``eps-select`` command line in this process.

Run as a fresh interpreter by ``run.py``: it imports ``eps_select`` from the
checkout's ``src``, calls ``eps_select.cli.main(argv)`` with the workload's
argv, checks the answer and prints one JSON record as its last line.

Without ``--trace`` only the handful of calls that mark the phases are
wrapped (model generation, decomposition, selection, the task pools and the
baselines: a few dozen calls per run). With ``--trace`` the hot callables
are wrapped too and the record carries the per-layer metrics and the span
tree. ``--setup-only`` stops after import and model generation.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from gauge import SpeedGauge  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

MODULES = (
    "benchmarks", "decomposition", "selection", "wsr", "search",
    "csp", "strategies", "runner", "baselines",
)


def import_library():
    """Import the command line (and with it scipy) from the checkout."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import eps_select.cli as cli

    return cli


class Facts:
    """What the wrapped calls returned, gathered for checks and metrics."""

    def __init__(self) -> None:
        self.decompositions = []
        self.reports = []  # SelectionReport of every pss_select call
        self.pools = []  # (site, results, ledger, seconds) per run_pool call
        self.mab = []
        self.portfolio = []
        self.race_entries = 0
        self.race_censored = 0
        self.race_work = 0.0
        self.race_censored_work = 0.0
        self.solve_ms: list[float] = []
        self.work_units = 0
        self.decisions = 0
        self.failures = 0
        self.passes = 0  # propagator passes counted by solve
        self.propagate_passes = 0  # passes returned by every _propagate call

    def on_race(self, obs: dict, _dt: float) -> None:
        for o in obs.values():
            self.race_entries += 1
            self.race_work += o.value
            if o.censored:
                self.race_censored += 1
                self.race_censored_work += o.value

    def on_solve(self, out, dt: float) -> None:
        self.solve_ms.append(dt * 1000.0)
        self.work_units += out.work_used
        self.decisions += out.decisions
        self.failures += out.failures
        self.passes += out.propagations

    def on_propagate(self, result: tuple[int, int], _dt: float) -> None:
        self.propagate_passes += result[1]


def install(tracer: Tracer, facts: Facts, cli, trace: bool) -> None:
    from eps_select import decomposition, search, selection

    def pool(site):
        return lambda res, dt: facts.pools.append((site, res[0], res[1], dt))

    tracer.wrap(cli, "generate", "benchmarks.generate")
    for mod in (cli, selection):
        tracer.wrap(mod, "decompose", "decomposition.decompose",
                    on_result=lambda d, _dt: facts.decompositions.append(d))
    tracer.wrap(cli, "pss_select", "selection.pss_select",
                on_result=lambda r, _dt: facts.reports.append(r))
    tracer.wrap(selection, "select_strategy", "selection.select_strategy")
    tracer.wrap(cli, "run_pool", "runner.run_pool", on_result=pool("cli"))
    tracer.wrap(selection, "run_pool", "runner.run_pool", on_result=pool("selection"))
    tracer.wrap(cli, "mab_on_oracle", "baselines.mab_on_oracle",
                on_result=lambda r, _dt: facts.mab.append(r))
    tracer.wrap(cli, "portfolio_on_oracle", "baselines.portfolio_on_oracle",
                on_result=lambda r, _dt: facts.portfolio.append(r))
    if not trace:
        return
    for mod in (search, decomposition):
        tracer.wrap(mod, "_propagate", "csp._propagate", on_result=facts.on_propagate)
    tracer.wrap(search, "variable_chooser", "strategies.variable_chooser",
                transform=lambda choose: tracer.timed(choose, "strategies.choose"))
    tracer.wrap(selection, "solve", "search.solve", on_result=facts.on_solve)
    tracer.wrap(selection.ModelOracle, "full", "selection.ModelOracle.full")
    tracer.wrap(selection, "race", "selection.race", on_result=facts.on_race)
    tracer.wrap(selection, "find_uncensored_best", "selection.find_uncensored_best")
    tracer.wrap(selection, "eliminate", "selection.eliminate")
    tracer.wrap(selection, "wsr_test", "wsr.wsr_test")
    tracer.wrap(selection, "censor_plan", "wsr.censor_plan")
    tracer.wrap(selection, "paired_ttest", "wsr.paired_ttest")


def check(w: Workload, facts: Facts, code: int, stdout: str, report_file: dict | None) -> list[str]:
    """Every way this run's answer differs from the reference answer."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if len(facts.reports) != 1:
        return problems + [f"{len(facts.reports)} pss_select calls, expected 1"]
    rep = facts.reports[0]
    answers = [("pss", rep.solutions_found, rep.best_objective)]
    answers += [("mab", r.solutions_found, r.best_objective) for r in facts.mab]
    answers += [("portfolio", r.solutions_found, r.best_objective) for r in facts.portfolio]
    for site, results, _, _ in facts.pools:
        if site == "cli" and w.solutions is not None:
            found = sum(r.result.solutions for r in results if not r.failed)
            answers.append(("single", found, None))
    for label, found, objective in answers:
        if w.solutions is not None and found != w.solutions:
            problems.append(f"{label}: {found} solutions, expected {w.solutions}")
        if w.optimum is not None and objective != w.optimum:
            problems.append(f"{label}: objective {objective}, expected {w.optimum}")
    expected_line = (
        f"solutions: {w.solutions}" if w.solutions is not None else f"best objective: {w.optimum}"
    )
    if w.command == "pss" and expected_line not in stdout.splitlines():
        problems.append(f"report lacks the line {expected_line!r}")
    if w.command == "compare":
        if report_file is None:
            problems.append("no --out report written")
        elif report_file["pss"]["total_cost"] != rep.total_cost:
            problems.append("--out report disagrees with the run")
    return problems


def fingerprint(w: Workload, seed: int, facts: Facts) -> dict:
    """Everything a pure speed-up must leave bit-identical."""
    rep = facts.reports[0]
    decomp = facts.decompositions[0]
    fp = {
        "seed": seed,
        "winner": rep.winner.token,
        "total_work": rep.total_cost,
        "race_work": rep.race_cost,
        "uncensor_work": rep.uncensor_cost,
        "resolve_work": rep.resolve_cost,
        "decompose_work": decomp.work,
        "subproblems": len(decomp),
        "w_plus": {s.token: r.w_plus for s, r in rep.eliminated},
    }
    if w.command == "compare":
        from eps_select.strategies import ALL_STRATEGIES

        # the compare driver runs one singles pool per strategy, in this order
        totals = [
            sum(r.result.value for r in results if not r.failed)
            for site, results, _, _ in facts.pools
            if site == "cli"
        ]
        fp["singles"] = {s.token: t for s, t in zip(ALL_STRATEGIES, totals)}
        fp["mab_work"] = facts.mab[0].total_cost
        fp["portfolio_work"] = facts.portfolio[0].total_cost
        fp["pss_over_best"] = rep.total_cost / min(totals)
        fp["pss_over_mab"] = rep.total_cost / facts.mab[0].total_cost
    return fp


def layer_metrics(tracer: Tracer, facts: Facts, wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced run (see BENCHMARK.json)."""
    spans = tracer.by_name()

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def seconds(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    rep = facts.reports[0]
    decomp = facts.decompositions[0]
    dec_calls, dec_s = tracer.within("csp._propagate", "decomposition.decompose")
    pools = facts.pools
    loads = [ledger.load_balance() for _, _, ledger, _ in pools]
    solve_ms = facts.solve_ms or [0.0]
    p99 = statistics.quantiles(solve_ms, n=100)[98] if len(solve_ms) > 1 else solve_ms[0]
    m = {
        "benchmarks.generate_s": seconds("benchmarks.generate"),
        "decomposition.decompose_s": seconds("decomposition.decompose"),
        "decomposition.work": decomp.work,
        "decomposition.propagate_calls": dec_calls,
        "decomposition.propagate_s": dec_s,
        "decomposition.subproblems": len(decomp),
        "decomposition.prefix_len": decomp.prefix_len,
        "decomposition.yield": ratio(len(decomp), decomp.work),
        "selection.select_s": seconds("selection.select_strategy"),
        "selection.race_work": rep.race_cost,
        "selection.uncensor_work": rep.uncensor_cost,
        "selection.resolve_work": rep.resolve_cost,
        "selection.selection_work": rep.selection_cost,
        "selection.race_censored_share": ratio(facts.race_censored, facts.race_entries),
        "selection.race_wasted_share": ratio(facts.race_censored_work, facts.race_work),
        "selection.comparisons": rep.comparisons,
        "selection.reversals": rep.reversals,
        "selection.remainder_s": sum(dt for site, _, _, dt in pools if site == "selection"),
        "selection.oracle_lookups": calls("selection.ModelOracle.full"),
        "selection.cache_hit_ratio": 1.0 - ratio(calls("search.solve"), calls("selection.ModelOracle.full")),
        "wsr.tests": calls("wsr.wsr_test"),
        "wsr.test_s": seconds("wsr.wsr_test"),
        "wsr.censor_plan_calls": calls("wsr.censor_plan"),
        "wsr.ttests": calls("wsr.paired_ttest"),
        "wsr.ttest_s": seconds("wsr.paired_ttest"),
        "search.solve_calls": calls("search.solve"),
        "search.solve_self_s": spans.get("search.solve", (0, 0.0, 0.0))[2],
        "search.work_units": facts.work_units,
        "search.work_per_s": ratio(facts.work_units, seconds("search.solve")),
        "search.solve_ms_p50": statistics.median(solve_ms),
        "search.solve_ms_p99": p99,
        "search.propagator_passes": facts.passes,
        "search.failures_per_decision": ratio(facts.failures, facts.decisions),
        "csp.propagate_calls": calls("csp._propagate"),
        "csp.propagate_s": seconds("csp._propagate"),
        "csp.propagate_us_per_call": 1e6 * ratio(seconds("csp._propagate"), calls("csp._propagate")),
        "csp.passes_per_call": ratio(facts.propagate_passes, calls("csp._propagate")),
        "strategies.choose_calls": calls("strategies.choose"),
        "strategies.choose_s": seconds("strategies.choose"),
        "strategies.choose_ns_per_call": 1e9 * ratio(seconds("strategies.choose"), calls("strategies.choose")),
        "runner.tasks": sum(len(results) for _, results, _, _ in pools),
        "runner.failed_tasks": sum(r.failed for _, results, _, _ in pools for r in results),
        "runner.run_pool_s": seconds("runner.run_pool"),
        "runner.load_balance": ratio(sum(l[0] for l in loads), sum(l[1] for l in loads)),
        "baselines.mab_s": seconds("baselines.mab_on_oracle"),
        "baselines.portfolio_s": seconds("baselines.portfolio_on_oracle"),
        "baselines.mab_work": sum(r.total_cost for r in facts.mab),
        "baselines.portfolio_work": sum(r.total_cost for r in facts.portfolio),
        "cli.singles_s": sum(dt for site, _, _, dt in pools if site == "cli"),
    }
    self_by_module = dict.fromkeys(MODULES, 0.0)
    for name, (_, _, self_s) in spans.items():
        module = name.split(".")[0]
        self_by_module[module] += self_s
    for module, self_s in self_by_module.items():
        m[f"{module}.self_s"] = self_s
    m["trace.wall_s"] = wall_s
    # model generation is set-up and lies outside wall_s
    m["trace.unattributed_s"] = (
        wall_s - sum(self_by_module.values()) + self_by_module["benchmarks"]
    )
    return m


def run(workload: str, seed: int, trace: bool, out_dir: Path, setup_only: bool = False) -> dict:
    """Measure one command-line run; returns the record ``run.py`` aggregates.

    The wrappers are removed before returning, so it may be called again in
    the same process (the smoke test does).
    """
    w = WORKLOADS[workload]
    with SpeedGauge() as setup_gauge:
        t0 = setup_gauge.clock()
        cli = import_library()
        import_s = setup_gauge.clock() - t0
        if setup_only:
            t1 = setup_gauge.clock()
            cli.generate(w.model, n=w.n)
            raw = import_s + setup_gauge.clock() - t1
            return {"setup_s": raw * setup_gauge.factor, "raw_setup_s": raw}
    # traced runs are not gauged: the gauge's ticks would slow the spans unevenly
    gauge = SpeedGauge()
    tracer = Tracer(clock=perf_counter if trace else gauge.clock)
    facts = Facts()
    install(tracer, facts, cli, trace)
    out_path = None
    if w.command == "compare":
        out_path = out_dir / f"report-{workload}-{seed}-{os.getpid()}.json"
    argv = w.argv(seed, None if out_path is None else str(out_path))
    try:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.nullcontext() if trace else gauge:
            t1 = gauge.clock()
            code = cli.main(argv)
            main_s = gauge.clock() - t1
    finally:
        tracer.restore()
    report_file = None
    if out_path is not None and out_path.exists():
        report_file = json.loads(out_path.read_text())
        out_path.unlink()
    spans = tracer.by_name()
    generate_s = spans.get("benchmarks.generate", (0, 0.0, 0.0))[1]
    raw_wall_s = main_s - generate_s
    # until the winner is known: decomposition plus the selection race
    raw_decision_s = sum(
        spans.get(name, (0, 0.0, 0.0))[1]
        for name in ("decomposition.decompose", "selection.select_strategy")
    )
    problems = check(w, facts, code, stdout.getvalue(), report_file)
    tasks = sum(len(results) for _, results, _, _ in facts.pools)
    failed_tasks = sum(r.failed for _, results, _, _ in facts.pools for r in results)
    if failed_tasks:
        problems.append(f"{failed_tasks} subproblem tasks failed")
    record = {
        "seed": seed,
        "problems": problems,
        "attempted": tasks + 1,
        "failed": failed_tasks + (1 if problems else 0),
        "setup_s": import_s * setup_gauge.factor + generate_s * gauge.factor,
        "raw_setup_s": import_s + generate_s,
        "wall_s": raw_wall_s * gauge.factor,
        "raw_wall_s": raw_wall_s,
        "decision_s": raw_decision_s * gauge.factor,
        "kernel_ms": 1e3 * gauge.kernel_s / max(gauge.samples, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if facts.reports and facts.decompositions:
        record["fingerprint"] = fingerprint(w, seed, facts)
        record["total_work"] = facts.reports[0].total_cost
    if trace and facts.reports and facts.decompositions:
        record["layer"] = layer_metrics(tracer, facts, raw_wall_s)
        record["span_tree"] = tracer.root.to_dict()
    return record


def environment() -> dict:
    import platform

    import scipy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "scipy": scipy.__version__,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", type=Path, required=True)
    args = ap.parse_args()
    record = run(args.workload, args.seed, args.trace, args.out_dir, args.setup_only)
    record["environment"] = environment()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
