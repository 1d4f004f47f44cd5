"""Smoke test of the benchmark at toy sizes; exits 1 on the first failure.

    python3 perfbench/smoke.py

Checks that run.py prints every metric of BENCHMARK.json with its unit,
traced and untraced, that it refuses to run without the program's sources,
that every reference answer agrees with a whole-model ``count_all``, and
that tracing leaves nothing behind: an untraced run after a traced run in
the same process has the same fingerprint and sees the original callables,
and the speed gauge's SIGALRM handler and timer are gone.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def fail(msg: str) -> None:
    print(f"smoke: FAIL: {msg}")
    sys.exit(1)


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def check_metrics(spec: dict, section: str, workload: str, trace: str) -> None:
    code, lines = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace)
    if code != 0 or not lines:
        fail(f"{workload} --trace {trace} exited with {code}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload}: {lines}")
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"{workload} --trace {trace}: metrics {sorted(set(got) ^ set(want))} differ")
    bad = [n for n, m in result["metrics"].items() if not isinstance(m["value"], (int, float))]
    if bad:
        fail(f"{workload}: non-numeric values for {bad}")


def check_refuses_without_sources() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    code, lines = bench("--workload", "nqueens10-pss", "--seed", "0", "--seconds", "1",
                        "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or any(line.startswith("{") for line in lines):
        fail("run.py produced a result without the program's sources")


def check_references() -> None:
    cli = probe.import_library()
    from eps_select.search import count_all

    for name, w in WORKLOADS.items():
        out = count_all(cli.generate(w.model, n=w.n))
        got = out.solutions_found if w.solutions is not None else out.best_objective
        if got != (w.solutions if w.solutions is not None else w.optimum):
            fail(f"{name}: whole-model count_all gives {got}")


def check_wrappers_removed() -> None:
    cli = probe.import_library()
    from eps_select import decomposition, search, selection

    owners = (cli, selection, search, decomposition, selection.ModelOracle)
    before = [dict(vars(o)) for o in owners]
    alarm = signal.getsignal(signal.SIGALRM)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    runs = [probe.run("smoke-golomb5-pss", 3, trace, out) for trace in (False, True, False)]
    if any(r["problems"] for r in runs):
        fail(str([r["problems"] for r in runs]))
    if any(r["fingerprint"] != runs[0]["fingerprint"] for r in runs):
        fail(f"fingerprints differ around a traced run: {[r['fingerprint'] for r in runs]}")
    if signal.getsignal(signal.SIGALRM) is not alarm or signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0):
        fail("the speed gauge left its SIGALRM handler or timer behind")
    after = [dict(vars(o)) for o in owners]
    for owner, b, a in zip(owners, before, after):
        changed = [k for k in b if a.get(k) is not b[k]]
        if changed:
            fail(f"{owner.__name__}: {changed} still wrapped")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_references()
    check_wrappers_removed()
    check_refuses_without_sources()
    check_metrics(spec, "end_to_end", "smoke-nqueens8-pss", "0")
    check_metrics(spec, "end_to_end", "smoke-nqueens8-compare", "0")
    check_metrics(spec, "per_layer", "smoke-golomb5-pss", "1")
    check_metrics(spec, "per_layer", "smoke-nqueens8-compare", "1")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
