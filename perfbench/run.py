"""Benchmark of the ``eps-select`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every measured run is a fresh interpreter
(``probe.py``) that imports ``eps_select`` from ``src`` and calls
``eps_select.cli.main`` with the argv a user would type. Runs repeat until
``--seconds`` is used up; run ``i`` uses sample seed ``100 * N + i``, so one
seed gives the same inputs every time and different seeds never share a
sample. Every run's answer is checked against a reference, and its
exactness fingerprint (winner, work totals, W+) is compared with
``perfbench/baseline.json``; a difference is reported by name, not failed.

With ``--trace 0`` the last line carries the end-to-end metrics of
BENCHMARK.json, medians over the runs. The times (``wall_s``, ``setup_s``
and the printed ``decision_s``, decomposition plus strategy selection) are
corrected for the machine's speed during the run by ``gauge.py``, which
times a fixed reference kernel interleaved with the program; the
uncorrected wall times are printed above the result line. With
``--trace 1`` each untraced run is followed by a traced run of the same
seed; the last line carries the per-layer metrics of the traced runs and
the tracing overhead, and the span trees go to ``perfbench/out/``. ``--record`` stores this run's fingerprints
and medians in ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BASELINE = HERE / "baseline.json"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SEED_BLOCK = 100  # sample seeds per --seed value
MIN_SETUPS = 5  # set-up samples per run, topped up with set-up-only probes
CHILD_TIMEOUT_S = 150


def child(workload: str, seed: int, trace: bool = False, setup_only: bool = False) -> dict | None:
    """One fresh interpreter running probe.py; None if it did not finish."""
    cmd = [sys.executable, str(HERE / "probe.py"), "--workload", workload,
           "--seed", str(seed), "--out-dir", str(OUT)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"seed {seed}: probe timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"seed {seed}: probe exited with {proc.returncode}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def fingerprint_diff(baseline: dict, fp: dict) -> str:
    recorded = baseline.get(str(fp["seed"]))
    if recorded is None:
        return "no baseline for this seed"
    changed = [
        f"{key} {recorded.get(key)!r} -> {fp.get(key)!r}"
        for key in sorted(set(recorded) | set(fp))
        if recorded.get(key) != fp.get(key)
    ]
    return "differs from baseline: " + "; ".join(changed) if changed else "matches baseline"


def describe(fp: dict) -> str:
    parts = [f"{k}={v}" for k, v in fp.items() if k not in ("seed", "w_plus", "singles")]
    parts.append("W+=" + json.dumps(fp["w_plus"], separators=(",", ":")))
    if "singles" in fp:
        parts.append("singles=" + json.dumps(fp["singles"], separators=(",", ":")))
    return " ".join(parts)


def spread(values: list[float]) -> str:
    return f"median {statistics.median(values):.6g}, min {min(values):.6g}, " \
           f"max {max(values):.6g}, n={len(values)}"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, list, int]:
    """Runs until the next one would overrun ``seconds``; at least one.

    Returns (records, untraced records paired with them, probes lost).
    """
    records, plain, lost = [], [], 0
    start = perf_counter()
    i = 0
    while True:
        t0 = perf_counter()
        sample_seed = SEED_BLOCK * seed + i
        i += 1
        untraced = child(workload, sample_seed)
        traced = child(workload, sample_seed, trace=True) if trace else untraced
        if untraced is None or traced is None:
            lost += 1
        else:
            records.append(traced)
            plain.append(untraced)
        now = perf_counter()
        if i >= SEED_BLOCK or now + (now - t0) > start + seconds:
            return records, plain, lost


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="eps-select benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this run's fingerprints and metrics in perfbench/baseline.json")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "eps_select" / "cli.py").is_file():
        print(f"error: no eps_select sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    w = WORKLOADS[args.workload]
    trace = bool(args.trace)

    records, plain, lost = measure(w.name, args.seed, args.seconds, trace)
    if not records:
        print("error: no run finished", file=sys.stderr)
        return 1
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    recorded = baseline.get("workloads", {}).get(w.name, {})

    env = records[0]["environment"]
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {w.name}: eps-select {' '.join(w.argv(SEED_BLOCK * args.seed))} "
          f"(seed +i for run i); {len(records)} runs{' traced' if trace else ''}, {lost} lost")
    for rec in records:
        for problem in rec["problems"]:
            print(f"seed {rec['seed']}: WRONG: {problem}")
        if "fingerprint" in rec:
            fp = rec["fingerprint"]
            print(f"seed {fp['seed']}: {describe(fp)} "
                  f"[{fingerprint_diff(recorded.get('fingerprints', {}), fp)}]")

    if trace:
        metrics = layer_metrics(w.name, args.seed, records, plain)
        section = "per_layer"
    else:
        metrics = end_to_end(w.name, records)
        section = "end_to_end"
    missing = [m["name"] for m in spec[section] if not metrics.get(m["name"])]
    if missing:
        print(f"error: no values for {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {}
    for m in spec[section]:
        values = metrics[m["name"]]
        print(f"{m['name']} [{m['unit']}]: {spread(values)}")
        # work totals are exact per sample seed: their mean is the expected cost
        center = statistics.fmean if m["name"] == "total_work" else statistics.median
        result[m["name"]] = {"value": center(values), "unit": m["unit"]}

    if args.record:
        entry = baseline.setdefault("workloads", {}).setdefault(w.name, {})
        entry.setdefault("fingerprints", {}).update(
            {str(r["fingerprint"]["seed"]): r["fingerprint"] for r in records if "fingerprint" in r}
        )
        entry.setdefault(section, {})[str(args.seed)] = {k: v["value"] for k, v in result.items()}
        baseline["environment"] = env
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")

    attempted = sum(r["attempted"] for r in records) + lost
    failed = sum(r["failed"] for r in records) + lost
    correct = lost == 0 and not any(r["problems"] for r in records)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


def end_to_end(workload: str, records: list[dict]) -> dict[str, list[float]]:
    setups = [r["setup_s"] for r in records]
    while len(setups) < MIN_SETUPS:
        rec = child(workload, 0, setup_only=True)
        if rec is None:
            break
        setups.append(rec["setup_s"])
    ok = [r for r in records if "total_work" in r]
    print(f"uncorrected wall_s [s]: {spread([r['raw_wall_s'] for r in records])}")
    print(f"gauge kernel [ms]: {spread([r['kernel_ms'] for r in records])}")
    # not gated: compare runs once per 40 s and its 0.5 s decision spreads too wide
    print(f"decision_s [s]: {spread([r['decision_s'] for r in records])}")
    return {
        "wall_s": [r["wall_s"] for r in records],
        "setup_s": setups,
        "total_work": [r["total_work"] for r in ok],
        "peak_rss_mb": [r["peak_rss_mb"] for r in records],
    }


def layer_metrics(workload: str, seed: int, traced: list[dict], plain: list[dict]) -> dict[str, list[float]]:
    """Per-layer metrics of the traced runs plus the tracing overhead."""
    runs = [(t, p) for t, p in zip(traced, plain) if "layer" in t]
    if not runs:
        return {}
    metrics: dict[str, list[float]] = {name: [] for name in runs[0][0]["layer"]}
    for t, p in runs:
        for name, value in t["layer"].items():
            metrics[name].append(value)
    metrics["trace.overhead_s"] = [t["raw_wall_s"] - p["raw_wall_s"] for t, p in runs]
    metrics["trace.overhead_share"] = [t["raw_wall_s"] / p["raw_wall_s"] - 1.0 for t, p in runs]
    trees = [{"seed": t["seed"], "wall_s": t["wall_s"], "spans": t["span_tree"]} for t, _ in runs]
    path = OUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(trees, indent=1) + "\n")
    print(f"span trees written to {path.relative_to(ROOT)}")
    print("modelio: unmeasured, no workload reads a JSON model")
    wall = statistics.median(metrics["trace.wall_s"])
    for name in sorted(n for n in metrics if n.endswith(".self_s")) + ["trace.unattributed_s"]:
        share = statistics.median(metrics[name]) / wall if wall else 0.0
        print(f"self time {name}: {share:.1%} of traced wall_s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
