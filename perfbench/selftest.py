"""Quick self-test of the benchmark at a tiny size (about a minute).

Usage: ``python3 perfbench/selftest.py``.  Checks that ``BENCHMARK.json``
agrees with the metric catalogue in ``metrics.py``, that every per-layer
metric names an end-to-end metric and a workload it should move, and that
each workload, traced and untraced, prints every metric by name with its
unit and a correct, well-formed result line.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import metrics  # noqa: E402


def catalogue_errors(bench) -> list:
    errors = []
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}
    names = {w["name"] for w in bench["workloads"]}
    if set(e2e) != set(metrics.END_TO_END):
        errors.append(f"end_to_end names differ: {sorted(set(e2e) ^ set(metrics.END_TO_END))}")
    if set(layer) != set(metrics.PER_LAYER):
        errors.append(f"per_layer names differ: {sorted(set(layer) ^ set(metrics.PER_LAYER))}")
    for name, m in e2e.items():
        if name in metrics.END_TO_END and m["unit"] != metrics.END_TO_END[name][0]:
            errors.append(f"{name}: unit {m['unit']} in BENCHMARK.json")
    for name, (unit, better, targets, _) in metrics.PER_LAYER.items():
        if name in layer and (layer[name]["unit"], layer[name]["better"]) != (unit, better):
            errors.append(f"{name}: unit or direction differs from BENCHMARK.json")
        if not targets:
            errors.append(f"{name}: names no target end-to-end metric")
        for target, target_workloads in targets:
            if target not in e2e and target not in metrics.REPORTED:
                errors.append(f"{name}: target {target} is not an end-to-end metric")
            if not target_workloads or not set(target_workloads) <= names:
                errors.append(f"{name}: target workloads {target_workloads} not all benchmarked")
    return errors


def run_errors(bench, workload: str, trace: int) -> list:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: not correct: {[ln for ln in lines if ln.startswith('failure')]}")
    expected = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(expected):
        errors.append(f"{where}: metrics differ: {sorted(set(got) ^ set(expected))}")
    printed = {}
    for ln in lines[:-1]:
        parts = ln.split()
        if len(parts) >= 5 and parts[0] == "metric" and parts[2] == "=":
            printed[parts[1]] = parts[4]
    wanted = dict(expected)
    if not trace:
        wanted |= {name: spec[0] for name, spec in metrics.REPORTED.items()}
        wanted["failed_frac"] = "ratio"
        wanted[metrics.STEP_ALIAS[workload]] = "s"
    for name, unit in wanted.items():
        if printed.get(name) != unit:
            errors.append(f"{where}: {name} printed with unit {printed.get(name)}, want {unit}")
        if name in got and not isinstance(got[name].get("value"), (int, float)):
            errors.append(f"{where}: {name} has no numeric value")
    return errors


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = catalogue_errors(bench)
    for w in bench["workloads"]:
        for trace in (0, 1):
            errors += run_errors(bench, w["name"], trace)
            print(f"ran {w['name']} trace {trace}", flush=True)
    for err in errors:
        print(f"FAIL {err}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
