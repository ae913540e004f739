"""rclab benchmark: one workload, one seed, end-to-end or traced per-layer metrics.

Usage::

    python3 perfbench/run.py --workload siso-ber|mimo-ber|subspace \\
        [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
operation with spans around each layer and prints the per-layer metrics.
Every timed operation's output is checked.  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; a record with the
environment, every sample and the load average goes to ``perfbench/out/``.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads  # noqa: I001  (puts the checkout's src/ first on sys.path)
import metrics
import spans

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 40  # three probes stay well inside the 180 s a run may take


def host_counters():
    """(1-minute load average, (steal, total) CPU ticks); None where /proc lacks them."""
    try:
        with open("/proc/loadavg", encoding="ascii") as fp:
            load = float(fp.read().split()[0])
        with open("/proc/stat", encoding="ascii") as fp:
            ticks = [int(x) for x in fp.readline().split()[1:]]
    except (OSError, ValueError):
        return None, None
    return load, (ticks[7] if len(ticks) > 7 else 0, sum(ticks))


def validity(start, end, nproc) -> dict:
    """Load and steal over the run; ``quiet`` is False when other work shared the cores.

    The run keeps about one core busy and its BLAS threads may spin on the
    other, so a load above nproc + 0.5 means other processes ran too; steal
    is time the hypervisor gave this machine's cores to someone else.
    """
    (load_start, ticks_start), (load_end, ticks_end) = start, end
    if load_start is None or load_end is None:
        return {"load1_start": load_start, "load1_end": load_end, "steal_share": None,
                "quiet": None}
    total = ticks_end[1] - ticks_start[1]
    steal = (ticks_end[0] - ticks_start[0]) / total if total else 0.0
    quiet = max(load_start, load_end) <= nproc + 0.5 and steal < 0.05
    return {"load1_start": load_start, "load1_end": load_end, "steal_share": round(steal, 4),
            "quiet": quiet}


def _openblas() -> list:
    """Config string and thread count of each OpenBLAS loaded (numpy's and scipy's)."""
    try:
        with open("/proc/self/maps", encoding="ascii") as fp:
            paths = sorted({ln.split()[-1] for ln in fp if "openblas" in ln and "/" in ln})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_config and get_threads:
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                found.append((get_config().decode().strip(), get_threads()))
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    blas = _openblas()
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in workloads.SRC.rglob("*.py")
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": [config.split()[1] for config, _ in blas],
        "blas_threads": [threads for _, threads in blas],
        "blas_config": [config for config, _ in blas],
        "src_lines": src_lines,
    }


class Outcome:
    """Operations attempted and the failure message of each one that failed."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failures = []

    def check(self, outputs) -> bool:
        ok = True
        for op, out in outputs:
            self.attempted += 1
            msg = self.workload.check(op, out, self.reference)
            if msg:
                self.failures.append(msg)
                ok = False
        return ok

    def crashed(self, exc: Exception) -> None:
        """A repetition that raised counts as one failed operation."""
        self.attempted += 1
        self.failures.append(f"{type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)


def tail(samples):
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return None, None
    pct = int(100 * (n - 10) / n)
    return pct, sorted(samples)[int(pct / 100 * n)]


def setup_samples(args, outcome) -> list:
    """``SETUP_PROBES`` cold set-ups, each in a fresh interpreter, one at a time."""
    values = []
    cmd = [sys.executable, str(HERE / "probe.py"), args.workload, str(args.seed), args.scale]
    for _ in range(SETUP_PROBES):
        try:
            proc = subprocess.run(
                cmd, cwd=workloads.ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
            )
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the probe
            outcome.crashed(exc)
            continue
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            outcome.attempted += 1
            outcome.failures.append(f"set-up probe exited with code {proc.returncode}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        outcome.attempted += result["attempted"]
        outcome.failures += result["failures"]
        if not result["failures"]:
            values.append(result["setup_s"])
    return values


def warm_up(w, outcome) -> None:
    """Pay lazy start-up costs (BLAS threads, first imports) before timing."""
    try:
        outcome.check(w.setup())
    except Exception as exc:  # noqa: BLE001  (counted, and the run goes on)
        outcome.crashed(exc)


def measure_end_to_end(args, w, outcome) -> dict:
    """Cold set-ups, a warm-up, then repetitions for ``--seconds``."""
    samples = {"setup_s": setup_samples(args, outcome)}
    warm_up(w, outcome)
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        try:
            rep = w.repetition()
        except Exception as exc:  # noqa: BLE001  (counted, and the run goes on)
            outcome.crashed(exc)
            continue
        if outcome.check(rep.outputs):
            for name, values in rep.timings.items():
                samples.setdefault(name, []).extend(values)
            for name, values in rep.walls.items():
                samples.setdefault(f"wall:{name}", []).extend(values)
    samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    return samples


def measure_per_layer(args, w, outcome) -> dict:
    """Pairs of untraced and traced operations; per-layer metrics from the spans."""
    tracer = spans.Tracer()
    untraced, traced = [], []
    missing = []
    op_id = 0
    warm_up(w, outcome)
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        op_id += 1
        try:
            start = workloads.CLOCK()
            plain = w.operation()
            plain_s = workloads.CLOCK() - start
            with spans.instrument(tracer) as missing:
                start = workloads.CLOCK()
                with tracer.operation(op_id):
                    spanned = w.operation()
                spanned_s = workloads.CLOCK() - start
        except Exception as exc:  # noqa: BLE001  (counted, and the run goes on)
            outcome.crashed(exc)
            plain = spanned = None
        if plain is not None:
            ok = outcome.check(plain) & outcome.check(spanned)
            for (op, a), (_, b) in zip(plain, spanned):
                outcome.attempted += 1
                if workloads.output_bytes(a) != workloads.output_bytes(b):
                    outcome.failures.append(f"{op}: traced output differs from untraced output")
                    ok = False
            if ok:
                untraced.append(plain_s)
                traced.append(spanned_s)
    if missing:
        print(f"note: patch points absent from this rclab: {', '.join(missing)}")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_jsonl(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
    return spans.layer_samples(tracer, metrics.PER_LAYER, traced, untraced)


def summarize(samples: dict, units: dict) -> dict:
    """Median, sample count and tail of every metric named in ``units``."""
    out = {}
    for name in units:
        values = samples.get(name, [])
        pct, tail_value = tail(values)
        out[name] = {
            "value": statistics.median(values) if values else None,
            "unit": units[name],
            "n": len(values),
            "tail_pct": pct,
            "tail_value": tail_value,
        }
    return out


def report_lines(args, w, summary, samples, outcome, env, load) -> list:
    walls = {k[len("wall:"):]: statistics.median(v) for k, v in samples.items()
             if k.startswith("wall:") and v}
    lines = [
        f"workload {args.workload} seed {args.seed} (input seed {w.input_seed}) "
        f"trace {args.trace} scale {args.scale} seconds {args.seconds}",
        "env " + " ".join(f"{k}={v!r}" for k, v in env.items()),
        "validity " + " ".join(f"{k}={v}" for k, v in load.items()),
        "wall-clock medians (not gated) " + " ".join(f"{k}={v:.4f}" for k, v in walls.items()),
    ]
    alias = metrics.STEP_ALIAS[args.workload]
    for name, m in summary.items():
        shown = [name] + ([alias] if name == "step_s" else [])
        tail_txt = (
            f"p{m['tail_pct']} {m['tail_value']:.6g}" if m["tail_pct"] is not None
            else "tail n/a (10 or fewer samples)"
        )
        gate = " (not gated)" if name in metrics.REPORTED else ""
        for label in shown:
            lines.append(
                f"metric {label} = {m['value']} {m['unit']} (median of {m['n']}; {tail_txt}){gate}"
            )
    failed = len(outcome.failures)
    frac = failed / outcome.attempted if outcome.attempted else 1.0
    lines.append(f"metric failed_frac = {frac} ratio ({failed} of {outcome.attempted} operations)")
    lines += [f"failure {msg}" for msg in outcome.failures[:20]]
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: self-test size")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    counters_start = host_counters()
    w = workloads.make(args.workload, args.seed, args.scale)
    outcome = Outcome(w, workloads.load_reference())
    if args.trace:
        samples = measure_per_layer(args, w, outcome)
        units = {name: spec[0] for name, spec in metrics.PER_LAYER.items()}
    else:
        samples = measure_end_to_end(args, w, outcome)
        units = {name: spec[0] for name, spec in metrics.END_TO_END.items()}
        units |= {name: spec[0] for name, spec in metrics.REPORTED.items()}
    summary = summarize(samples, units)
    env = environment()
    load = validity(counters_start, host_counters(), env["nproc"] or 1)
    for line in report_lines(args, w, summary, samples, outcome, env, load):
        print(line)
    record = {
        "workload": args.workload, "seed": args.seed, "input_seed": w.input_seed,
        "trace": args.trace, "scale": args.scale, "seconds": args.seconds,
        "env": env, "validity": load, "summary": summary, "samples": samples,
        "attempted": outcome.attempted, "failures": outcome.failures,
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    complete = all(m["value"] is not None for m in summary.values())
    result = {
        "correct": not outcome.failures and complete,
        "attempted": max(outcome.attempted, 1),
        "failed": len(outcome.failures) if outcome.attempted else 1,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in summary.items()
                    if k not in metrics.REPORTED},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
