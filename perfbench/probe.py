"""Cold set-up probe, run in a fresh interpreter by ``run.py``.

Usage: ``python3 perfbench/probe.py <workload> <seed> <scale>``.  Times
``import rclab`` plus the workload's first build on the process CPU clock
and prints one JSON line ``{"setup_s": ..., "failures": [...]}``.
"""

import time

_START = time.process_time()

import json  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402  (imports rclab, numpy and scipy)


def main() -> int:
    name, seed, scale = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    w = workloads.make(name, seed, scale)
    outputs = w.setup()
    setup_s = time.process_time() - _START
    reference = workloads.load_reference()
    failures = [msg for op, out in outputs if (msg := w.check(op, out, reference))]
    print(json.dumps({"setup_s": setup_s, "attempted": len(outputs), "failures": failures}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
