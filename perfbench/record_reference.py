"""Record the reference output digests every benchmark check compares against.

Usage: ``python3 perfbench/record_reference.py``.  Run it only on a commit
whose outputs are known good; it rewrites ``perfbench/reference.json`` with
the sha256 of every byte-checked output, for every workload, scale and input
seed.
"""

import json
import sys

import workloads


def main() -> int:
    reference = {}
    for scale in ("tiny", "full"):
        for name in workloads.WORKLOADS:
            for seed in range(workloads.N_INPUT_SEEDS):
                w = workloads.make(name, seed, scale)
                reference[w.key] = w.record()
                print(w.key, flush=True)
    text = json.dumps(reference, indent=1, sort_keys=True) + "\n"
    workloads.REFERENCE_FILE.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
