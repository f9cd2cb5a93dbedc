"""Records the reference error tables that studies are checked against.

    python3 perfbench/record_reference.py

Runs every workload configuration, and its n=8 self-test variant, once
through the same child process as the benchmark and writes the unrounded
error tables to perfbench/reference.json with the source they came from.
Re-record only when a change is meant to move the errors, and say so.
"""

import json
import os
import sys
import time

import run


def main() -> int:
    tables = {}
    for name, config in run.CONFIGS.items():
        res = run.run_child(config, os.path.join(run.OUT, "reference", name),
                            time.monotonic() + 600)
        if "error" in res:
            print(f"{name}: {res['error']}", file=sys.stderr)
            return 1
        tables[name] = res["rows"]
        print(f"{name}: {len(res['rows'])} rows, {res['wall_s']:.2f} s")
    for direct, iterative in (("alg_a_mini_128", "alg_a_mini_128_iter"),
                              ("tiny_alg_a_mini", "tiny_alg_a_mini_iter")):
        worst, _ = run.compare_rows(tables[iterative], tables[direct], 0.0)
        print(f"{iterative} vs {direct}: largest relative difference "
              f"{worst:.3e}")
    env = run.environment(seed=0)
    with open(run.REFERENCE, "w") as fh:
        json.dump({"source": {k: env[k] for k in ("revision", "src_sha256")},
                   "workloads": tables}, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
