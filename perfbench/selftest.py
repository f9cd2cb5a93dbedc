"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs the n=8 variants of the four workloads through the same code path as
the benchmark, untraced and traced, and checks that
  - every end-to-end and per-layer metric of BENCHMARK.json is reported,
    and each per-layer metric reads nonzero on at least one workload;
  - the spans written by each traced study nest: children inside their
    parent, siblings apart, self time >= 0, one root, one run id;
  - counts repeat between the two traced studies;
  - a deliberately perturbed reference table counts as a failed study.
Prints each failed check and exits 1 if there is any.
"""

import copy
import json
import math
import os
import sys

import run
import tracing


def check_span_file(path: str) -> list:
    with open(path) as fh:
        records = json.load(fh)
    spans = [[r["name"], r["start"], r["end"], r["parent"]] for r in records]
    problems = tracing.check_spans(spans)
    roots = [s[0] for s in spans if s[3] < 0]
    if roots != [tracing.ROOT_SPAN]:
        problems.append(f"roots {roots}, expected one {tracing.ROOT_SPAN}")
    if len({r["run"] for r in records}) != 1:
        problems.append("spans of one study carry more than one run id")
    return problems


def main() -> int:
    spec = run.load_spec()
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    # the nesting check itself must catch a child that outlives its parent
    expect(bool(tracing.check_spans([["a", 0.0, 1.0, -1],
                                     ["b", 0.5, 1.5, 0]])),
           "check_spans flags a child outside its parent")

    nonzero = set()
    for name in run.TINY:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            res = run.run_workload(name, 0, 1.0, trace)
            tag = f"{name} trace={int(trace)}"
            expect(res["correct"], f"{tag}: correct "
                   f"({res['problems']}, {res['failed']} failed)")
            missing = [m["name"] for m in spec[key]
                       if not isinstance(res["metrics"].get(m["name"]),
                                         (int, float))
                       or not math.isfinite(res["metrics"][m["name"]])]
            expect(not missing, f"{tag}: every {key} metric reported "
                   f"(missing {missing})")
            if trace:
                nonzero |= {m for m, v in res["metrics"].items() if v}
                out_dir = os.path.join(run.OUT, f"{name}-seed0-trace1")
                for k in (1, 2):
                    problems = check_span_file(
                        os.path.join(out_dir, f"traced{k}", "spans.json"))
                    expect(not problems,
                           f"{tag}: spans of traced study {k} nest "
                           f"{problems[:3]}")

    never = [m["name"] for m in spec["per_layer"]
             if m["name"] not in nonzero]
    expect(not never, f"every per-layer metric measured somewhere "
           f"(always 0: {never})")

    name = "tiny_alg_a_mini"
    reference = copy.deepcopy(run.load_reference())
    reference[name][-1][4] *= 1 + 10 * run.RTOL
    res = run.run_workload(name, 0, 1.0, False, reference=reference)
    expect(res["failed"] == res["attempted"] >= 1 and not res["correct"],
           f"{name}: perturbed reference counts as a failure "
           f"({res['failed']}/{res['attempted']} failed)")

    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
