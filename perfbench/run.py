"""Convergence-study benchmark for nsdarcy.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src. Each study runs in a fresh child process (perfbench/study.py) through
`nsdarcy.cli.run_experiment`, and its unrounded error table is checked
against perfbench/reference.json. The load is a closed loop with one
client: one study at a time, in one process.

--trace 0 runs studies back to back until the next one would end after
--seconds (at least one), tops up the set-up samples to SETUP_SAMPLES with
set-up-only children, and reports the end-to-end metrics of BENCHMARK.json.
--trace 1 runs a traced, an untraced and a traced study and reports the
per-layer metrics; the untraced one gives trace.overhead_s, and every count
must repeat exactly between the two traced ones.

The inputs are deterministic (a manufactured solution on structured
meshes), so --seed only shuffles the order of the workloads of
`--workload all`; it is recorded with the results. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. A record with the environment, every sample and the
flags goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import Counter

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
STUDY = os.path.join(HERE, "study.py")
REFERENCE = os.path.join(HERE, "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# Largest relative difference between a study's unrounded error table and
# the reference. Perturbing every constrained matrix entry by 1e-15
# relative moves the errors of these workloads by at most 7e-9; loosening
# linear_tol from 1e-9 to 1e-8 on alg_a_mini_128_iter moves them by 6e-3.
RTOL = 1e-6
SETUP_SAMPLES = 5
RUN_BUDGET_S = 170.0

# run_experiment configurations; defaults give picard_tol=1e-7,
# linear_tol=1e-9 and ichol_droptol=1e-3.
WORKLOADS = {
    "coupled_mini_128": {"algorithm": "coupled", "order": 1,
                         "schedule": "pairs:128", "solver": "direct"},
    "coupled_th_64": {"algorithm": "coupled", "order": 2,
                      "schedule": "pairs:64", "solver": "direct"},
    "alg_a_mini_128": {"algorithm": "A", "order": 1,
                       "schedule": "pairs:4:16:128", "solver": "direct"},
    "alg_a_mini_128_iter": {"algorithm": "A", "order": 1,
                            "schedule": "pairs:4:16:128",
                            "solver": "iterative"},
}
# the same configurations at n=8, for the harness self-test
TINY = {
    "tiny_coupled_mini": dict(WORKLOADS["coupled_mini_128"],
                              schedule="pairs:8"),
    "tiny_coupled_th": dict(WORKLOADS["coupled_th_64"], schedule="pairs:8"),
    "tiny_alg_a_mini": dict(WORKLOADS["alg_a_mini_128"],
                            schedule="pairs:2:4:8"),
    "tiny_alg_a_mini_iter": dict(WORKLOADS["alg_a_mini_128_iter"],
                                 schedule="pairs:2:4:8"),
}
CONFIGS = {**WORKLOADS, **TINY}


def load_spec() -> dict:
    with open(SPEC) as fh:
        return json.load(fh)


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)["workloads"]


# --- environment ------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_env() -> dict:
    # keeps git from searching above the checkout
    return dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))


def _revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             env=_git_env(), capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _src_sha256() -> str:
    pkg = os.path.join(ROOT, "src", "nsdarcy")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "NSDARCY_THREADS")},
        "revision": _revision(),
        "src_sha256": _src_sha256(),
        "seed": seed,
    }


# --- one child process ------------------------------------------------------

def run_child(config: dict, out_dir: str, deadline: float,
              setup_only: bool = False, trace_id: str | None = None) -> dict:
    """Runs study.py once; returns its JSON result, or {"error": ...}."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return {"error": "run time budget exhausted"}
    cmd = [sys.executable, STUDY, ROOT, out_dir, json.dumps(config)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_id:
        cmd += ["--trace", trace_id]
    os.makedirs(out_dir, exist_ok=True)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, env=_git_env())
    except subprocess.TimeoutExpired:
        return {"error": f"study timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"error": f"exit code {proc.returncode}: {tail}"}
    return json.loads(lines[-1])


def compare_rows(rows: list, reference: list | None,
                 rtol: float = RTOL) -> tuple:
    """(worst relative difference, problem or None) of an error table
    against its reference, row by row on (level, h, variable, norm)."""
    if reference is None:
        return None, "no reference table"
    got = {tuple(r[:4]): r[4] for r in rows}
    ref = {tuple(r[:4]): r[4] for r in reference}
    if got.keys() != ref.keys():
        return None, (f"row keys differ: {len(got.keys() - ref.keys())} "
                      f"extra, {len(ref.keys() - got.keys())} missing")
    worst = max(abs(got[k] - ref[k]) / abs(ref[k]) for k in ref)
    if not worst <= rtol:
        return worst, f"error table off by {worst:.3e} relative (> {rtol:g})"
    return worst, None


def run_study(name: str, reference: list | None, out_dir: str,
              deadline: float, trace_id: str | None = None) -> dict:
    res = run_child(CONFIGS[name], out_dir, deadline, trace_id=trace_id)
    if "error" not in res:
        res["rel_diff"], problem = compare_rows(res["rows"], reference)
        if problem:
            res["error"] = problem
        del res["rows"]
    return res


# --- statistics -------------------------------------------------------------

def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median_or_zero(values: list) -> float:
    return statistics.median(values) if values else 0.0


# --- one workload -----------------------------------------------------------

def measure(name: str, seconds: float, reference: list | None,
            out_dir: str) -> dict:
    """End-to-end metrics: studies for `seconds`, then set-up samples."""
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    studies, setups, longest = [], [], 0.0
    while True:
        t0 = time.monotonic()
        res = run_study(name, reference, os.path.join(out_dir, "study"),
                        deadline)
        longest = max(longest, time.monotonic() - t0)
        studies.append(res)
        if "setup_s" in res:
            setups.append(res["setup_s"])
        if (time.monotonic() - start + longest > seconds
                or deadline - time.monotonic() < longest):
            break
    setup_errors = []
    while len(setups) < SETUP_SAMPLES and not setup_errors:
        res = run_child(CONFIGS[name], os.path.join(out_dir, "setup"),
                        deadline, setup_only=True)
        if "error" in res:
            setup_errors.append(res["error"])
        else:
            setups.append(res["setup_s"])
    ok = [s for s in studies if "error" not in s]
    walls = [s["wall_s"] for s in ok]
    metrics = {
        "wall_s": median_or_zero(walls),
        "setup_s": median_or_zero(setups),
        "peak_rss_mb": median_or_zero([s["peak_rss_mb"] for s in ok]),
        "ok_frac": len(ok) / len(studies),
    }
    return {"studies": studies, "setup_samples": setups,
            "wall_quartiles": quartiles(walls) if walls else None,
            "problems": setup_errors, "metrics": metrics,
            "attempted": len(studies), "failed": len(studies) - len(ok)}


def layer_metric(metric: str, traced: list, base_wall: float) -> float:
    """One per-layer metric from the two traced studies' summaries. Times
    are self time averaged over both; counts come from the first."""
    first = traced[0]["trace"]

    def mean_of(key, span):
        return statistics.fmean(t["trace"][key].get(span, 0.0)
                                for t in traced)

    counts = first["counts"]
    if metric == "trace.overhead_s":
        return statistics.fmean(t["wall_s"] for t in traced) - base_wall
    if metric == "trace.unattributed_s":
        return mean_of("self_s", tracing.ROOT_SPAN)
    if metric == "sparse.true_relres_max":
        return max(t["trace"]["true_relres_max"] for t in traced)
    if metric == "sparse.gmres_converged":
        calls = counts.get("sparse.gmres_calls", 0)
        return counts.get("sparse.gmres_converged", 0) / calls if calls \
            else 1.0
    if metric in ("coupled.solve_s", "decoupled.fine_level_s"):
        return mean_of("incl_s", metric[:-2])
    if metric == "coupled.self_s":
        return mean_of("self_s", "coupled.solve")
    if metric.endswith("_s"):
        return mean_of("self_s", metric[:-2])
    return counts.get(metric, 0)


def trace_run(name: str, seed: int, reference: list | None, out_dir: str,
              metric_names: list) -> dict:
    """Per-layer metrics: a traced, an untraced and a traced study; the
    untraced one sits in the middle so that a linear drift of machine speed
    cancels from trace.overhead_s."""
    deadline = time.monotonic() + RUN_BUDGET_S

    def traced_study(k):
        return run_study(name, reference,
                         os.path.join(out_dir, f"traced{k}"), deadline,
                         trace_id=f"{name}-seed{seed}-traced{k}")

    first = traced_study(1)
    untraced = run_study(name, reference, os.path.join(out_dir, "untraced"),
                         deadline)
    studies = [untraced, first, traced_study(2)]
    failed = sum("error" in s for s in studies)
    result = {"studies": studies, "attempted": 3, "failed": failed,
              "problems": [], "metrics": {}}
    if failed:
        result["problems"].append("a study failed; no per-layer metrics")
        return result
    traced = studies[1:]
    for t in traced:
        result["problems"] += t["trace"]["span_problems"]
    a, b = (dict(t["trace"]["counts"], dofs_per_level=t["trace"]["dofs"])
            for t in traced)
    for key in sorted(a.keys() | b.keys()):
        if a.get(key) != b.get(key):
            result["problems"].append(
                f"count {key} does not repeat: {a.get(key)} vs {b.get(key)}")
    result["counts"] = a
    result["metrics"] = {m: layer_metric(m, traced, studies[0]["wall_s"])
                         for m in metric_names}
    layers: Counter = Counter()
    for span, s in traced[0]["trace"]["self_s"].items():
        layers[span.split(".")[0]] += s
    result["layer_self_s"] = dict(layers)
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 reference: dict | None = None) -> dict:
    """Measures one workload; `reference` overrides reference.json."""
    spec = load_spec()
    reference = load_reference() if reference is None else reference
    out_dir = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}")
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        res = trace_run(name, seed, reference.get(name), out_dir, names)
    else:
        res = measure(name, seconds, reference.get(name), out_dir)
    res.update(workload=name, config=CONFIGS[name], seconds=seconds,
               trace=int(trace), environment=environment(seed))
    res["correct"] = res["failed"] == 0 and not res["problems"]
    os.makedirs(OUT, exist_ok=True)
    with open(out_dir + ".json", "w") as fh:
        json.dump(res, fh, indent=1)
    return res


# --- reporting --------------------------------------------------------------

def _units(spec: dict, trace: bool) -> dict:
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def describe(res: dict, spec: dict) -> list:
    """Human-readable lines for one workload."""
    env = res["environment"]
    lines = [f"# {res['workload']} seed={env['seed']} trace={res['trace']} "
             f"{res['config']}",
             f"#   env: nproc={env['nproc']} cpu={env['cpu_model']!r} "
             f"python={env['python']} numpy={env['numpy']} "
             f"scipy={env['scipy']} blas={env['blas']} "
             f"threads={env['blas_threads_env']} rev={env['revision'][:12]} "
             f"src={env['src_sha256'][:12]}"]
    units = _units(spec, res["trace"])
    if not res["trace"]:
        m = res["metrics"]
        q = res["wall_quartiles"]
        lines.append(f"#   wall_s {m['wall_s']:.4f} s (median of "
                     f"{len(res['studies']) - res['failed']}"
                     + (f"; q1 {q[0]:.4f}, q3 {q[2]:.4f}" if q else "") + ")")
        lines.append(f"#   setup_s {m['setup_s']:.4f} s (median of "
                     f"{len(res['setup_samples'])})")
        lines.append(f"#   peak_rss_mb {m['peak_rss_mb']:.1f} MB")
        lines.append(f"#   fail_frac {res['failed'] / res['attempted']:g} "
                     f"({res['failed']}/{res['attempted']})")
    else:
        total = sum(res.get("layer_self_s", {}).values()) or 1.0
        for layer, s in sorted(res.get("layer_self_s", {}).items(),
                               key=lambda kv: -kv[1]):
            lines.append(f"#   layer {layer:<10} self {s:8.3f} s "
                         f"{100 * s / total:5.1f}%")
        for name, value in res["metrics"].items():
            note = " (no calls on this workload)" if value == 0 else ""
            lines.append(f"#   {name} {value:.6g} {units[name]}{note}")
    for s in res["studies"]:
        if "error" in s:
            lines.append(f"#   FAILED study: {s['error']}")
    for p in res["problems"]:
        lines.append(f"#   FLAG: {p}")
    return lines


def result_line(results: list, spec: dict, prefix: bool) -> str:
    metrics = {}
    for res in results:
        units = _units(spec, res["trace"])
        for name, value in res["metrics"].items():
            key = f"{res['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": units[name]}
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for needed in (os.path.join(ROOT, "src", "nsdarcy", "__init__.py"),
                   SPEC, REFERENCE):
        if not os.path.isfile(needed):
            print(f"error: {needed} not found; run from the root of an "
                  f"nsdarcy source checkout", file=sys.stderr)
            return 2
    spec = load_spec()
    names = [args.workload]
    if args.workload == "all":
        names = sorted(WORKLOADS)
        random.Random(args.seed).shuffle(names)
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(describe(res, spec)), flush=True)
        results.append(res)
    print(result_line(results, spec, prefix=args.workload == "all"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
