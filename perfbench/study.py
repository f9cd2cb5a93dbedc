"""One convergence study in a fresh process; prints one JSON line.

    python3 study.py ROOT OUT_DIR CONFIG_JSON [--setup-only] [--trace RUN_ID]

Set-up is the imports plus a warm-up study (coupled, pairs:4); `setup_s`
covers it. The study itself is one `nsdarcy.cli.run_experiment` call, the
call `nsdarcy run` makes after parsing its arguments, and `wall_s` covers
only that call. With --trace the tracer is installed before the warm-up and
reset after it, and the spans are written to OUT_DIR/spans.json.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

WARMUP = {"algorithm": "coupled", "order": 1, "schedule": "pairs:4",
          "solver": "direct"}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("root")
    ap.add_argument("out")
    ap.add_argument("config")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", metavar="RUN_ID")
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import nsdarcy
    from nsdarcy import cli
    if os.path.dirname(os.path.dirname(os.path.abspath(nsdarcy.__file__))) \
            != os.path.abspath(src):
        raise SystemExit(f"imported nsdarcy from {nsdarcy.__file__}, "
                         f"not from {src}")
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install(args.trace)

    cli.run_experiment(cli.ExperimentConfig(
        **WARMUP, out=os.path.join(args.out, "warmup")))
    result = {"setup_s": time.perf_counter() - T_START}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    config = cli.ExperimentConfig(**json.loads(args.config), out=args.out)
    if tracer is not None:
        tracer.reset()
    t0 = time.perf_counter()
    try:
        artifact = cli.run_experiment(config)
    except Exception as exc:  # a failed study is a result, not a crash
        result["error"] = f"{type(exc).__name__}: {exc}"
        print(json.dumps(result))
        return 0
    result["wall_s"] = time.perf_counter() - t0
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["rows"] = [[r.level, r.h, r.variable, r.norm, r.error]
                      for r in artifact.rows]
    if tracer is not None:
        result["trace"] = tracing.summarize(tracer)
        with open(os.path.join(args.out, "spans.json"), "w") as fh:
            json.dump(tracing.span_records(tracer), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
