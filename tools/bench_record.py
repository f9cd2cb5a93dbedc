"""Collect perfbench records into one BENCH_<label>.json file.

    python3 tools/bench_record.py LABEL SIDE=RECORD [SIDE=RECORD ...]

Each RECORD is a file `perfbench/run.py` wrote, named
`.perfbench_out/<workload>-seed<N>-trace<T>.json`. SIDE names the commit
the record measured, such as `parent` or `change`. The output, written to
BENCH_<LABEL>.json in the current directory, lists one entry per record in
argument order: workload, seed, trace flag, side, metrics, `correct` and
the environment block. Exit code 2 means a bad argument or record.

With exactly two sides, it also prints, and stores as `summary`, each
workload's and trace flag's metrics side by side: the median and
quartiles of each side, and how many pairs the change won, where the base
side is `parent` if one is so named, else the first side given, and the
k-th record of one side pairs with the k-th of the other. A tie counts for
neither side; whether lower or higher is better comes from BENCHMARK.json
next to this tool, and a metric it does not name is not counted. `gain`
says whether the rule for claiming a gain holds: at least ten pairs, the
change winning at least nine in ten, and the medians apart, in the better
direction, by more than the base's interquartile range. Each end-to-end
metric with a `bound` in BENCHMARK.json also gets a `verdict`: "worse"
when the change's median is worse than the base's by more than bound
times the base median; else "unresolved" when the larger of the two
sides' interquartile ranges exceeds that margin, unless every change
record beats every base record; else "within bound".
"""

from __future__ import annotations

import json
import os
import re
import statistics
import sys

RECORD_NAME = re.compile(r"(?P<workload>\w+)-seed(?P<seed>\d+)"
                         r"-trace(?P<trace>[01])\.json")
LABEL = re.compile(r"[\w.-]+")
USAGE = "usage: bench_record.py LABEL SIDE=RECORD [SIDE=RECORD ...]"
SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "BENCHMARK.json")


class BadInput(Exception):
    pass


def read_record(side: str, path: str) -> dict:
    match = RECORD_NAME.fullmatch(os.path.basename(path))
    if match is None:
        raise BadInput(f"{path}: not a <workload>-seed<N>-trace<T>.json "
                       f"record")
    try:
        with open(path) as fh:
            rec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BadInput(f"{path}: {exc}") from exc
    try:
        return {"workload": rec["workload"], "seed": int(match["seed"]),
                "trace": rec["trace"], "side": side,
                "metrics": rec["metrics"], "correct": rec["correct"],
                "environment": rec["environment"]}
    except KeyError as exc:
        raise BadInput(f"{path}: no field {exc}") from exc


def _spec(spec_path: str) -> dict:
    try:
        with open(spec_path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def better_of(spec_path: str = SPEC) -> dict:
    """Metric name -> "lower" or "higher", from the benchmark spec."""
    spec = _spec(spec_path)
    return {m["name"]: m["better"]
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def bounds_of(spec_path: str = SPEC) -> dict:
    """End-to-end metric name -> its relative bound, from the benchmark
    spec; metrics without a bound are left out."""
    return {m["name"]: m["bound"] for m in _spec(spec_path).get(
        "end_to_end", []) if "bound" in m}


def quartiles(xs: list) -> tuple:
    """(first quartile, median, third quartile) of xs, inclusive."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def verdict(a: list, b: list, sign: int, bound: float) -> str:
    """"worse", "unresolved" or "within bound": the change records b
    against the base records a of a metric whose better direction is
    sign (1 higher, -1 lower), given its relative bound."""
    (a1, median, a3), (b1, b_median, b3) = quartiles(a), quartiles(b)
    margin = bound * abs(median)
    if sign * (b_median - median) < -margin:
        return "worse"
    if max(a3 - a1, b3 - b1) > margin and not all(
            sign * (y - x) > 0 for x in a for y in b):
        return "unresolved"
    return "within bound"


def summarize(records: list, better: dict, bounds: dict | None = None
              ) -> list:
    """Per workload, trace flag and metric: both sides' quartiles, the
    pairs the change won, whether a gain may be claimed and, for a metric
    with a bound in `bounds`, the `verdict`; [] unless there are exactly
    two sides."""
    sides = list(dict.fromkeys(r["side"] for r in records))
    if len(sides) != 2:
        return []
    base, change = sides if "parent" not in sides else (
        "parent", sides[1 - sides.index("parent")])
    groups: dict = {}
    for r in records:
        groups.setdefault((r["workload"], r["trace"]), {}).setdefault(
            r["side"], []).append(r["metrics"])
    out = []
    for (workload, trace), by_side in groups.items():
        runs_a, runs_b = by_side.get(base, []), by_side.get(change, [])
        for name in dict.fromkeys(k for m in runs_a + runs_b for k in m):
            a = [m[name] for m in runs_a if name in m]
            b = [m[name] for m in runs_b if name in m]
            if not a or not b:
                continue
            entry = {"workload": workload, "trace": trace, "metric": name,
                     "base": base, "change": change,
                     "base_quartiles": quartiles(a),
                     "change_quartiles": quartiles(b)}
            sign = {"lower": -1, "higher": 1}.get(better.get(name))
            if sign is not None:
                q1, median, q3 = entry["base_quartiles"]
                won = sum(sign * (y - x) > 0 for x, y in zip(a, b))
                pairs = min(len(a), len(b))
                entry.update(pairs=pairs, won=won, gain=(
                    pairs >= 10 and won >= 0.9 * pairs and sign * (
                        entry["change_quartiles"][1] - median) > q3 - q1))
                if name in (bounds or {}):
                    entry["verdict"] = verdict(a, b, sign, bounds[name])
            out.append(entry)
    return out


def summary_lines(summary: list) -> list:
    lines = []
    for e in summary:
        text = "  ".join(f"{e[side]} {q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
                         for side, q in (("base", e["base_quartiles"]),
                                         ("change", e["change_quartiles"])))
        if "won" in e:
            text += (f"  {e['change']} won {e['won']}/{e['pairs']}; gain "
                     f"{'holds' if e['gain'] else 'not shown'}")
        if "verdict" in e:
            text += f"; {e['verdict']}"
        lines.append(f"{e['workload']} trace{e['trace']} {e['metric']}: "
                     f"{text}")
    return lines


def main(argv: list[str]) -> int:
    try:
        if len(argv) < 2 or not LABEL.fullmatch(argv[0]):
            raise BadInput(USAGE)
        records = []
        for arg in argv[1:]:
            side, sep, path = arg.partition("=")
            if not sep or not side:
                raise BadInput(f"{arg}: expected SIDE=RECORD")
            records.append(read_record(side, path))
    except BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = summarize(records, better_of(), bounds_of())
    out = f"BENCH_{argv[0]}.json"
    with open(out, "w") as fh:
        json.dump({"label": argv[0], "records": records,
                   "summary": summary}, fh, indent=1)
        fh.write("\n")
    print("\n".join(summary_lines(summary)))
    print(f"wrote {out} ({len(records)} records)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
