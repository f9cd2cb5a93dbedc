"""Collect perfbench records into one BENCH_<label>.json file.

    python3 tools/bench_record.py LABEL SIDE=RECORD [SIDE=RECORD ...]

Each RECORD is a file `perfbench/run.py` wrote, named
`.perfbench_out/<workload>-seed<N>-trace<T>.json`. SIDE names the commit
the record measured, such as `parent` or `change`. The output, written to
BENCH_<LABEL>.json in the current directory, lists one entry per record in
argument order: workload, seed, trace flag, side, metrics, `correct` and
the environment block. Exit code 2 means a bad argument or record.
"""

from __future__ import annotations

import json
import os
import re
import sys

RECORD_NAME = re.compile(r"(?P<workload>\w+)-seed(?P<seed>\d+)"
                         r"-trace(?P<trace>[01])\.json")
LABEL = re.compile(r"[\w.-]+")
USAGE = "usage: bench_record.py LABEL SIDE=RECORD [SIDE=RECORD ...]"


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
    out = f"BENCH_{argv[0]}.json"
    with open(out, "w") as fh:
        json.dump({"label": argv[0], "records": records}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out} ({len(records)} records)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
