"""Every function in `src/nsdarcy` serves the studies: a fixed traffic of
tiny `nsdarcy` runs and CLI calls, traced with `sys.setprofile` in a fresh
interpreter, enters every `def` that `ast` finds there, nested functions
included, except the few named in UNENTERED. A helper, option or second
path that only the tests reach fails here.

Functions are matched by file, first line (the first decorator's, for a
decorated one) and name, since `co_qualname` needs Python 3.11."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nsdarcy"

# defs that the traffic must not enter, each for its reason
UNENTERED = {
    # raised only when a fine level fails, which no study on the default
    # ModelParams() does
    "decoupled.py:MultilevelStepFailed.__init__",
    # read only by perfbench/tracing.py and the tests
    "coupled.py:PicardReport.iterations",
    "fem.py:DiscreteField.eval_grad_many",
}

# the CLI calls of the traffic, run in order from a scratch directory, and
# the exit code each must give
TRAFFIC = [
    (["run", "--algorithm", alg, "--order", order, "--solver", solver,
      "--schedule", "pairs:2:4", "--out", f"{alg}{order}{solver}"], 0)
    for alg in ("coupled", "A", "B", "C", "D") for order in ("1", "2")
    for solver in ("direct", "iterative")] + [
    (["run", "--algorithm", alg, "--schedule", "pairs:2:3,3:4",
      "--out", f"{alg}-pairs"], 0) for alg in ("A", "coupled")] + [
    (["run", "--algorithm", "A", "--dry-run",
      "--schedule", "cube_then_square:n0=2,levels=1"], 0),
    (["run", "--config", "comment.cfg", "--out", "comment"], 0),
    (["diff", "A1direct/errors.csv", "A1iterative/errors.csv",
      "--tol", "0.01,H1=0.02,u:L2=0.03"], 0),
    (["run", "--schedule", "pairs:4:2", "--dry-run"], 2),
    (["run", "--config", "tight_linear.cfg", "--out", "tight_linear"], 3),
    (["run", "--config", "tight_picard.cfg", "--out", "tight_picard"], 3)]
CONFIGS = {
    "comment.cfg": "# the default study, run\ndry_run = false  # not dry\n"
                   "schedule = pairs:2\n",
    "tight_linear.cfg": "solver = iterative\nlinear_tol = 1e-30\n"
                        "schedule = pairs:2\n",
    "tight_picard.cfg": "picard_tol = 1e-15\nschedule = pairs:4\n",
}

# runs in the fresh interpreter: argv is the source directory, then the
# JSON of the calls; prints the JSON of the exit codes and the entered
# (file, first line, name) of the functions under it
SCRIPT = """
import contextlib, io, json, os, sys
src, calls = sys.argv[1], json.loads(sys.argv[2])
entered = set()

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))

sys.setprofile(profile)
from nsdarcy import cli
codes = []
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    for argv in calls:
        codes.append(cli.main(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(
    [os.path.basename(f), line, name] for f, line, name in entered
    if os.path.dirname(os.path.abspath(f)) == src)}))
"""


def defs() -> dict:
    """(file, first line, name) -> "file:qualified.name" of every def."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                out[(path.name, first, child.name)] = \
                    f"{path.name}:{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return out


def test_the_studies_enter_every_function(tmp_path):
    for name, text in CONFIGS.items():
        (tmp_path / name).write_text(text)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC),
         json.dumps([argv for argv, _ in TRAFFIC])],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [code for _, code in TRAFFIC]

    every = defs()
    entered = {every[tuple(key)] for key in result["entered"]
               if tuple(key) in every}
    assert UNENTERED <= set(every.values()), "allowed names no longer exist"
    assert not UNENTERED & entered, "allowed names are entered now"
    missed = sorted(set(every.values()) - entered - UNENTERED)
    assert not missed, "functions no study enters: " + ", ".join(missed)
