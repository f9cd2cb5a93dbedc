"""The benchmark's tracer wraps package functions by name; a rename in the
package must fail here rather than break every traced benchmark run."""

import importlib
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    """Executes the tracer's source in a fresh module; nothing is written
    next to it."""
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), vars(module))
    return module


def test_every_trace_target_resolves():
    targets = load_tracing()._targets({})
    assert targets
    missing = []
    for mod_name, owner, attr, span, _ in targets:
        module = importlib.import_module("nsdarcy." + mod_name)
        holder = module if owner is None else getattr(module, owner, None)
        if not callable(getattr(holder, attr, None)):
            missing.append(f"{mod_name}.{owner + '.' if owner else ''}{attr}"
                           f" ({span})")
    assert not missing, "tracer targets not in the package: " + \
        ", ".join(missing)


def test_a_missing_target_is_reported(monkeypatch):
    from nsdarcy import forms
    monkeypatch.delattr(forms, "assemble_af")
    with pytest.raises(AssertionError, match="forms.assemble_af"):
        test_every_trace_target_resolves()


def test_a_traced_study_runs(tmp_path):
    """The hooks read package internals (a factor's `_lu` and `shape`, a
    report's `iterations`), which only a traced run exercises: one small
    study of A runs the benchmark's study script under the tracer. Its
    three systems (Picard, Darcy, NS) each record the Dirichlet
    elimination: constrain_dirichlet and, within it, constrain_matrix and
    constrain_rhs."""
    config = {"algorithm": "A", "order": 1, "schedule": "pairs:2:4",
              "solver": "direct"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "study.py"), str(ROOT),
         str(tmp_path), json.dumps(config), "--trace", "test"],
        capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert "error" not in result
    trace = result["trace"]
    assert trace["span_problems"] == []
    assert trace["counts"]["sparse.factor_calls"] == 3
    assert trace["true_relres_max"] < 1e-8
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert sum(s["name"] == "sparse.constrain" for s in spans) == 9
    assert trace["incl_s"]["sparse.constrain"] > 0
