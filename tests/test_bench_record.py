import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "bench_record.py")
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def write_record(directory, name, **fields):
    rec = {"workload": "alg_a_mini_128_iter", "trace": 0, "correct": True,
           "metrics": {"wall_s": 17.5, "peak_rss_mb": 287.0},
           "environment": {"nproc": 2, "seed": 11}, "studies": []}
    rec.update(fields)
    path = directory / name
    path.write_text(json.dumps(rec))
    return str(path)


def test_collects_records_in_argument_order(tmp_path, monkeypatch, capsys):
    parent = write_record(tmp_path, "alg_a_mini_128_iter-seed11-trace0.json")
    (tmp_path / "change").mkdir()
    change = write_record(tmp_path / "change",
                          "alg_a_mini_128_iter-seed11-trace0.json",
                          metrics={"wall_s": 14.0, "peak_rss_mb": 283.0})
    monkeypatch.chdir(tmp_path)
    assert bench_record.main(["pr8", f"parent={parent}",
                              f"change={change}"]) == 0
    assert "2 records" in capsys.readouterr().out
    out = json.loads((tmp_path / "BENCH_pr8.json").read_text())
    assert out["label"] == "pr8"
    assert [r["side"] for r in out["records"]] == ["parent", "change"]
    first, second = out["records"]
    assert first == {"workload": "alg_a_mini_128_iter", "seed": 11,
                     "trace": 0, "side": "parent",
                     "metrics": {"wall_s": 17.5, "peak_rss_mb": 287.0},
                     "correct": True,
                     "environment": {"nproc": 2, "seed": 11}}
    assert second["metrics"]["wall_s"] == 14.0


@pytest.mark.parametrize("args", [
    [],
    ["pr8"],
    ["../pr8", "parent=x-seed1-trace0.json"],
    ["pr8", "no-side-given.json"],
    ["pr8", "parent=missing-seed1-trace0.json"],
    ["pr8", "parent=not_a_record.json"],
])
def test_bad_arguments_exit_two(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    assert bench_record.main(args) == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.glob("BENCH_*"))


def test_record_without_a_field_exits_two(tmp_path, monkeypatch, capsys):
    path = write_record(tmp_path, "coupled_th_64-seed3-trace1.json")
    rec = json.loads(open(path).read())
    del rec["correct"]
    open(path, "w").write(json.dumps(rec))
    monkeypatch.chdir(tmp_path)
    assert bench_record.main(["x", f"change={path}"]) == 2
    assert "no field 'correct'" in capsys.readouterr().err
