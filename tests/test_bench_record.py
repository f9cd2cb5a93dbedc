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


def records(side, values, metric="wall_s", workload="alg_a_mini_128"):
    return [{"workload": workload, "trace": 0, "side": side,
             "metrics": {metric: v}} for v in values]


def interleave(a, b):
    return [r for pair in zip(a, b) for r in pair]


BETTER = {"wall_s": "lower", "ok_frac": "higher"}


def test_summary_counts_won_pairs_and_the_gain_rule():
    parent = [1.40, 1.42, 1.45, 1.41, 1.43, 1.44, 1.39, 1.46, 1.42, 1.43]
    change = [1.20, 1.25, 1.22, 1.21, 1.45, 1.24, 1.23, 1.22, 1.26, 1.21]
    (entry,) = bench_record.summarize(
        interleave(records("change", change), records("parent", parent)),
        BETTER)
    assert entry["base"] == "parent" and entry["change"] == "change"
    assert entry["pairs"] == 10 and entry["won"] == 9 and entry["gain"]
    assert entry["base_quartiles"][1] == pytest.approx(1.425)
    assert entry["change_quartiles"][1] == pytest.approx(1.225)
    line, = bench_record.summary_lines([entry])
    assert line.startswith("alg_a_mini_128 trace0 wall_s: parent 1.425 ")
    assert line.endswith("change won 9/10; gain holds")


SPREAD = [2.0, 2.3, 1.95, 2.05, 2.4, 1.9, 2.1, 1.95, 2.2, 2.0]


@pytest.mark.parametrize("change,pairs,won", [
    ([1.0] * 9, 9, 9),                   # too few pairs
    ([1.0] * 8 + [3.0, 3.0], 10, 8),     # too few won
    ([1.85] * 10, 10, 10)])              # inside the parent's spread
def test_gain_not_shown(change, pairs, won):
    (entry,) = bench_record.summarize(
        records("parent", SPREAD[:pairs]) + records("change", change), BETTER)
    assert (entry["pairs"], entry["won"], entry["gain"]) == (pairs, won,
                                                             False)


TIGHT = [1.0, 1.01, 0.99, 1.0]


# SPREAD: median 2.025, so a margin of 0.2025 at a bound of 0.1, and an
# interquartile range of 0.2125
@pytest.mark.parametrize("parent,change,expected", [
    (SPREAD, [2.3] * 10, "worse"),          # the median 0.275 worse
    (SPREAD, [2.1] * 10, "unresolved"),     # the parent's spread
    (SPREAD, [1.85] * 10, "within bound"),  # beats every parent record
    (TIGHT, [1.05, 1.08, 1.06, 1.07], "within bound")])
def test_verdict_against_the_bound(parent, change, expected):
    (entry,) = bench_record.summarize(
        records("parent", parent) + records("change", change), BETTER,
        {"wall_s": 0.1})
    assert entry["verdict"] == expected
    assert bench_record.summary_lines([entry])[0].endswith(f"; {expected}")


def test_verdict_only_for_bounded_metrics():
    ok = records("parent", TIGHT, "ok_frac") + records("change", [0.9] * 4,
                                                       "ok_frac")
    (entry,) = bench_record.summarize(ok, BETTER, {"wall_s": 0.1})
    assert "verdict" not in entry
    (entry,) = bench_record.summarize(ok, BETTER, {"ok_frac": 0.05})
    assert entry["verdict"] == "worse"
    assert bench_record.bounds_of()["wall_s"] == 0.24
    assert "mesh.build_s" not in bench_record.bounds_of()


def test_ties_count_for_neither_and_direction_comes_from_the_spec():
    (entry,) = bench_record.summarize(
        records("a", [1.0, 1.0, 0.9], "ok_frac")
        + records("b", [1.0, 0.95, 1.0], "ok_frac"), BETTER)
    assert entry["base"] == "a" and (entry["pairs"], entry["won"]) == (3, 1)
    assert bench_record.better_of()["peak_rss_mb"] == "lower"


def test_no_summary_without_two_sides_or_a_known_direction():
    assert bench_record.summarize(records("parent", [1.0, 2.0]), BETTER) == []
    (entry,) = bench_record.summarize(
        records("parent", [1.0], "count") + records("change", [2.0], "count"),
        BETTER)
    assert "won" not in entry


def test_record_file_holds_the_summary(tmp_path, monkeypatch, capsys):
    args = []
    for side, wall in (("parent", 2.0), ("change", 1.5)):
        (tmp_path / side).mkdir()
        args.append(f"{side}=" + write_record(
            tmp_path / side, "alg_a_mini_128_iter-seed11-trace0.json",
            metrics={"wall_s": wall, "peak_rss_mb": 287.0}))
    monkeypatch.chdir(tmp_path)
    assert bench_record.main(["s", *args]) == 0
    out = capsys.readouterr().out
    assert "wall_s: parent 2 [2, 2]  change 1.5 [1.5, 1.5]  change won 1/1" \
        in out
    summary = json.loads((tmp_path / "BENCH_s.json").read_text())["summary"]
    assert [e["metric"] for e in summary] == ["wall_s", "peak_rss_mb"]
    assert summary[1]["won"] == 0 and not summary[1]["gain"]
