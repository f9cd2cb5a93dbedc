import math
import os
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsdarcy.cli import (ALGORITHMS, CSV_HEADER, SOLVERS, ExperimentConfig,
                         KeyMismatch,
                         ParseError, Row, TableArtifact, ValidationError,
                         diff_tables, format_error, format_rate, main,
                         parse_config, parse_schedule_spec, parse_tol_spec,
                         read_table, run_experiment)

VARIABLES = ("u", "v", "p", "phi", "u_star", "phi_star")
NORMS = ("L2", "H1")
TOL_KEYS = st.one_of(
    st.just("default"), st.sampled_from(NORMS),
    st.builds(lambda v, n: f"{v}:{n}", st.sampled_from(VARIABLES),
              st.sampled_from(NORMS)))
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NOT_POSITIVE = st.one_of(st.floats(max_value=0.0), st.just(math.nan),
                         st.just(math.inf))
CAP = 1024
BOOLEAN_WORDS = {"true": True, "yes": True, "1": True,
                 "false": False, "no": False, "0": False}


def any_case(word):
    return st.tuples(*(st.sampled_from((c.lower(), c.upper()))
                       for c in word)).map("".join)


# (text, value) of a boolean config value, in any letter case
BOOLEAN_TEXT = st.sampled_from(sorted(BOOLEAN_WORDS)).flatmap(
    lambda w: any_case(w).map(lambda text: (text, BOOLEAN_WORDS[w])))


@st.composite
def schedule_specs(draw):
    """A schedule spec within the cap and the subdivisions it stands for."""
    kind = draw(st.sampled_from(("square", "cube_then_square", "pairs")))
    if kind == "pairs":
        scheds = draw(st.lists(
            st.lists(st.integers(2, CAP), min_size=1, max_size=4,
                     unique=True).map(sorted), min_size=1, max_size=5))
        return "pairs:" + ",".join(":".join(map(str, s)) for s in scheds), \
            scheds
    levels = draw(st.integers(1, 3 if kind == "square" else 2))
    power = 2 ** levels if kind == "square" else 3 * 2 ** (levels - 1)
    n0 = draw(st.integers(2, max(n for n in range(2, 33) if n ** power <= CAP)))
    subs = [n0]
    for lvl in range(levels):
        subs.append(subs[-1] ** (3 if kind == "cube_then_square" and lvl == 0
                                 else 2))
    return f"{kind}:n0={n0},levels={levels}", [subs]


def valid_pairs(subs):
    return (all(2 <= n <= CAP for n in subs)
            and all(b > a for a, b in zip(subs, subs[1:])))


BAD_SCHEDULES = st.one_of(
    st.text(string.ascii_lowercase, min_size=1)
    .filter(lambda k: k not in ("square", "cube_then_square", "pairs"))
    .map(lambda k: f"{k}:n0=2,levels=1"),
    st.lists(st.integers(-4, 2 * CAP), min_size=1, max_size=4)
    .filter(lambda s: not valid_pairs(s))
    .map(lambda s: "pairs:" + ":".join(map(str, s))),
    st.tuples(st.sampled_from(("square", "cube_then_square")),
              st.integers(-4, 40), st.integers(-3, 3))
    .filter(lambda t: t[1] < 2 or t[2] < 1)
    .map(lambda t: f"{t[0]}:n0={t[1]},levels={t[2]}"),
    st.tuples(st.sampled_from(("square", "cube_then_square")),
              st.integers(2, 40), st.integers(1, 6))
    .filter(lambda t: t[1] ** (2 ** t[2] if t[0] == "square"
                               else 3 * 2 ** (t[2] - 1)) > CAP)
    .map(lambda t: f"{t[0]}:n0={t[1]},levels={t[2]}"),
    st.sampled_from(["pairs:", "pairs:2:x", "pairs:2,,4", "square:",
                     "square:n0=two,levels=1", "square:levels=1",
                     "square:n0=2", "square:n0=2,levels=1,depth=3",
                     "square:n0=2;levels=1", "cube_then_square:n0=2.5,"
                     "levels=1"]))

# (config file text, parsed value) per key
CONFIG_VALUES = st.fixed_dictionaries({}, optional={
    "algorithm": st.sampled_from(ALGORITHMS).map(lambda v: (v, v)),
    "order": st.sampled_from((1, 2)).map(lambda v: (str(v), v)),
    "solver": st.sampled_from(SOLVERS).map(lambda v: (v, v)),
    "picard_tol": POSITIVE.map(lambda v: (repr(v), v)),
    "linear_tol": POSITIVE.map(lambda v: (repr(v), v)),
    "ichol_droptol": POSITIVE.map(lambda v: (repr(v), v)),
    "schedule": schedule_specs().map(lambda t: (t[0], t[0])),
    "out": st.text(string.ascii_letters + string.digits + "/._-",
                   min_size=1).map(lambda v: (v, v)),
    "dry_run": BOOLEAN_TEXT,
})
BAD_CONFIG_LINES = st.one_of(
    st.text(string.ascii_lowercase + "_", min_size=1)
    .filter(lambda k: k not in ExperimentConfig.__dataclass_fields__)
    .map(lambda k: f"{k} = 1"),
    st.sampled_from(sorted(ExperimentConfig.__dataclass_fields__))
    .map(lambda k: f"{k} 1"),
    st.integers().filter(lambda v: v not in (1, 2)).map(
        lambda v: f"order = {v}"),
    st.text(string.ascii_letters, min_size=1)
    .filter(lambda v: v not in ALGORITHMS).map(lambda v: f"algorithm={v}"),
    st.text(string.ascii_letters, min_size=1)
    .filter(lambda v: v not in SOLVERS).map(lambda v: f"solver={v}"),
    st.tuples(st.sampled_from(("picard_tol", "linear_tol", "ichol_droptol")),
              NOT_POSITIVE).map(lambda t: f"{t[0]} = {t[1]!r}"),
    st.text(string.ascii_letters + string.digits, min_size=1)
    .filter(lambda v: v.lower() not in BOOLEAN_WORDS)
    .map(lambda v: f"dry_run = {v}"),
    BAD_SCHEDULES.map(lambda v: f"schedule = {v}"))


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def small_artifact():
    rows = [Row(0, "1/2", "u", "H1", 0.5, None),
            Row(0, "1/2", "p", "L2", 0.25, None),
            Row(1, "1/4", "u", "H1", 0.25, 1.0),
            Row(1, "1/4", "p", "L2", 0.0625, 2.0)]
    return TableArtifact(rows=rows, metadata={"algorithm": "coupled"})


class TestConfig:
    def test_defaults(self):
        cfg = parse_config()
        assert cfg == ExperimentConfig()
        assert (cfg.algorithm, cfg.order, cfg.solver) == ("coupled", 1,
                                                          "direct")
        assert cfg.schedule == "square:n0=2,levels=2"
        assert (cfg.picard_tol, cfg.linear_tol, cfg.ichol_droptol) == \
            (1e-7, 1e-9, 1e-3)

    def test_file_and_overrides(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("# comment line\n"
                            "algorithm = B\n"
                            "order=2   # trailing comment\n"
                            "\n"
                            "picard_tol = 1e-9\n")
        cfg = parse_config(str(cfg_file),
                           overrides={"order": "1", "solver": None})
        assert cfg.algorithm == "B"
        assert cfg.order == 1          # flag beats file
        assert cfg.solver == "direct"  # absent flag leaves the file value
        assert cfg.picard_tol == 1e-9

    def test_missing_equals_sign(self, tmp_path):
        bad = tmp_path / "exp.cfg"
        bad.write_text("algorithm B\n")
        with pytest.raises(ParseError, match="exp.cfg:1"):
            parse_config(str(bad))

    @pytest.mark.parametrize("overrides", [
        {"flux_capacitor": "1"},
        {"order": "two"},
        {"order": "3"},
        {"algorithm": "E"},
        {"solver": "multigrid"},
        {"picard_tol": "-1e-7"},
        {"picard_tol": "nan"},
        {"linear_tol": "nan"},
        {"linear_tol": "inf"},
        {"ichol_droptol": "nan"},
        {"ichol_droptol": "0"},
        {"schedule": "bogus:n0=2,levels=1"},
        {"schedule": "square:levels=1"},
        {"schedule": "square:n0=2048,levels=1"},
    ])
    def test_rejected_values(self, overrides):
        with pytest.raises(ValidationError):
            parse_config(overrides=overrides)


    @pytest.mark.parametrize("text,value", [("false", False), ("No", False),
                                            ("0", False), ("true", True),
                                            ("YES", True), ("1", True)])
    def test_dry_run_in_config_file(self, tmp_path, text, value):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(f"dry_run = {text}\n")
        assert parse_config(str(cfg_file)).dry_run is value

    def test_dry_run_false_runs_the_study(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("dry_run = false\n")
        out = tmp_path / "res"
        assert main(["run", "--config", str(cfg_file), "--schedule",
                     "square:n0=2,levels=1", "--out", str(out)]) == 0
        assert (out / "errors.csv").is_file()

    def test_bad_dry_run_value_exits_two(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("dry_run = maybe\n")
        assert main(["run", "--config", str(cfg_file), "--dry-run"]) == 2
        assert "dry_run" in capsys.readouterr().err

    @settings(max_examples=60, deadline=None)
    @given(CONFIG_VALUES)
    def test_config_roundtrip_property(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("cfg") / "exp.cfg"
        path.write_text("".join(f"{k} = {text}\n"
                                for k, (text, _) in values.items()))
        expected = ExperimentConfig(**{k: v for k, (_, v) in values.items()})
        assert parse_config(str(path)) == expected

    @settings(max_examples=60, deadline=None)
    @given(CONFIG_VALUES, BAD_CONFIG_LINES)
    def test_bad_config_line_exits_two_property(self, tmp_path_factory,
                                                values, bad):
        path = tmp_path_factory.mktemp("cfg") / "exp.cfg"
        path.write_text("".join(f"{k} = {text}\n"
                                for k, (text, _) in values.items())
                        + bad + "\n")
        with pytest.raises((ParseError, ValidationError)):
            parse_config(str(path))
        assert main(["run", "--config", str(path), "--dry-run"]) == 2


class TestScheduleSpec:
    def test_square(self):
        (sched,) = parse_schedule_spec("square:n0=2,levels=2")
        assert list(sched) == [2, 4, 16]

    def test_cube_then_square(self):
        (sched,) = parse_schedule_spec("cube_then_square:n0=2,levels=2")
        assert list(sched) == [2, 8, 64]

    def test_pairs(self):
        scheds = parse_schedule_spec("pairs:2:6,3:16,4:32,5:56")
        assert [list(s) for s in scheds] == [[2, 6], [3, 16], [4, 32],
                                             [5, 56]]

    @pytest.mark.parametrize("spec", ["pairs:", "pairs:6:2", "square:",
                                      "square:n0=two,levels=1"])
    def test_bad_specs(self, spec):
        with pytest.raises(ValidationError):
            parse_schedule_spec(spec)

    @given(schedule_specs())
    def test_roundtrip_property(self, spec_and_subs):
        spec, subs = spec_and_subs
        assert [list(s) for s in parse_schedule_spec(spec)] == subs

    @settings(deadline=None)
    @given(BAD_SCHEDULES)
    def test_malformed_specs_exit_two_property(self, spec):
        with pytest.raises(ValidationError):
            parse_schedule_spec(spec)
        assert main(["run", "--dry-run", "--schedule", spec]) == 2


class TestTableIO:
    def test_header_is_fixed(self):
        assert CSV_HEADER == "level,h,variable,norm,error,rate"
        assert small_artifact().body_lines()[0] == CSV_HEADER

    def test_roundtrip(self, tmp_path):
        art = small_artifact()
        path = tmp_path / "errors.csv"
        art.write_csv(str(path))
        back = read_table(str(path))
        assert back.metadata == {"algorithm": "coupled"}
        assert [r.key for r in back.rows] == [r.key for r in art.rows]
        assert [r.rate for r in back.rows] == [r.rate for r in art.rows]
        # errors survive the 4-significant-digit format exactly
        assert back.body_lines() == art.body_lines()

    def test_body_excludes_metadata(self, tmp_path):
        a, b = small_artifact(), small_artifact()
        b.metadata = {"timestamp": "differs", "tool": "other"}
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_csv(str(pa))
        b.write_csv(str(pb))
        strip = lambda p: [ln for ln in p.read_text().splitlines()
                           if not ln.startswith("#")]
        assert strip(pa) == strip(pb)

    def test_missing_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ParseError, match="missing header"):
            read_table(str(bad))

    def test_short_row_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(CSV_HEADER + "\n0,1/2,u,H1,5.000E-01\n")
        with pytest.raises(ParseError, match="6 fields"):
            read_table(str(bad))

    @pytest.mark.parametrize("row", ["0,1/2,u,H1,abc,-",
                                     "x,1/2,u,H1,5.000E-01,-",
                                     "1,1/4,u,H1,5.000E-01,fast"])
    def test_non_numeric_field_rejected(self, tmp_path, row):
        bad = tmp_path / "bad.csv"
        bad.write_text(CSV_HEADER + "\n" + row + "\n")
        with pytest.raises(ParseError, match="line 2"):
            read_table(str(bad))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(2, 1024),
                              st.sampled_from(VARIABLES),
                              st.sampled_from(NORMS), st.floats(),
                              st.one_of(st.none(), st.floats())),
                    max_size=12))
    def test_roundtrip_property(self, tmp_path_factory, cells):
        art = TableArtifact(
            rows=[Row(lv, f"1/{n}", var, norm, err, rate)
                  for lv, n, var, norm, err, rate in cells],
            metadata={"algorithm": "A", "schedule": "pairs:2:4"})
        path = tmp_path_factory.mktemp("csv") / "errors.csv"
        art.write_csv(str(path))
        back = read_table(str(path))
        assert back.metadata == art.metadata
        assert [r.key for r in back.rows] == [r.key for r in art.rows]
        # what is read back is exactly what the file says
        for r, b in zip(art.rows, back.rows):
            assert same_float(b.error, float(format_error(r.error)))
            if r.rate is None:
                assert b.rate is None
            else:
                assert same_float(b.rate, float(format_rate(r.rate)))


class TestRunExperiment:
    def test_coupled_sweep(self, tmp_path):
        cfg = parse_config(overrides={"schedule": "square:n0=2,levels=1",
                                      "out": str(tmp_path / "res")})
        art = run_experiment(cfg)
        assert len(art.rows) == 14  # 7 reported keys x 2 levels
        assert sorted({r.h for r in art.rows}) == ["1/2", "1/4"]
        level0 = [r for r in art.rows if r.level == 0]
        level1 = [r for r in art.rows if r.level == 1]
        assert all(r.rate is None for r in level0)
        assert all(r.rate is not None for r in level1)
        out = tmp_path / "res"
        assert (out / "errors.csv").is_file()
        assert (out / "errors.txt").is_file()
        assert (out / "plot.gp").is_file()
        assert (out / "err_phi_H1.dat").is_file()
        back = read_table(str(out / "errors.csv"))
        assert back.metadata["algorithm"] == "coupled"
        assert back.body_lines() == art.body_lines()

    def test_multilevel_reports_intermediates(self, tmp_path):
        cfg = parse_config(overrides={"algorithm": "D",
                                      "schedule": "square:n0=2,levels=1",
                                      "out": str(tmp_path / "res")})
        art = run_experiment(cfg)
        names = {r.variable for r in art.rows}
        assert {"u", "phi", "u_star", "phi_star"} <= names
        stars = [r for r in art.rows if r.variable.endswith("_star")]
        assert {r.level for r in stars} == {1}  # coarse level is coupled
        assert len(art.rows) == 14 + 7
        # plot data only tracks final-stage quantities
        assert not (tmp_path / "res" / "err_u_star_H1.dat").exists()

    def test_pair_schedules_report_finest_levels(self, tmp_path):
        cfg = parse_config(overrides={"algorithm": "A",
                                      "schedule": "pairs:2:4,3:6",
                                      "out": str(tmp_path / "res")})
        art = run_experiment(cfg)
        finals = [r for r in art.rows if not r.variable.endswith("_star")]
        assert sorted({r.h for r in finals}) == ["1/4", "1/6"]
        assert {r.level for r in finals} == {0, 1}
        assert len(art.rows) == 28

    def test_dry_run_solves_nothing(self, tmp_path, capsys):
        out = tmp_path / "res"
        cfg = parse_config(overrides={"schedule": "square:n0=2,levels=1",
                                      "out": str(out)})
        cfg.dry_run = True
        art = run_experiment(cfg)
        assert art.rows == []
        assert not out.exists()
        printed = capsys.readouterr().out
        assert "level 0: n=2" in printed
        assert "velocity=" in printed and "head=" in printed

    def test_rerun_is_byte_reproducible(self, tmp_path):
        bodies = []
        for name in ("one", "two"):
            cfg = parse_config(overrides={"schedule": "square:n0=2,levels=1",
                                          "out": str(tmp_path / name)})
            run_experiment(cfg)
            lines = (tmp_path / name / "errors.csv").read_text().splitlines()
            bodies.append([ln for ln in lines if not ln.startswith("#")])
        assert bodies[0] == bodies[1]


class TestDiff:
    def test_tol_spec_forms(self):
        assert parse_tol_spec("0.02") == {"default": 0.02}
        assert parse_tol_spec("H1=0.01, u:L2=0.05") == {"H1": 0.01,
                                                        "u:L2": 0.05}
        with pytest.raises(ValidationError):
            parse_tol_spec(" , ")

    @given(st.dictionaries(TOL_KEYS, POSITIVE, min_size=1, max_size=6))
    def test_tol_spec_roundtrip_property(self, tol):
        spec = ", ".join(repr(v) if k == "default" else f"{k}={v!r}"
                         for k, v in tol.items())
        assert parse_tol_spec(spec) == tol

    @given(TOL_KEYS, st.one_of(
        NOT_POSITIVE.map(repr),
        st.text(string.ascii_letters, min_size=1)))
    def test_tol_spec_rejects_property(self, key, value):
        # letters either fail to parse or spell inf/nan: both are rejected
        with pytest.raises(ValidationError):
            parse_tol_spec(f"{key}={value}")

    def test_exact_match_passes(self):
        report = diff_tables(small_artifact(), small_artifact(), 1e-12)
        assert report.passed
        assert all(ok for *_, ok in report.checked)
        assert report.unchecked == [] and report.missing == []

    def test_tolerance_precedence(self):
        a, b = small_artifact(), small_artifact()
        for r in b.rows:
            r.error *= 1.05
        tol = {"u:H1": 0.10, "H1": 0.001, "default": 0.001}
        report = diff_tables(a, b, tol)
        by_key = {key: (t, ok) for key, _, t, ok in report.checked}
        assert by_key[(0, "1/2", "u", "H1")] == (0.10, True)
        assert by_key[(0, "1/2", "p", "L2")] == (0.001, False)
        assert not report.passed

    def test_rows_without_tolerance_are_reported(self):
        report = diff_tables(small_artifact(), small_artifact(),
                             {"H1": 0.01})
        assert report.passed  # the checked subset passes
        assert len(report.unchecked) == 2  # both p:L2 rows skipped

    def test_missing_rows(self):
        a, b = small_artifact(), small_artifact()
        b.rows = b.rows[:2]
        report = diff_tables(a, b, 0.01)
        assert len(report.missing) == 2
        with pytest.raises(KeyMismatch):
            diff_tables(a, b, 0.01, strict=True)

    def test_disjoint_tables_raise(self):
        a = small_artifact()
        b = TableArtifact(rows=[Row(5, "1/64", "v", "L2", 1.0, None)])
        with pytest.raises(KeyMismatch):
            diff_tables(a, b, 0.01)


class TestMain:
    def test_run_and_diff_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "res"
        assert main(["run", "--schedule", "square:n0=2,levels=1",
                     "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        csv = str(out / "errors.csv")
        assert main(["diff", csv, csv, "--tol", "0.01"]) == 0
        assert capsys.readouterr().out.strip().endswith("PASS")

    def test_diff_failure_exits_one(self, tmp_path, capsys):
        art = small_artifact()
        other = small_artifact()
        for r in other.rows:
            r.error *= 1.5
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        art.write_csv(str(pa))
        other.write_csv(str(pb))
        assert main(["diff", str(pa), str(pb), "--tol", "0.02"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        assert main(["run", "--schedule", "bogus:n0=2,levels=1",
                     "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,table\n")
        assert main(["diff", str(bad), str(bad), "--tol", "0.01"]) == 2

    @pytest.mark.parametrize("tol", ["u:H1=abc", "abc", "H1=", "-0.02",
                                     "u:H1=-0.1", "nan", "H1=inf"])
    def test_bad_tolerance_exits_two(self, tmp_path, capsys, tol):
        path = tmp_path / "a.csv"
        small_artifact().write_csv(str(path))
        assert main(["diff", str(path), str(path), "--tol", tol]) == 2
        assert "error: tol" in capsys.readouterr().err

    def test_non_numeric_error_field_exits_two(self, tmp_path, capsys):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        small_artifact().write_csv(str(good))
        bad.write_text(CSV_HEADER + "\n0,1/2,u,H1,abc,-\n")
        assert main(["diff", str(good), str(bad), "--tol", "0.01"]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["picard_tol = nan", "linear_tol=-1",
                                      "ichol_droptol = inf"])
    def test_bad_solver_tolerance_exits_two(self, tmp_path, capsys, line):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "res"
        assert main(["run", "--config", str(cfg), "--schedule",
                     "square:n0=2,levels=1", "--out", str(out)]) == 2
        assert "must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_schedule_exits_two(self, tmp_path, capsys):
        assert main(["run", "--dry-run", "--schedule",
                     "square:n0=2,levels=1000000000",
                     "--out", str(tmp_path / "res")]) == 2
        assert "exceeds cap" in capsys.readouterr().err

    def test_environment_failures_exit_three(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        assert main(["diff", missing, missing, "--tol", "0.01"]) == 3
        assert "failure" in capsys.readouterr().err

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "res"
        assert main(["run", "--schedule", "square:n0=3,levels=1",
                     "--dry-run", "--out", str(out)]) == 0
        assert "subdivisions [3, 9]" in capsys.readouterr().out
        assert not out.exists()
