import math
import os
import re
import string

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nsdarcy.cli import (ALGORITHMS, CSV_HEADER, SOLVERS, ExperimentConfig,
                         KeyMismatch,
                         ParseError, Row, TableArtifact, ValidationError,
                         diff_tables, format_error, format_rate, main,
                         parse_config, parse_schedule_spec, parse_tol_spec,
                         read_table, run_experiment)
from nsdarcy import cli, decoupled, mesh
from nsdarcy.coupled import SolveOptions
from nsdarcy.mms import ManufacturedProblem

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


def single_level(spec):
    """Whether a valid spec holds a schedule of one subdivision."""
    kind, _, rest = spec.partition(":")
    return kind == "pairs" and any(":" not in s for s in rest.split(","))


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
        # multilevel algorithms need two levels per schedule
        assume(values.get("algorithm", ("", "coupled"))[1] == "coupled"
               or not single_level(values.get("schedule", ("", ""))[1]))
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
                                      "square:n0=two,levels=1",
                                      "square:n0=2,levels=3,levels=1",
                                      "cube_then_square:n0=2,n0=3,levels=1"])
    def test_bad_specs(self, spec):
        with pytest.raises(ValidationError):
            parse_schedule_spec(spec)

    @pytest.mark.parametrize("kind", ["square", "cube_then_square"])
    def test_cap_checked_per_level(self, kind):
        # building all levels first would square up to 2 ** (2 ** 1e9)
        with pytest.raises(ValidationError, match="exceeds cap 1024"):
            parse_schedule_spec(f"{kind}:n0=2,levels={10 ** 9}")

    def test_kind_accepts_any_case(self):
        assert parse_schedule_spec("SQUARE:n0=3,levels=1") == [(3, 9)]

    def test_cap_enforced(self):
        for spec in ("square:n0=2,levels=4", "pairs:2:2048"):
            with pytest.raises(ValidationError, match="exceeds cap 1024"):
                parse_schedule_spec(spec)

    def test_subdivisions_validated(self):
        for spec, message in (("pairs:4:4", "strictly increasing"),
                              ("pairs:8:2", "strictly increasing"),
                              ("pairs:1:4", "must all be >= 2"),
                              ("pairs:2:4,,8", "invalid literal")):
            with pytest.raises(ValidationError, match=message):
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

    def test_errors_count_file_lines(self, tmp_path):
        """Comment and blank lines count: a bad row on file line 6."""
        bad = tmp_path / "bad.csv"
        bad.write_text("# solver: direct\n# order: 1\n" + CSV_HEADER
                       + "\n0,1/2,u,H1,5.000E-01,-\n\n0,1/2,u,L2,abc,-\n")
        with pytest.raises(ParseError, match="line 6:"):
            read_table(str(bad))
        bad.write_text("# solver: direct\n\n" + CSV_HEADER
                       + "\n0,1/2,u,H1\n")
        with pytest.raises(ParseError, match="line 4: expected 6 fields"):
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

    @pytest.mark.parametrize("algorithm", ["coupled", "A"])
    def test_repeated_finest_meshes_get_no_rates(self, tmp_path, algorithm):
        cfg = parse_config(overrides={"algorithm": algorithm,
                                      "schedule": "pairs:2:4,3:4",
                                      "out": str(tmp_path / "res")})
        art = run_experiment(cfg)
        assert {(r.level, r.h) for r in art.rows} == {(0, "1/4"), (1, "1/4")}
        assert all(r.rate is None for r in art.rows)
        assert read_table(str(tmp_path / "res" / "errors.csv")).rows

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

    def test_dry_run_builds_no_mesh(self, monkeypatch, capsys):
        def no_mesh(*args, **kwargs):
            raise AssertionError("a dry run built a mesh")

        for module in (mesh, decoupled):
            monkeypatch.setattr(module, "build_coupled_mesh", no_mesh)
        monkeypatch.setattr(mesh, "build_tri_mesh", no_mesh)
        cfg = parse_config(overrides={"algorithm": "A", "order": 2,
                                      "schedule": "pairs:2:32:1024,3:6"})
        cfg.dry_run = True
        assert run_experiment(cfg).rows == []
        lines = capsys.readouterr().out.splitlines()
        # counts as printed when the meshes were built
        assert ("  level 2: n=1024 h=1/1024 velocity=8396802 "
                "pressure=1050625 head=4198401") in lines
        assert "  level 0: n=3 h=1/3 velocity=98 pressure=16 head=49" in lines

    @pytest.mark.parametrize("algorithm,solved", [("coupled", [64, 8]),
                                                  ("A", [2, 64, 3, 8])])
    def test_dry_run_lists_the_levels_the_study_solves(self, capsys,
                                                       algorithm, solved):
        """A coupled pair study solves only the finest mesh of each
        schedule, a multilevel algorithm every level."""
        cfg = parse_config(overrides={"algorithm": algorithm,
                                      "schedule": "pairs:2:64,3:8"})
        cfg.dry_run = True
        assert run_experiment(cfg).rows == []
        listed = re.findall(r"^  level \d+: n=(\d+) ",
                            capsys.readouterr().out, re.MULTILINE)
        assert list(map(int, listed)) == solved

    @pytest.mark.parametrize("schedule", ["pairs:2:64,3:8",
                                          "square:n0=2,levels=2"])
    @pytest.mark.parametrize("algorithm", ["coupled", "A"])
    def test_a_run_solves_the_levels_the_dry_run_lists(
            self, algorithm, schedule, capsys, tmp_path, monkeypatch):
        cfg = parse_config(overrides={"algorithm": algorithm,
                                      "schedule": schedule,
                                      "out": str(tmp_path / "res")})
        cfg.dry_run = True
        run_experiment(cfg)
        listed = re.findall(r"^  level \d+: n=(\d+) ",
                            capsys.readouterr().out, re.MULTILINE)
        solved = []
        orig_coupled, orig_multilevel = cli.solve_coupled, cli.run_multilevel

        def solve_coupled(level, *args):
            solved.append(level.mesh.n)
            return orig_coupled(level, *args)

        def run_multilevel(algorithm, schedule, *args):
            solved.extend(schedule)
            return orig_multilevel(algorithm, schedule, *args)

        monkeypatch.setattr(cli, "solve_coupled", solve_coupled)
        monkeypatch.setattr(cli, "run_multilevel", run_multilevel)
        cfg.dry_run = False
        assert run_experiment(cfg).rows
        assert solved == list(map(int, listed))

    def test_a_level_evaluates_the_exact_fields_once(self, tmp_path,
                                                     monkeypatch):
        """The final and intermediate states of a level share one error
        pass, so the exact velocity gradient is evaluated once per level."""
        calls = []
        orig = ManufacturedProblem.velocity_grad

        def velocity_grad(self, x, y):
            calls.append(x.shape)
            return orig(self, x, y)

        monkeypatch.setattr(ManufacturedProblem, "velocity_grad",
                            velocity_grad)
        cfg = parse_config(overrides={"algorithm": "A",
                                      "schedule": "pairs:2:4",
                                      "out": str(tmp_path / "res")})
        art = run_experiment(cfg)
        # level 0 (coupled, final only) and level 1 (final and intermediate)
        assert len(art.rows) == 7 + 14
        assert len(calls) == 2

    @pytest.mark.parametrize("algorithm,target", [
        ("coupled", "solve_coupled"), ("A", "run_multilevel")])
    def test_each_tolerance_reaches_its_own_field(self, algorithm, target,
                                                  tmp_path, monkeypatch):
        class Captured(Exception):
            pass

        seen = []

        def capture(*args):
            seen.append(args[-1])
            raise Captured

        monkeypatch.setattr(cli, target, capture)
        cfg = parse_config(overrides={"algorithm": algorithm,
                                      "solver": "iterative",
                                      "schedule": "pairs:2:4",
                                      "out": str(tmp_path / "res")})
        cfg.picard_tol, cfg.linear_tol, cfg.ichol_droptol = 1e-6, 2e-10, 3e-4
        with pytest.raises(Captured):
            run_experiment(cfg)
        assert seen == [SolveOptions(solver="iterative", linear_tol=2e-10,
                                     droptol=3e-4, picard_tol=1e-6)]

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
                                     "u:H1=-0.1", "nan", "H1=inf",
                                     "0.02,0.5", "u:H1=0.1, u:H1=0.2"])
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

    def test_config_key_set_twice_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("order = 1\n# comment\norder = 2\n")
        out = tmp_path / "res"
        assert main(["run", "--config", str(cfg), "--schedule",
                     "square:n0=2,levels=1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:3: key 'order' set twice" in err
        assert not out.exists()

    def test_oversized_schedule_exits_two(self, tmp_path, capsys):
        assert main(["run", "--dry-run", "--schedule",
                     "square:n0=2,levels=1000000000",
                     "--out", str(tmp_path / "res")]) == 2
        assert "exceeds cap" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--dry-run"]])
    def test_single_level_multilevel_schedule_exits_two(self, tmp_path,
                                                        capsys, flags):
        out = tmp_path / "res"
        assert main(["run", "--algorithm", "A", "--schedule", "pairs:8",
                     "--out", str(out)] + flags) == 2
        assert "two or more levels" in capsys.readouterr().err
        assert not out.exists()

    def test_single_level_schedule_fails_before_any_mesh(self, tmp_path,
                                                         monkeypatch):
        def no_mesh(*args, **kwargs):
            raise AssertionError("a mesh was built")

        for module in (mesh, decoupled):
            monkeypatch.setattr(module, "build_coupled_mesh", no_mesh)
        monkeypatch.setattr(mesh, "build_tri_mesh", no_mesh)
        cfg = ExperimentConfig(algorithm="B", schedule="pairs:2:4,8",
                               out=str(tmp_path / "res"))
        with pytest.raises(ValidationError, match="two or more levels"):
            run_experiment(cfg)
        assert main(["run", "--algorithm", "A", "--schedule", "pairs:2:4,8",
                     "--out", cfg.out]) == 2

    @pytest.mark.parametrize("flags", [[], ["--dry-run"]])
    @pytest.mark.parametrize("out", ["", "file", "file/sub"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_unusable_out_exits_two_before_any_solve(self, tmp_path, capsys,
                                                     monkeypatch, flags, out,
                                                     source):
        """An empty `out`, or one naming a file or lying below one, fails
        before any mesh is built instead of after the study."""
        def no_mesh(*args, **kwargs):
            raise AssertionError("a mesh was built")

        for module in (mesh, decoupled):
            monkeypatch.setattr(module, "build_coupled_mesh", no_mesh)
        monkeypatch.setattr(mesh, "build_tri_mesh", no_mesh)
        monkeypatch.setattr(cli, "solve_coupled", no_mesh)
        if out:
            (tmp_path / "file").write_text("not a directory\n")
            out = tmp_path / out
        if source == "flag":
            args = ["--out", str(out)]
        else:
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(f"out = {out}\n")
            args = ["--config", str(cfg)]
        assert main(["run", "--schedule", "pairs:2:3"] + args + flags) == 2
        assert capsys.readouterr().err.startswith("error: out: ")

    @pytest.mark.parametrize("flags", [[], ["--dry-run"]])
    def test_non_ascii_config_exits_two(self, tmp_path, capsys, flags):
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes("order = 1\nalgorithm = A # caf\u00e9\n".encode())
        out = tmp_path / "res"
        assert main(["run", "--config", str(cfg), "--out", str(out)]
                    + flags) == 2
        err = capsys.readouterr().err
        assert err == f"error: {cfg}: line 2: not ASCII\n"
        assert not out.exists()

    def test_non_ascii_table_exits_two(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        small_artifact().write_csv(str(path))
        text = path.read_bytes()
        assert text.endswith(b",2.000\n")
        path.write_bytes(text[:-3] + b"\xff00\n")
        lineno = text.count(b"\n")
        assert main(["diff", str(path), str(path), "--tol", "0.1"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: line {lineno}: not ASCII\n"

    def test_environment_failures_exit_three(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        assert main(["diff", missing, missing, "--tol", "0.01"]) == 3
        assert "failure" in capsys.readouterr().err

    def test_solver_failure_exits_three_with_traceback(self, tmp_path,
                                                      capsys, monkeypatch):
        def failing_solve(*args, **kwargs):
            raise RuntimeError("no convergence")

        monkeypatch.setattr(cli, "solve_coupled", failing_solve)
        assert main(["run", "--schedule", "square:n0=2,levels=1",
                     "--out", str(tmp_path / "res")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("---- failure ----\n"
                              "RuntimeError: no convergence\n")
        assert "Traceback" in err and "failing_solve" in err

    def test_unconverged_solve_exits_three(self, tmp_path, capsys):
        """No GMRES solve of the coarse Picard iteration reaches
        linear_tol = 1e-30."""
        config = tmp_path / "study.cfg"
        config.write_text("linear_tol = 1e-30\n")
        assert main(["run", "--config", str(config), "--solver", "iterative",
                     "--schedule", "pairs:2:4",
                     "--out", str(tmp_path / "res")]) == 3
        assert capsys.readouterr().err.startswith(
            "---- failure ----\nNotConverged: gmres: 5000 iterations")

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "res"
        assert main(["run", "--schedule", "square:n0=3,levels=1",
                     "--dry-run", "--out", str(out)]) == 0
        assert "subdivisions [3, 9]" in capsys.readouterr().out
        assert not out.exists()

    def test_hanging_git_keeps_the_study(self, tmp_path, monkeypatch):
        def hanging_git(cmd, **kwargs):
            raise cli.subprocess.TimeoutExpired(cmd, kwargs["timeout"])

        monkeypatch.setattr(cli.subprocess, "run", hanging_git)
        out = tmp_path / "res"
        assert main(["run", "--schedule", "pairs:2:4",
                     "--out", str(out)]) == 0
        art = read_table(str(out / "errors.csv"))
        assert art.metadata["revision"] == "unknown" and art.rows

    def test_revision_is_the_package_checkout(self, tmp_path, monkeypatch):
        seen = []

        def fake_git(cmd, **kwargs):
            seen.append(kwargs.get("cwd"))
            return cli.subprocess.CompletedProcess(cmd, 0, "abc1234\n", "")

        monkeypatch.setattr(cli.subprocess, "run", fake_git)
        monkeypatch.chdir(tmp_path)   # as if run inside another repository
        assert cli._revision() == "abc1234"
        assert seen == [os.path.dirname(os.path.abspath(cli.__file__))]
