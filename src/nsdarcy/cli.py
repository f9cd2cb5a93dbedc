"""Command-line front end: configure, run, and compare convergence studies.

    nsdarcy run --config exp.cfg [--algorithm A] [--order 2]
                [--schedule square:n0=2,levels=3] [--solver direct]
                [--out results] [--dry-run]
    nsdarcy diff a.csv b.csv --tol "u:H1=0.02,p:L2=0.02"

Config files are plain key=value lines (# comments allowed); flags override
the file. Results land in the output directory as errors.csv, an aligned
text table, per-variable h-vs-error data files, and a gnuplot script.

CSV contract: columns level,h,variable,norm,error,rate; errors in
scientific notation with 4 significant digits; h as a rational string
"1/n"; metadata carried in leading # comment lines and excluded from the
(byte-reproducible) body. Intermediate-step quantities of the multilevel
algorithms get a _star suffix on the variable name.
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, fields

from . import __version__
from .coupled import (FAMILIES, SOLVERS, SolveOptions, build_level,
                      solve_coupled)
from .decoupled import LevelSolution, run_multilevel
from .fem import dof_count
from .forms import ModelParams, finite_positive
from .mms import (REPORTED_KEYS, error_norms, manufactured_problem,
                  rate_table)


class ParseError(Exception):
    pass


class ValidationError(Exception):
    pass


class KeyMismatch(Exception):
    pass


ALGORITHMS = ("coupled", "A", "B", "C", "D")
CSV_HEADER = "level,h,variable,norm,error,rate"
MAX_SUBDIVISIONS = 1024   # finer schedules are refused before any mesh
_SOLVE_DEFAULTS = SolveOptions()


@dataclass
class ExperimentConfig:
    algorithm: str = "coupled"
    order: int = 1
    schedule: str = "square:n0=2,levels=2"
    solver: str = _SOLVE_DEFAULTS.solver
    picard_tol: float = _SOLVE_DEFAULTS.picard_tol
    linear_tol: float = _SOLVE_DEFAULTS.linear_tol
    ichol_droptol: float = _SOLVE_DEFAULTS.droptol
    out: str = "results"
    dry_run: bool = False


def parse_schedule_spec(spec: str) -> list[tuple[int, ...]]:
    """The schedules of a spec, each a tuple of subdivisions:
    "square:n0=2,levels=3" squares n0 at every level,
    "cube_then_square:n0=2,levels=2" cubes it once and then squares, and
    "pairs:2:6,3:16,4:32" lists them (colon-separated subdivisions, commas
    between schedules). Each must increase strictly from at least 2 and
    stay within MAX_SUBDIVISIONS."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    try:
        if kind == "pairs":
            schedules = [tuple(int(v) for v in tok.split(":"))
                         for tok in rest.split(",")]
        elif kind in ("square", "cube_then_square"):
            kw: dict = {}
            for tok in filter(str.strip, rest.split(",")):
                key, _, value = tok.partition("=")
                if key.strip() in kw:
                    raise ValueError(f"key {key.strip()!r} given twice")
                kw[key.strip()] = int(value)
            if kw.keys() != {"n0", "levels"}:
                raise ValueError(f"need keys n0 and levels, got {sorted(kw)}")
            if kw["n0"] < 2 or kw["levels"] < 1:
                raise ValueError("need base subdivision n0 >= 2 and "
                                 "levels >= 1")
            subs = [kw["n0"]]
            # stop at the first entry over the cap, which the check below
            # rejects; going on would square up to n0 ** (2 ** levels)
            while len(subs) <= kw["levels"] and subs[-1] <= MAX_SUBDIVISIONS:
                subs.append(subs[-1] ** (3 if kind == "cube_then_square"
                                         and len(subs) == 1 else 2))
            schedules = [tuple(subs)]
        else:
            raise ValueError(f"unknown kind {kind!r}")
        for subs in schedules:
            if any(n < 2 for n in subs):
                raise ValueError(f"subdivisions must all be >= 2, got {subs}")
            if any(b <= a for a, b in zip(subs, subs[1:])):
                raise ValueError(f"subdivisions must be strictly increasing, "
                                 f"got {subs}")
        over = [n for subs in schedules for n in subs if n > MAX_SUBDIVISIONS]
        if over:
            raise ValueError(f"subdivision {over[0]} exceeds cap "
                             f"{MAX_SUBDIVISIONS}")
    except ValueError as exc:
        raise ValidationError(f"schedule: bad spec {spec!r} ({exc})") from exc
    return schedules


def _schedules(config: ExperimentConfig) -> list[tuple[int, ...]]:
    """The config's schedules; a multilevel algorithm needs a coarse and a
    fine level in each."""
    schedules = parse_schedule_spec(config.schedule)
    if config.algorithm != "coupled" and min(map(len, schedules)) < 2:
        raise ValidationError(f"schedule: algorithm {config.algorithm} needs "
                              f"two or more levels per schedule, got "
                              f"{config.schedule!r}")
    return schedules


_BOOLEANS = {"true": True, "yes": True, "1": True,
             "false": False, "no": False, "0": False}


def _parse_bool(value) -> bool:
    try:
        return _BOOLEANS[str(value).strip().lower()]
    except KeyError:
        raise ValueError(f"expected one of {'/'.join(_BOOLEANS)}, "
                         f"got {value!r}") from None


# each key parses as the type of its default
_CONFIG_KEYS = {f.name: _parse_bool if isinstance(f.default, bool)
                else type(f.default) for f in fields(ExperimentConfig)}


def _ascii_lines(path: str) -> list[str]:
    """The lines of a text file; a line that is not ASCII is a ParseError."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()   # at \n, \r\n and \r, as open()
    for lineno, line in enumerate(lines, start=1):
        if not line.isascii():
            raise ParseError(f"{path}: line {lineno}: not ASCII")
    return [line.decode("ascii") for line in lines]


def parse_config(path: str | None = None,
                 overrides: dict | None = None) -> ExperimentConfig:
    """key=value config file plus flag overrides; unknown keys, keys set
    twice in the file and out-of-range values are rejected with the
    offending field named."""
    raw: dict = {}
    if path is not None:
        for lineno, line in enumerate(_ascii_lines(path), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ParseError(f"{path}:{lineno}: expected key=value, "
                                 f"got {line.strip()!r}")
            key, _, value = body.partition("=")
            if key.strip() in raw:
                raise ValidationError(f"{path}:{lineno}: key {key.strip()!r} "
                                      f"set twice")
            raw[key.strip()] = value.strip()
    for key, value in (overrides or {}).items():
        if value is not None:
            raw[key] = value

    cfg = ExperimentConfig()
    for key, value in raw.items():
        if key not in _CONFIG_KEYS:
            raise ValidationError(f"unknown config key {key!r}")
        try:
            setattr(cfg, key, _CONFIG_KEYS[key](value))
        except ValueError as exc:
            raise ValidationError(f"{key}: {exc}") from exc

    if cfg.algorithm not in ALGORITHMS:
        raise ValidationError(f"algorithm: {cfg.algorithm!r} not in "
                              f"{ALGORITHMS}")
    if cfg.order not in (1, 2):
        raise ValidationError(f"order: must be 1 or 2, got {cfg.order}")
    if cfg.solver not in SOLVERS:
        raise ValidationError(f"solver: {cfg.solver!r} not in {SOLVERS}")
    for name in ("picard_tol", "linear_tol", "ichol_droptol"):
        _check_tolerance(name, getattr(cfg, name))
    if not cfg.out or not _below_a_directory(cfg.out):
        raise ValidationError(f"out: must name a directory, got {cfg.out!r}")
    _schedules(cfg)  # validates, result rebuilt at run time
    return cfg


def _below_a_directory(path: str) -> bool:
    """Whether path, or else its nearest ancestor that exists, is a
    directory, so that os.makedirs can make or find it."""
    while path and not os.path.lexists(path):
        path = os.path.dirname(path)
    return os.path.isdir(path or ".")


def _check_tolerance(name: str, value: float) -> float:
    try:
        return finite_positive(name, value)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


@dataclass
class Row:
    level: int
    h: str
    variable: str
    norm: str
    error: float
    rate: float | None

    @property
    def key(self) -> tuple:
        return (self.level, self.h, self.variable, self.norm)


def format_error(e: float) -> str:
    return "%.3E" % e


def format_rate(r: float | None) -> str:
    return "-" if r is None else "%.3f" % r


@dataclass
class TableArtifact:
    rows: list
    metadata: dict = field(default_factory=dict)

    def body_lines(self) -> list[str]:
        out = [CSV_HEADER]
        for r in self.rows:
            out.append(f"{r.level},{r.h},{r.variable},{r.norm},"
                       f"{format_error(r.error)},{format_rate(r.rate)}")
        return out

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            for k, v in self.metadata.items():
                fh.write(f"# {k}: {v}\n")
            fh.write("\n".join(self.body_lines()) + "\n")

    def text_table(self) -> str:
        cells = [line.split(",") for line in self.body_lines()]
        widths = [max(map(len, col)) for col in zip(*cells)]
        lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
                 for row in cells]
        lines.insert(1, "  ".join("-" * w for w in widths))
        return "\n".join(lines)

    def write_gnuplot(self, out_dir: str) -> None:
        """One h-vs-error file per final-stage variable/norm plus a script."""
        series: dict = {}
        for r in self.rows:
            if r.variable.endswith("_star"):
                continue
            series.setdefault((r.variable, r.norm), []).append(
                (1.0 / int(r.h.split("/")[1]), r.error))
        plots = []
        for (var, norm), pts in sorted(series.items()):
            name = f"err_{var}_{norm}.dat"
            with open(os.path.join(out_dir, name), "w",
                      encoding="ascii", newline="\n") as fh:
                for h, e in pts:
                    fh.write(f"{h:.10e} {format_error(e)}\n")
            plots.append(f'"{name}" using 1:2 with linespoints '
                         f'title "{var} {norm}"')
        with open(os.path.join(out_dir, "plot.gp"), "w",
                  encoding="ascii", newline="\n") as fh:
            fh.write("set logscale xy\nset xlabel \"h\"\n"
                     "set ylabel \"error\"\nset key left top\n")
            fh.write("plot " + ", \\\n     ".join(plots) + "\n")


def read_table(path: str) -> TableArtifact:
    metadata: dict = {}
    rows: list = []
    lines: dict = {}   # row key -> file line number
    body = []   # (file line number, line)
    for lineno, ln in enumerate(_ascii_lines(path), start=1):
        if ln.startswith("#"):
            k, _, v = ln[1:].strip().partition(":")
            metadata[k.strip()] = v.strip()
        elif ln.strip():
            body.append((lineno, ln))
    if not body or body[0][1] != CSV_HEADER:
        raise ParseError(f"{path}: missing header {CSV_HEADER!r}")
    for i, ln in body[1:]:
        parts = ln.split(",")
        if len(parts) != 6:
            raise ParseError(f"{path}: line {i}: expected 6 fields")
        level, h, var, norm, err, rate = parts
        try:
            row = Row(int(level), h, var, norm, float(err),
                      None if rate == "-" else float(rate))
            if not (0 <= row.error < math.inf
                    and math.isfinite(row.rate or 0)):
                raise ValueError(f"need a finite error >= 0 and a finite "
                                 f"rate or -, got {err}, {rate}")
        except ValueError as exc:
            raise ParseError(f"{path}: line {i}: {exc}") from exc
        if row.key in lines:
            raise ParseError(f"{path}: lines {lines[row.key]} and {i}: "
                             f"one row key {'/'.join(map(str, row.key))}")
        lines[row.key] = i
        rows.append(row)
    return TableArtifact(rows=rows, metadata=metadata)


def _revision() -> str:
    """Short git revision of the package's own checkout, or "unknown"; a
    git that is missing or hangs must not lose a finished study."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=5,
                             cwd=os.path.dirname(os.path.abspath(__file__)))
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def _rows_for_stage(reports: list, suffix: str = "") -> list:
    """Rows for an ordered list of (level, ErrorReport), with observed rates
    when the stage has two or more levels, all on distinct meshes."""
    reps = [r for _, r in reports]
    distinct = len({r.n for r in reps}) == len(reps)
    rates = rate_table(reps) if distinct and len(reps) >= 2 else None
    rows = []
    for idx, (level, rep) in enumerate(reports):
        for var, norm in REPORTED_KEYS:
            rows.append(Row(level=level, h=f"1/{rep.n}",
                            variable=var + suffix, norm=norm,
                            error=rep.get(var, norm),
                            rate=rates[(var, norm)][idx] if rates else None))
    return rows


def run_experiment(config: ExperimentConfig) -> TableArtifact:
    """Executes the configured study and writes CSV/text/plot files.

    Every schedule yields its levels: the coupled baseline a solve per
    subdivision, a multilevel algorithm one run. With several schedules
    (pair mode) each contributes its finest level, as consecutive rows.
    """
    params = ModelParams()
    mms = manufactured_problem(params)
    schedules = _schedules(config)
    pair_mode = len(schedules) > 1

    if config.dry_run:
        print(_dry_run_text(config, schedules))
        return TableArtifact(rows=[], metadata=_metadata(config))

    from .mesh import build_coupled_mesh
    opts = SolveOptions(solver=config.solver, linear_tol=config.linear_tol,
                        droptol=config.ichol_droptol,
                        picard_tol=config.picard_tol)

    def levels(solved):
        if config.algorithm == "coupled":   # lazily: one state held at a time
            return (LevelSolution(lv, n, None, solve_coupled(build_level(
                        build_coupled_mesh(n), config.order, params, mms),
                        opts)[0]) for lv, n in solved)
        run = run_multilevel(config.algorithm, [n for _, n in solved],
                             config.order, params, mms, opts)
        return run[-1:] if pair_mode else run

    finals, stars = [], []
    for i, solved in enumerate(_solved_levels(config, schedules)):
        for lv in levels(solved):
            level = i if pair_mode else lv.level
            # the intermediate state shares the final one's spaces
            final, *star = error_norms(
                [s for s in (lv.final, lv.intermediate) if s is not None], mms)
            finals.append((level, final))
            stars += [(level, r) for r in star]

    artifact = TableArtifact(rows=_rows_for_stage(finals)
                             + _rows_for_stage(stars, "_star"),
                             metadata=_metadata(config))
    os.makedirs(config.out, exist_ok=True)
    artifact.write_csv(os.path.join(config.out, "errors.csv"))
    with open(os.path.join(config.out, "errors.txt"), "w",
              encoding="ascii", newline="\n") as fh:
        fh.write(artifact.text_table() + "\n")
    artifact.write_gnuplot(config.out)
    return artifact


def _metadata(config: ExperimentConfig) -> dict:
    meta = {"tool": f"nsdarcy {__version__}",
            "revision": _revision(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
    for f in fields(config):
        meta[f.name] = getattr(config, f.name)
    return meta


def _solved_levels(config: ExperimentConfig, schedules: list) -> list:
    """Per schedule, the (level, n) that the study solves: every level,
    but a coupled pair study solves only each schedule's finest mesh."""
    first = -1 if config.algorithm == "coupled" and len(schedules) > 1 else 0
    return [list(enumerate(sched))[first:] for sched in schedules]


def _dry_run_text(config: ExperimentConfig, schedules: list) -> str:
    """Schedule and dof counts of the levels the study solves
    (`_solved_levels`), from closed forms: no mesh is built."""
    vfam, qfam, hfam = FAMILIES[config.order]
    lines = [f"algorithm={config.algorithm} order={config.order} "
             f"solver={config.solver}"]
    for i, solved in enumerate(_solved_levels(config, schedules)):
        lines.append(f"schedule {i}: subdivisions {list(schedules[i])}")
        for level, n in solved:
            lines.append(
                f"  level {level}: n={n} h=1/{n} "
                f"velocity={vfam.components * dof_count(vfam, n)} "
                f"pressure={dof_count(qfam, n)} head={dof_count(hfam, n)}")
    return "\n".join(lines)


def parse_tol_spec(spec: str) -> dict:
    """"0.02" (default), "H1=0.02" (per norm), "u:H1=0.01" (per key)."""
    out: dict = {}
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        key, _, value = tok.rpartition("=")
        key = key.strip() or "default"
        if key in out:
            raise ValidationError(f"tol {key}: given twice in {spec!r}")
        try:
            out[key] = _check_tolerance(f"tol {key}", float(value))
        except ValueError as exc:
            raise ValidationError(f"tol {key}: {exc}") from exc
    if not out:
        raise ValidationError("tol: empty tolerance spec")
    return out


@dataclass
class DiffReport:
    passed: bool
    checked: list        # (key, rel_diff, tol, ok)
    unchecked: list      # keys with no applicable tolerance
    missing: list        # keys present in only one table

    def text(self) -> str:
        lines = []
        for key, rel, tol, ok in self.checked:
            tag = "ok  " if ok else "FAIL"
            lines.append(f"{tag} {'/'.join(map(str, key))}: "
                         f"rel diff {rel:.3e} vs tol {tol:g}")
        if self.unchecked:
            lines.append(f"unchecked rows: {len(self.unchecked)}")
        if self.missing:
            lines.append(f"rows missing from one side: {len(self.missing)}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def diff_tables(a: TableArtifact, b: TableArtifact, tol: dict,
                strict: bool = False) -> DiffReport:
    """Relative differences (against b) per shared row key; tolerance
    resolution (tol as parse_tol_spec gives it): exact "var:norm" entry,
    then norm, then default. Rows with no applicable tolerance are
    reported, not checked. A tolerance key other than default that names
    no shared row's norm or var:norm raises ValidationError."""
    amap = {r.key: r for r in a.rows}
    bmap = {r.key: r for r in b.rows}
    shared = sorted(set(amap) & set(bmap))
    missing = sorted(set(amap) ^ set(bmap))
    if not shared or (strict and missing):
        raise KeyMismatch(f"{len(shared)} shared row keys, "
                          f"{len(missing)} unmatched")
    unknown = set(tol) - {"default"} - {f"{v}:{n}" for *_, v, n in shared} \
        - {n for *_, n in shared}
    if unknown:
        raise ValidationError(f"tol {', '.join(sorted(unknown))}: names "
                              f"no compared row")
    checked, unchecked = [], []
    for key in shared:
        _, _, var, norm = key
        t = tol.get(f"{var}:{norm}", tol.get(norm, tol.get("default")))
        if t is None:
            unchecked.append(key)
            continue
        ea, eb = amap[key].error, bmap[key].error
        rel = abs(ea - eb) / (abs(eb) if eb != 0 else 1.0)
        checked.append((key, rel, t, rel <= t))
    passed = bool(checked) and all(ok for *_, ok in checked)
    return DiffReport(passed=passed, checked=checked, unchecked=unchecked,
                      missing=missing)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nsdarcy",
        description="Convergence studies for the coupled free-flow/porous "
                    "solver and its multilevel decoupled algorithms.")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run an experiment")
    runp.add_argument("--config", help="key=value config file")
    runp.add_argument("--algorithm", choices=ALGORITHMS)
    runp.add_argument("--order", type=int, choices=(1, 2))
    runp.add_argument("--schedule", help="square:n0=2,levels=3 | "
                                         "cube_then_square:... | pairs:2:6,...")
    runp.add_argument("--solver", choices=SOLVERS)
    runp.add_argument("--out", help="output directory")
    runp.add_argument("--dry-run", action="store_true",
                      help="print schedule and dof counts, skip solves")

    diffp = sub.add_parser("diff", help="compare two error tables")
    diffp.add_argument("a")
    diffp.add_argument("b")
    diffp.add_argument("--tol", required=True,
                       help='e.g. "0.02" or "u:H1=0.02,p:L2=0.02"')
    diffp.add_argument("--strict", action="store_true",
                       help="fail on any unmatched row key")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            overrides = {k: getattr(args, k) for k in
                         ("algorithm", "order", "schedule", "solver", "out")}
            config = parse_config(args.config, overrides)
            if args.dry_run:
                config.dry_run = True
            artifact = run_experiment(config)
            if not config.dry_run:
                print(artifact.text_table())
                print(f"\nwrote {os.path.join(config.out, 'errors.csv')}")
            return 0
        report = diff_tables(read_table(args.a), read_table(args.b),
                             parse_tol_spec(args.tol), strict=args.strict)
        print(report.text())
        return 0 if report.passed else 1
    except (ParseError, ValidationError, KeyMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # solver and IO failures
        print("---- failure ----", file=sys.stderr)
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        print(traceback.format_exc(), end="", file=sys.stderr)
        print("-----------------", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
