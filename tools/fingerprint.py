"""Bitwise fingerprint of a source tree's convergence studies.

    python3 tools/fingerprint.py write OUT.json [--src SRC] [CONFIG ...]
    python3 tools/fingerprint.py compare A.json B.json [--rtol R]

`write` runs each CONFIG, given as ALGORITHM:ORDER:SOLVER:SCHEDULE (such
as `A:1:direct:pairs:2:4:16`), through `nsdarcy.cli.run_experiment` with
the default tolerances, importing `nsdarcy` from SRC (default: the `src`
next to this tool). Without CONFIG it runs all 80 combinations of the
algorithms coupled and A-D, orders 1 and 2, both solvers and the schedules
`square:n0=4,levels=1`, `pairs:2:4:16`, `pairs:2:3:4` and `pairs:2:4,3:6`.
`pairs:2:3:4` does not nest, so its fine points fall anywhere in the
coarse cells; `pairs:2:4,3:6` holds two schedules, so its study takes the
finest level of each. For each configuration it records every unrounded
error and rate as `float.hex`, one SHA-256 over the `indptr`, `indices`
and `data` of every matrix handed to SuperLU, with the number of those
matrices and the dtype of each in call order (`superlu_dtypes`), the fill
of every factor SuperLU returns in call order (`superlu_fill`, its `nnz`:
L and U with supernodal padding, read without copying either factor), the
iteration count of every GMRES and PCG solve in call order (`krylov`, as
[method, iterations] pairs), the triangular solves of every direct solve
in call order (`direct`, the `iterations` of each direct `SolveReport`
that `coupled.System.solve` returns: 1 for a float64 factor, the
refinement's count for a float32 one), and the true residual of every
solve in call order (`residuals`, the `float.hex` of each
`sparse.true_residual`). `sparse.gmres`, `sparse.pcg` and
`sparse.true_residual` are rebound wherever the package holds them, as
`perfbench/tracing.py` does.

`compare` lists the configurations that differ. For each it gives the
largest relative error difference (against B), whether the SuperLU inputs,
the Krylov counts, the direct counts and the true residuals match, and
every row whose printed `errors.csv` body changes, formatted by the
`nsdarcy.cli` in the `src` next to this tool. Where the SuperLU inputs or
their fill differ it adds the relative change of the summed fill from A
to B ("fill same" if only the inputs differ), and the first input whose
dtype differs; direct counts are named only where they differ. Both
files are written by this tool (the parent's with `--src`), so a
configuration that lacks one of the fields above is a bad file: write it
again. Exit code 0 means every configuration is identical, 1 that some
differ, 2 a bad argument or file; a fill that differs on the same
SuperLU inputs, as under another pivot threshold, differs too. With
`--rtol R`, for refactors that are not bitwise, a configuration that
differs passes too when no printed `errors.csv` body changes and every
unrounded error lies within R relative of B's; its SuperLU inputs, fill,
Krylov counts, direct counts and residuals are then reported but do not
decide.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
import tempfile

SCHEDULES = ("square:n0=4,levels=1", "pairs:2:4:16", "pairs:2:3:4",
             "pairs:2:4,3:6")
CONFIGS = tuple(f"{alg}:{order}:{solver}:{schedule}" for alg, order, solver,
                schedule in itertools.product(("coupled", "A", "B", "C", "D"),
                                              (1, 2), ("direct", "iterative"),
                                              SCHEDULES))
DEFAULT_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")
FIELDS = ("rows", "superlu_sha256", "superlu_inputs", "superlu_dtypes",
          "superlu_fill", "krylov", "direct", "residuals")
USAGE = ("usage: fingerprint.py write OUT.json [--src SRC] [CONFIG ...]\n"
         "       fingerprint.py compare A.json B.json [--rtol R]")


class BadInput(Exception):
    pass


def _hex(value):
    return None if value is None else float(value).hex()


def _unhex(value):
    return None if value is None else float.fromhex(value)


def _rebind(orig, new) -> None:
    """Points every name in the package that holds orig at new."""
    for name, mod in list(sys.modules.items()):
        if name == "nsdarcy" or name.startswith("nsdarcy."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)


def _counting(orig, method, krylov):
    """orig, appending [method, iterations] to krylov after each solve."""
    def solve(*args, **kwargs):
        x, rep = orig(*args, **kwargs)
        krylov.append([method, rep.iterations])
        return x, rep
    return solve


def _recording(orig, residuals):
    """orig (true_residual), appending the float.hex of each result."""
    def true_residual(*args, **kwargs):
        res = orig(*args, **kwargs)
        residuals.append(_hex(res))
        return res
    return true_residual


def fingerprint(configs) -> dict:
    """{config: {"rows", "superlu_sha256", "superlu_inputs",
    "superlu_dtypes", "superlu_fill", "krylov", "direct", "residuals"}} of
    the studies run on the `nsdarcy` that imports first."""
    from nsdarcy import cli, coupled, sparse

    orig_splu = sparse.spla.splu
    solvers = {method: getattr(sparse, method) for method in ("gmres", "pcg")}
    orig_residual = sparse.true_residual
    orig_system_solve = coupled.System.solve
    out = {}
    for config in configs:
        algorithm, order, solver, schedule = config.split(":", 3)
        digest, dtypes, fill, krylov = hashlib.sha256(), [], [], []
        direct, residuals = [], []

        def splu(A, *args, **kwargs):
            dtypes.append(A.dtype.name)
            for a in (A.indptr, A.indices, A.data):
                digest.update(a.tobytes())
            lu = orig_splu(A, *args, **kwargs)
            fill.append(lu.nnz)
            return lu

        def system_solve(self, b):
            x, rep = orig_system_solve(self, b)
            if rep.method == "direct":
                direct.append(rep.iterations)
            return x, rep

        counting = {method: _counting(orig, method, krylov)
                    for method, orig in solvers.items()}
        recording = _recording(orig_residual, residuals)
        sparse.spla.splu = splu
        coupled.System.solve = system_solve
        for method, orig in solvers.items():
            _rebind(orig, counting[method])
        _rebind(orig_residual, recording)
        try:
            with tempfile.TemporaryDirectory() as tmp:
                artifact = cli.run_experiment(cli.ExperimentConfig(
                    algorithm=algorithm, order=int(order), solver=solver,
                    schedule=schedule, out=tmp))
        finally:
            sparse.spla.splu = orig_splu
            coupled.System.solve = orig_system_solve
            for method, orig in solvers.items():
                _rebind(counting[method], orig)
            _rebind(recording, orig_residual)
        out[config] = {
            "rows": [[r.level, r.h, r.variable, r.norm, _hex(r.error),
                      _hex(r.rate)] for r in artifact.rows],
            "superlu_sha256": digest.hexdigest(),
            "superlu_inputs": len(dtypes),
            "superlu_dtypes": dtypes,
            "superlu_fill": fill,
            "krylov": krylov,
            "direct": direct,
            "residuals": residuals}
    return out


def _body(row) -> str:
    """The row as errors.csv prints it."""
    from nsdarcy.cli import format_error, format_rate

    level, h, var, norm, error, rate = row
    return (f"{level},{h},{var},{norm},{format_error(_unhex(error))},"
            f"{format_rate(_unhex(rate))}")


def _first_difference(a: list, b: list) -> int:
    """The first index where two lists differ, or the shorter length."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                min(len(a), len(b)))


def _counts(fa: dict, fb: dict, key: str = "krylov") -> str:
    """"same" or where the iteration counts under `key` of two
    configurations first differ."""
    ka, kb = fa[key], fb[key]
    if ka == kb:
        return "same"
    i = _first_difference(ka, kb)

    def solve(k):
        if i >= len(k):
            return "none"
        return " ".join(map(str, k[i])) if isinstance(k[i], list) \
            else str(k[i])

    return (f"differ ({len(ka)} against {len(kb)} solves; solve {i + 1}: "
            f"{solve(ka)} against {solve(kb)})")


def _residuals(fa: dict, fb: dict) -> str:
    """"same" or the first solve whose true residuals differ."""
    ra, rb = fa["residuals"], fb["residuals"]
    if ra == rb:
        return "same"
    i = _first_difference(ra, rb)

    def solve(r):
        return repr(_unhex(r[i])) if i < len(r) else "none"

    return f"differ (solve {i + 1}: {solve(ra)} against {solve(rb)})"


def _dtypes(fa: dict, fb: dict) -> str:
    """", dtypes differ (...)" at the first SuperLU input whose dtype
    differs; empty if none does."""
    da, db = fa["superlu_dtypes"], fb["superlu_dtypes"]
    if da == db:
        return ""
    i = _first_difference(da, db)

    def dtype(d):
        return d[i] if i < len(d) else "none"

    return f", dtypes differ (input {i + 1}: {dtype(da)} against {dtype(db)})"


def _fill(fa: dict, fb: dict) -> str:
    """"same" or the relative change of the summed SuperLU fill from A
    to B."""
    if fa["superlu_fill"] == fb["superlu_fill"]:
        return "same"
    sa, sb = sum(fa["superlu_fill"]), sum(fb["superlu_fill"])
    return f"{(sb - sa) / sa:+.3%}" if sa else f"{sa} against {sb}"


def compare(a: dict, b: dict, rtol: float | None = None
            ) -> tuple[int, list[str]]:
    """(number of configurations that pass, report lines): identical ones
    and, given rtol, those within it (see the module docstring)."""
    lines, same = [], 0
    for config in sorted(set(a) | set(b)):
        if config not in a or config not in b:
            lines.append(f"{config}: only in {'A' if config in a else 'B'}")
            continue
        fa, fb = a[config], b[config]
        krylov, fill = _counts(fa, fb), _fill(fa, fb)
        direct, residuals = _counts(fa, fb, "direct"), _residuals(fa, fb)
        moved = fill != "same"
        identical = not moved and all(fa[k] == fb[k] for k in
                                      ("rows", "superlu_sha256",
                                       "superlu_inputs"))
        if identical and krylov == direct == residuals == "same":
            same += 1
            continue
        ra, rb = fa["rows"], fb["rows"]
        if [r[:4] for r in ra] != [r[:4] for r in rb]:
            lines.append(f"{config}: row keys differ")
            continue
        worst = 0.0
        for x, y in zip(ra, rb):
            ex, ey = _unhex(x[4]), _unhex(y[4])
            worst = max(worst, abs(ex - ey) / (abs(ey) if ey else 1.0))
        if ((fa["superlu_sha256"], fa["superlu_inputs"])
                == (fb["superlu_sha256"], fb["superlu_inputs"])):
            # the same matrices factored under other SuperLU options
            superlu = f"same, fill {fill}" if moved else "same"
        else:
            superlu = (f"differ ({fa['superlu_inputs']} against "
                       f"{fb['superlu_inputs']} inputs, fill {fill}"
                       f"{_dtypes(fa, fb)})")
        changed = [f"  {_body(x)}  ->  {_body(y)}" for x, y in zip(ra, rb)
                   if _body(x) != _body(y)]
        within = rtol is not None and not changed and worst <= rtol
        same += within
        lines.append(f"{config}: max rel error diff {worst:.3e}, "
                     f"SuperLU inputs {superlu}, Krylov counts {krylov}, "
                     + ("" if direct == "same"
                        else f"direct counts {direct}, ")
                     + f"residuals {residuals}"
                     + (f", within rtol {rtol:g}" if within else ""))
        lines += changed
    passed = "identical" if rtol is None else \
        f"identical or within rtol {rtol:g}"
    lines.append(f"{same} of {len(set(a) | set(b))} configurations {passed}")
    return same, lines


def _rtol(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = -1.0
    if not 0.0 <= value < float("inf"):
        raise BadInput(f"--rtol: expected a finite value >= 0, got {text!r}")
    return value


def _load(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BadInput(f"{path}: {exc}") from exc
    if not (isinstance(data, dict)
            and all(isinstance(fp, dict) for fp in data.values())):
        raise BadInput(f"{path}: not a fingerprint file")
    for config, fp in data.items():
        missing = [field for field in FIELDS if field not in fp]
        if missing:
            raise BadInput(f"{path}: {config} has no {missing[0]!r}; write "
                           f"the file again with this tool")
    return data


def main(argv: list[str]) -> int:
    try:
        if argv[:1] == ["compare"] and len(argv) in (3, 5):
            if len(argv) == 5 and argv[3] != "--rtol":
                raise BadInput(USAGE)
            rtol = _rtol(argv[4]) if len(argv) == 5 else None
            sys.path.insert(0, DEFAULT_SRC)
            a, b = _load(argv[1]), _load(argv[2])
            same, lines = compare(a, b, rtol)
            print("\n".join(lines))
            return 0 if same == len(set(a) | set(b)) else 1
        if argv[:1] != ["write"] or len(argv) < 2:
            raise BadInput(USAGE)
        path, rest, src = argv[1], argv[2:], DEFAULT_SRC
        if rest[:1] == ["--src"]:
            if len(rest) < 2:
                raise BadInput(USAGE)
            src, rest = rest[1], rest[2:]
        for config in rest:
            if len(config.split(":", 3)) != 4:
                raise BadInput(f"{config}: expected "
                               f"ALGORITHM:ORDER:SOLVER:SCHEDULE")
    except BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(src))
    result = fingerprint(rest or CONFIGS)
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path} ({len(result)} configurations)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
