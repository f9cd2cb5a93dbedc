"""Span tracer installed around nsdarcy's layers from outside the package.

`install` replaces public functions and methods of the `mesh`, `fem`,
`forms`, `sparse`, `coupled`, `decoupled`, `mms` and `cli` modules with
wrappers that open a span on entry and close it on exit. A span is
(name, start, end, parent span, run id); spans stay in memory until the
study ends. A function that another module bound by value
(`from .sparse import gmres`) is rebound there too, otherwise its calls
would bypass the wrapper. `scipy.sparse.bmat` and other unwrapped work is
self time of whichever span encloses it.

Hooks that run after a wrapped call take counts (points located, Krylov
iterations, factor fill) and compute true residuals ||b - Ax|| / ||b|| of
every direct and Krylov solve. A residual check runs in its own
`trace.check` span, so it is subtracted from the self time of the span
around it and shows only in the trace overhead.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from collections import Counter

import numpy as np

CHECK_SPAN = "trace.check"
ROOT_SPAN = "cli.run_experiment"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.reset()

    def reset(self) -> None:
        self.spans: list = []     # [name, start, end, parent index or -1]
        self._stack: list = []
        self.counts: Counter = Counter()
        self.dofs: list = []      # unknowns of each build_spaces call, in order
        self.relres: list = []    # (span name, true relative residual)

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def check_residual(self, name: str, A, b, x) -> None:
        idx = self.enter(CHECK_SPAN)
        try:
            b = np.asarray(b, dtype=float)
            bnorm = np.linalg.norm(b)
            res = np.linalg.norm(b - A @ x)
            self.relres.append((name, float(res / bnorm if bnorm > 0
                                            else res)))
        finally:
            self.exit(idx)


def _wrap(tracer: Tracer, name: str, fn, hook=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit(idx)
        tracer.counts[name + "_calls"] += 1
        if hook is not None:
            hook(tracer, args, out)
        return out
    return traced


# --- hooks: (tracer, positional args, result) -------------------------------

def _count_points(counter_name):
    def hook(tr, args, out):
        tr.counts[counter_name] += len(args[1])
    return hook


def _factor_hook(factors):
    def hook(tr, args, out):
        inst, A = args[0], args[1]
        lu = inst._lu
        tr.counts["sparse.factor_rows"] += inst.shape[0]
        tr.counts["sparse.factor_nnz"] += int(A.nnz)
        tr.counts["sparse.fill_nnz"] += int(lu.L.nnz + lu.U.nnz)
        factors[inst] = A
    return hook


def _lu_solve_hook(factors):
    def hook(tr, args, x):
        A = factors.get(args[0])
        if A is not None:
            tr.check_residual("sparse.lu_solve", A, args[1], x)
    return hook


def _krylov_hook(name):
    def hook(tr, args, out):
        x, rep = out
        tr.counts[name + "_its"] += rep.iterations
        tr.counts[name + "_converged"] += int(rep.converged)
        tr.check_residual(name, args[0], args[1], x)
    return hook


def _picard_hook(tr, args, out):
    tr.counts["coupled.picard_its"] += out[1].iterations


def _dofs_hook(tr, args, spaces):
    tr.dofs.append(int(spaces.velocity.num_coefficients + spaces.pressure.ndof
                       + spaces.head.ndof))


def _targets(factors):
    """(module, owner attribute or None, attribute, span name, hook)."""
    return [
        ("mesh", None, "build_coupled_mesh", "mesh.build", None),
        ("mesh", "TriMesh", "locate_many", "mesh.locate",
         _count_points("mesh.locate_pts")),
        ("fem", None, "build_dofmap", "fem.dofmap", None),
        ("fem", None, "interpolate", "fem.interpolate", None),
        ("fem", "DiscreteField", "eval_many", "fem.eval",
         _count_points("fem.eval_pts")),
        ("fem", "DiscreteField", "eval_grad_many", "fem.eval",
         _count_points("fem.eval_pts")),
        ("forms", None, "assemble_af", "forms.af", None),
        ("forms", None, "assemble_b", "forms.b", None),
        ("forms", None, "assemble_ap", "forms.ap", None),
        ("forms", None, "assemble_mass", "forms.mass", None),
        ("forms", None, "assemble_volume_load", "forms.volume_load", None),
        ("forms", None, "assemble_interface_coupling", "forms.coupling", None),
        ("forms", None, "assemble_convection", "forms.convection", None),
        ("forms", None, "assemble_correction_load", "forms.correction_load",
         None),
        ("forms", None, "assemble_interface_load_darcy", "forms.iface_load",
         None),
        ("forms", None, "assemble_interface_load_ns", "forms.iface_load",
         None),
        ("sparse", None, "constrain_matrix", "sparse.constrain", None),
        ("sparse", None, "constrain_rhs", "sparse.constrain", None),
        ("sparse", None, "constrain_dirichlet", "sparse.constrain", None),
        ("sparse", "DirectFactor", "__init__", "sparse.factor",
         _factor_hook(factors)),
        ("sparse", "DirectFactor", "solve", "sparse.lu_solve",
         _lu_solve_hook(factors)),
        ("sparse", None, "gmres", "sparse.gmres", _krylov_hook("sparse.gmres")),
        ("sparse", None, "pcg", "sparse.pcg", _krylov_hook("sparse.pcg")),
        ("sparse", None, "ichol", "sparse.ichol", None),
        ("sparse", "BlockTriangularPreconditioner", "__init__",
         "sparse.blocktri_setup", None),
        ("coupled", None, "build_spaces", "coupled.build_spaces", _dofs_hook),
        ("coupled", None, "solve_coupled", "coupled.solve", _picard_hook),
        ("decoupled", "DarcyStep", "__init__", "decoupled.darcy_setup", None),
        ("decoupled", "DarcyStep", "solve", "decoupled.darcy_solve", None),
        ("decoupled", "NSStep", "__init__", "decoupled.ns_setup", None),
        ("decoupled", "NSStep", "solve_newton", "decoupled.ns_solve", None),
        ("decoupled", "NSStep", "solve_correction", "decoupled.ns_solve",
         None),
        ("decoupled", None, "advance_level", "decoupled.fine_level", None),
        ("decoupled", None, "run_multilevel", "decoupled.run_multilevel",
         None),
        ("mms", None, "error_norms", "mms.error_norms", None),
        ("mms", None, "rate_table", "mms.rate_table", None),
        ("cli", None, "run_experiment", ROOT_SPAN, None),
        ("cli", None, "_revision", "cli.revision", None),
        ("cli", "TableArtifact", "write_csv", "cli.output", None),
        ("cli", "TableArtifact", "text_table", "cli.output", None),
        ("cli", "TableArtifact", "write_gnuplot", "cli.output", None),
    ]


def install(run_id: str) -> Tracer:
    """Wraps every target in the already imported nsdarcy package."""
    tracer = Tracer(run_id)
    package = [m for k, m in sys.modules.items()
               if k == "nsdarcy" or k.startswith("nsdarcy.")]
    factors = weakref.WeakKeyDictionary()
    for mod_name, owner, attr, span, hook in _targets(factors):
        module = sys.modules["nsdarcy." + mod_name]
        if owner is not None:
            cls = getattr(module, owner)
            setattr(cls, attr, _wrap(tracer, span, getattr(cls, attr), hook))
            continue
        orig = getattr(module, attr)
        traced = _wrap(tracer, span, orig, hook)
        for mod in package:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, traced)
    return tracer


# --- analysis ---------------------------------------------------------------

def self_times(spans: list) -> list:
    """Duration minus the durations of direct children, per span."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def check_spans(spans: list, tol: float = 1e-9) -> list:
    """Problems with the span tree: unclosed spans, children outside their
    parent, overlapping siblings, negative self time."""
    problems = []
    last_child_end: dict = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if end is None:
            problems.append(f"span {i} ({name}) never closed")
            continue
        if parent >= 0:
            _, pstart, pend, _ = spans[parent]
            if pend is None or start < pstart - tol or end > pend + tol:
                problems.append(f"span {i} ({name}) outside its parent "
                                f"{parent} ({spans[parent][0]})")
            if start < last_child_end.get(parent, start) - tol:
                problems.append(f"span {i} ({name}) overlaps a sibling")
            last_child_end[parent] = end
    if not problems:
        for i, s in enumerate(self_times(spans)):
            if s < -tol:
                problems.append(f"span {i} ({spans[i][0]}) self time {s:.3e}")
    return problems


def summarize(tracer: Tracer) -> dict:
    """Per-span-name self and inclusive seconds, counts, dofs per level,
    worst true residual, and the problems check_spans finds."""
    spans = tracer.spans
    self_s: Counter = Counter()
    incl_s: Counter = Counter()
    for (name, start, end, _), s in zip(spans, self_times(spans)):
        self_s[name] += s
        incl_s[name] += end - start
    worst = max(tracer.relres, key=lambda t: t[1], default=(None, 0.0))
    return {"self_s": dict(self_s), "incl_s": dict(incl_s),
            "counts": dict(tracer.counts), "dofs": list(tracer.dofs),
            "true_relres_max": worst[1], "true_relres_worst_at": worst[0],
            "span_problems": check_spans(spans)}


def span_records(tracer: Tracer) -> list:
    return [{"name": name, "start": start, "end": end, "parent": parent,
             "run": tracer.run_id} for name, start, end, parent in tracer.spans]
