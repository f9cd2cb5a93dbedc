"""Finite elements for a coupled free-flow/porous-medium model on the unit
square stack, with a monolithic Picard solver and multilevel decoupled
algorithms, verified against a built-in closed-form solution."""

__version__ = "0.1.0"

from .coupled import (CoupledState, Level, PicardDiverged, SolveOptions,
                      build_level, solve_coupled)
from .decoupled import AlgorithmId, MultilevelRun, run_multilevel
from .forms import ModelParams
from .mesh import MeshSchedule, ScheduleKind, build_coupled_mesh, make_schedule
from .mms import ErrorReport, error_norms, manufactured_problem, rate_table

__all__ = [
    "__version__",
    "AlgorithmId",
    "CoupledState",
    "ErrorReport",
    "Level",
    "MeshSchedule",
    "ModelParams",
    "MultilevelRun",
    "PicardDiverged",
    "ScheduleKind",
    "SolveOptions",
    "build_coupled_mesh",
    "build_level",
    "error_norms",
    "make_schedule",
    "manufactured_problem",
    "rate_table",
    "run_multilevel",
    "solve_coupled",
]
