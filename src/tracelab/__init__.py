"""tracelab: operators on weighted inner-product spaces, P1 trace/extension
problems, and a verified fractional boundary-norm scale.
"""

from . import cli, errors, fem2d, kernels, oplab, report, tracescale
from .fem2d import Assembly, Mesh, assemble, dump_mesh, gen_mesh, space_h1partial
from .oplab import InnerSpace, Operator, adjoint, douglas_factor, frac_power, make_space, pinv
from .report import SuiteReport
from .tracescale import (
    duality_check,
    equivalence_constants,
    green_residual,
    harmonic_extension,
    hs_gram,
    interpolation_check,
    necas_constants,
    normal_derivative,
    poisson_robin,
    robin_solve,
)

__version__ = "0.1.0"

__all__ = [
    "Assembly",
    "InnerSpace",
    "Mesh",
    "Operator",
    "SuiteReport",
    "adjoint",
    "assemble",
    "cli",
    "douglas_factor",
    "duality_check",
    "dump_mesh",
    "equivalence_constants",
    "errors",
    "fem2d",
    "frac_power",
    "gen_mesh",
    "green_residual",
    "harmonic_extension",
    "hs_gram",
    "interpolation_check",
    "kernels",
    "make_space",
    "necas_constants",
    "normal_derivative",
    "oplab",
    "pinv",
    "poisson_robin",
    "report",
    "robin_solve",
    "space_h1partial",
    "tracescale",
    "__version__",
]
