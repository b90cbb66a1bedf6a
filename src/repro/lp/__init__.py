"""LP/ILP substrate: model builder, exact simplex, scipy + hybrid backends, B&B.

One exact entry point, :func:`~repro.lp.simplex.solve_standard`, runs the
fraction-free revised simplex over a factorized basis.  ``canonical=True``
pins Dantzig pricing for a deterministic vertex; ``canonical="lex"``
returns the lex-min optimal vertex, independent of warm starts.
"""

from .basis import LUBasis
from .branch_and_bound import BnBResult, solve_binary_ilp
from .certificates import farkas_certifies
from .hybrid import HAVE_SCIPY, solve_standard_hybrid
from .model import LinearProgram, LPSolution, Row
from .simplex import PRICINGS, SimplexResult, solve_standard
from .solve import BACKENDS, feasible_point, feasible_point_rows, is_feasible, solve_lp
from .stats import SolverStats, collect_stats
from .warm import WarmState

if HAVE_SCIPY:
    from .scipy_backend import solve_standard_float
else:  # pragma: no cover - scipy is present in CI images
    solve_standard_float = None  # type: ignore[assignment]

__all__ = [
    "BACKENDS",
    "BnBResult",
    "LPSolution",
    "LUBasis",
    "LinearProgram",
    "PRICINGS",
    "Row",
    "SimplexResult",
    "SolverStats",
    "WarmState",
    "collect_stats",
    "farkas_certifies",
    "feasible_point",
    "feasible_point_rows",
    "is_feasible",
    "solve_binary_ilp",
    "solve_lp",
    "solve_standard",
    "solve_standard_float",
    "solve_standard_hybrid",
]
