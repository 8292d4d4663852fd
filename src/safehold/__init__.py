"""Sampled-data safety filtering with certified hold periods.

The library wraps a control-barrier-function safety filter, a boosted
variant that buys robustness to zero-order hold, regional bound estimation
with the resulting hold-period budgets, and a simulator with periodic and
event-triggered schedules. ``safehold.acc_benchmark`` instantiates the
whole stack on an adaptive cruise control plant.

The package re-exports every public name of its library modules; each
module's ``__all__`` is the one list of its public names.
"""

from . import acc_benchmark, cbf_core, config, constants, errors, safety_filter, simulator
from .acc_benchmark import *  # noqa: F401,F403
from .cbf_core import *  # noqa: F401,F403
from .config import *  # noqa: F401,F403
from .constants import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .safety_filter import *  # noqa: F401,F403
from .simulator import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *cbf_core.__all__,
    *safety_filter.__all__,
    *constants.__all__,
    *simulator.__all__,
    *acc_benchmark.__all__,
    *config.__all__,
    "__version__",
]
