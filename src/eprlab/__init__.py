"""Numerical lab for two-party quantum correlations and their
separated-random-process representations.

The package computes exact quantum correlation functions (spin singlet,
rotated quadratures of Gaussian states, free evolution), constructs
hidden-variable models that reproduce them as correlations of separated
random processes, and verifies the agreement both in closed form and by
seeded Monte Carlo, including CHSH combinations and response-bound
analysis.
"""

from . import correlators, errors, estimator, gaussian, lhv, operators
from .correlators import *  # noqa: F403
from .errors import *  # noqa: F403
from .estimator import *  # noqa: F403
from .gaussian import *  # noqa: F403
from .lhv import *  # noqa: F403
from .operators import *  # noqa: F403

__version__ = "0.1.0"

# Each module's __all__ lists the public names it defines.
__all__ = [
    *correlators.__all__,
    *errors.__all__,
    *estimator.__all__,
    *gaussian.__all__,
    *lhv.__all__,
    *operators.__all__,
]
