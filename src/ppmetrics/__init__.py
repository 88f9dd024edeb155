"""Metrics between point patterns and point-process distributions.

The package provides the pattern metrics ``d1``, ``dbar1`` and
``dbar1_pc``, their empirical Wasserstein lift ``dbar2_empirical``, the
count metrics ``dR``/``dRW``, seedable point-process samplers, closed-form
Poisson-approximation bounds, pattern statistics with known sensitivity,
and a Monte Carlo test of spatial homogeneity with its power study.

Each library module's ``__all__`` is the one list of its public names; the
package republishes all of them.
"""

from . import assignment, bounds, errors, geometry, metrics, processes, statistics
from .assignment import *
from .bounds import *
from .errors import *
from .geometry import *
from .metrics import *
from .processes import *
from .statistics import *

__version__ = "0.1.0"

__all__ = sorted(name for module in (assignment, bounds, errors, geometry, metrics,
                                     processes, statistics) for name in module.__all__)
