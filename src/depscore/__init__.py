"""depscore: dependence measures, fair ranking, and equivalent-sample-size
estimation for pairs of discrete random variables.

The core quantity is the standardized information sqrt(2*N*MI) - sqrt(dof),
which puts weak dependence on the scale of its own null standard deviation
while staying monotone in mutual information, so variables with different
numbers of states rank fairly. Reference measures (plug-in and
bias-corrected mutual information, normalized mutual information,
chi-square p-values with a robust log path) ride along, plus a frequentist
equivalent-sample-size solver for multinomial smoothing and seeded
experiment harnesses for discretization and feature-selection studies.

A name is public exactly when its module's ``__all__`` lists it.
"""

from .ess import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403
from .measures import *  # noqa: F401,F403
from .numerics import *  # noqa: F401,F403
from .ranking import *  # noqa: F401,F403
from .tables import *  # noqa: F401,F403

__version__ = "0.1.0"
