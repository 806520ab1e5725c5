"""Blind source separation with parametric copula models of the residual
dependence between recovered components.

The pipeline: whiten the observations, rotate them toward independence,
group components that stay dependent, and fit a copula to each group. The
report quantifies model fit by a divergence that splits exactly into a
mutual-information term and a copula-entropy term.
"""
# each module's __all__ lists its public names; exceptions has no
# __all__, as every name in it is public
from .copulas import *  # noqa: F401,F403
from .exceptions import *  # noqa: F401,F403
from .ica import *  # noqa: F401,F403
from .inference import *  # noqa: F401,F403
from .margins import *  # noqa: F401,F403
from .signals import *  # noqa: F401,F403

__version__ = "0.1.0"
