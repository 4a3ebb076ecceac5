"""Sampling and numerical verification toolkit for a self-organized-critical
Gaussian mean-field spin model.

Subpackages by concern: :mod:`cwsoc.model` (statistics and exact density),
:mod:`cwsoc.limit_law` (the quartic limit distribution), :mod:`cwsoc.samplers`
(Metropolis and importance sampling), :mod:`cwsoc.verification` (numerical
checks) and :mod:`cwsoc.cli` (command-line front end).
"""

__version__ = "0.1.0"

from .model import (
    DomainError,
    ModelParams,
    SumStats,
    SupportError,
    UnsupportedOrderError,
)
from .limit_law import QuarticLaw
from .samplers import ChainState, SamplerConfig, init_chain, run

__all__ = [
    "__version__",
    "DomainError",
    "SupportError",
    "UnsupportedOrderError",
    "ModelParams",
    "SumStats",
    "QuarticLaw",
    "SamplerConfig",
    "ChainState",
    "init_chain",
    "run",
]
