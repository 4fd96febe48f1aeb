"""Stochastic-geometry toolkit for secrecy transmission in large-scale
UAV-to-ground networks: closed-form and semi-analytic evaluators for
connection probability, secrecy outage probability and secrecy transmission
capacity, a Monte Carlo ground-truth simulator, and an optimizer for the
wiretap code rates, UAV altitude and secrecy guard-zone radius.
"""

from .model import (
    AllRayleigh,
    ExactLoSNLoS,
    FadingModel,
    GuardZone,
    NetworkParams,
    los_radius,
    sample_ppp,
)
from .analytic import MetricEstimate
from .montecarlo import SimConfig

__version__ = "0.1.0"

__all__ = [
    "AllRayleigh",
    "ExactLoSNLoS",
    "FadingModel",
    "GuardZone",
    "MetricEstimate",
    "NetworkParams",
    "SimConfig",
    "los_radius",
    "sample_ppp",
    "__version__",
]
