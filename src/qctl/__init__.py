"""Scaled quantum-to-classical transition simulations.

Gaussian ensembles (superpositions and statistical mixtures) scatter off a
hard wall while a transition parameter rescales Planck's constant, sweeping
the dynamics continuously between the quantum and classical regimes.
"""

from .arrival import ArrivalStatistics, arrival_distribution
from .config import (
    ArrivalSettings,
    ExperimentConfig,
    SpatialGrid,
    TimeGrid,
    TrajectorySettings,
    WignerSettings,
    load_config,
    parse_config,
    serialize_config,
)
from .ensembles import (
    EnsembleSpec,
    density,
    fringe_visibility,
    norm_constant,
    position_densities,
    purity,
)
from .errors import ConfigError, DomainError, LowDensityError, NumericalGuardError
from .hydrodynamics import DENSITY_FLOOR, Trajectory, current, trajectory_fans, velocity
from .observables import (
    ObservableRecord,
    effective_force,
    ehrenfest_residual,
    heisenberg_check,
    observable_record,
)
from .packets import GaussianPacket, complex_width, packet_center
from .phase_space import WignerField, free_liouville_residual, wigner_transforms
from .quadrature import quad_integrate, quadrature_weights
from .regime import Regime, make_regime
from .runner import run_experiment

__all__ = [
    "ArrivalSettings",
    "ArrivalStatistics",
    "ConfigError",
    "DENSITY_FLOOR",
    "DomainError",
    "EnsembleSpec",
    "ExperimentConfig",
    "GaussianPacket",
    "LowDensityError",
    "NumericalGuardError",
    "ObservableRecord",
    "Regime",
    "SpatialGrid",
    "TimeGrid",
    "Trajectory",
    "TrajectorySettings",
    "WignerField",
    "WignerSettings",
    "arrival_distribution",
    "complex_width",
    "current",
    "density",
    "effective_force",
    "ehrenfest_residual",
    "free_liouville_residual",
    "fringe_visibility",
    "heisenberg_check",
    "load_config",
    "make_regime",
    "norm_constant",
    "observable_record",
    "packet_center",
    "parse_config",
    "position_densities",
    "purity",
    "quad_integrate",
    "quadrature_weights",
    "run_experiment",
    "serialize_config",
    "trajectory_fans",
    "velocity",
    "wigner_transforms",
]
